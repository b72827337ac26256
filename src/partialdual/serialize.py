"""Canonical JSON documents for every object kind the engine produces.

A document is a single JSON object with four fixed top-level keys:
"format" (the version tag "pams-cas/1"), "kind", "field" (a descriptor
such as "Q" or "Fp:5"), and the kind's payload ("dims" plus "tensors",
or "dims" plus "tables" for matched pairs).  Tensor payloads are sparse:
lists of [index-list, scalar-string] pairs holding the nonzero entries
in lexicographic index order, with scalars rendered canonically by the
field (lowest-terms "a/b" or "a" over Q, the least residue over F_p).
Serialization of equal objects therefore yields identical text, and
parse(serialize(x)) returns an equal object for every kind.

Documents are written from and read into the integer tables the engine
stores: _entries writes any flat tensor in (support, den) form (the
product and Delta tables, phi and phi^-1, vectors and matrices), and
_read_flat reads one back after _read_entries has checked every index
against its shape.  Products, Deltas and associators go to the trusted
Algebra._of, Coalgebra._of and QuasiHopfAlgebra._of, so no dense
tensor is built on either side.

Only linalg and hopf are imported up front.  The modules of the other
kinds are imported by the branch of parse that reads their kind, and
serialize tells those kinds apart without importing anything, so a
command of the CLI that handles Hopf documents alone never compiles the
certifiers.

The grammar and the shapes expected for each kind are documented in
FORMAT.md at the repository root.
"""

import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from math import prod
from operator import mul

from partialdual.hopf import Coalgebra, Algebra, HopfAlgebra, LinMap, Report, _cut, _pairs, _permuted, _stacked, _support
from partialdual.linalg import (
    Field, Matrix, Sparse, Vector, _columns, _dense, _int_supports, _matrix, _sparse, field_from_descriptor,
)

__all__ = ["DocumentError", "parse", "parse_matrix_text", "serialize"]

FORMAT = "pams-cas/1"

KINDS = ("hopf", "coideal", "pams", "quasi-hopf", "coquasi-hopf", "matched-pair")


class DocumentError(ValueError):
    """A document that cannot be parsed: syntax, shape, or field errors."""


def _entries(field: Field, sparse: Sparse, dims: tuple) -> str:
    """The nonzeros of a flat tensor over dims, in (support, den) form reduced by the field, as [index-list,
    scalar-string] entries in flat order, in the text json.dumps(indent=1) writes in "tensors"."""
    support = _support(sparse, dims)
    scalars = field.from_ints([x for _, x in support], sparse[1])
    items = ",\n".join(
        "   [\n    [\n     " + ",\n     ".join(map(str, index)) + "\n    ],\n    " + _quote(field.to_str(c)) + "\n   ]"
        for (index, _), c in zip(support, scalars)
    )
    return f"[\n{items}\n  ]" if items else "[]"


def _vector_entries(v: Vector) -> str:
    return _entries(v.field, _sparse(v), (len(v),))


def _matrix_entries(m: Matrix) -> str:
    """m with entry (r, c) at r ncols + c: its columns stacked, then the two legs swapped."""
    return _entries(m.field, _permuted(_stacked(_columns(m), m.nrows), (m.ncols, m.nrows), (1, 0)), (m.nrows, m.ncols))


def _parts(a: Algebra, c: Coalgebra, names: tuple[str, ...] = ("mult", "unit", "comult", "counit")) -> dict:
    """The product and unit of a, then Delta and the counit of c, under `names`."""
    n, cube = a.dim, (a.dim,) * 3
    return {
        names[0]: _entries(a.field, _stacked(_pairs(a), n), cube),
        names[1]: _vector_entries(a.unit),
        names[2]: _entries(c.field, _stacked(c.int_comult, n * n), cube),
        names[3]: _vector_entries(c.counit),
    }


def _hopf_tensors(h: HopfAlgebra) -> dict:
    return {**_parts(h.algebra, h.coalgebra), "antipode": _matrix_entries(h.antipode)}


def _instance(obj, module: str, name: str) -> bool:
    """isinstance(obj, partialdual.<module>.<name>), without importing the
    module: until it is imported, no object of its classes exists."""
    loaded = sys.modules.get(f"partialdual.{module}")
    return loaded is not None and isinstance(obj, getattr(loaded, name))


def serialize(obj) -> str:
    """Render any supported object as canonical document text."""
    if isinstance(obj, HopfAlgebra):
        doc = _envelope("hopf", obj.field.descriptor, {"dim": obj.dim}, _hopf_tensors(obj))
    elif _instance(obj, "coideal", "CoidealSubalgebra"):
        h = obj.parent
        tensors = _hopf_tensors(h)
        tensors["iota"] = _matrix_entries(obj.iota.matrix)
        doc = _envelope(
            "coideal", h.field.descriptor, {"dim": h.dim, "bdim": obj.dim}, tensors
        )
    elif _instance(obj, "pams", "Pams"):
        q = obj.quotient
        h = q.parent
        tensors = _hopf_tensors(h)
        tensors["iota"] = _matrix_entries(q.coideal.iota.matrix)
        tensors["pi"] = _matrix_entries(q.pi.matrix)
        tensors["lift"] = _matrix_entries(q.lift.matrix)
        tensors["zeta"] = _matrix_entries(obj.zeta.matrix)
        doc = _envelope(
            "pams",
            h.field.descriptor,
            {"dim": h.dim, "bdim": q.coideal.dim, "cdim": q.dim},
            tensors,
        )
    elif _instance(obj, "partial_dual", "QuasiHopfAlgebra"):
        n, f = obj.dim, obj.field
        tensors = {
            **_parts(obj.algebra, obj.coalgebra, ("mult", "unit", "delta", "eps")),
            "phi": _entries(f, obj.int_phi, (n, n, n)),
            "phi_inv": _entries(f, obj.int_phi_inv, (n, n, n)),
            "t": _matrix_entries(obj.t_map),
            "upsilon": _vector_entries(obj.upsilon),
        }
        doc = _envelope("quasi-hopf", f.descriptor, {"dim": n}, tensors)
    elif _instance(obj, "partial_dual", "CoquasiHopfAlgebra"):
        tensors = _parts(obj.algebra, obj.coalgebra)
        doc = _envelope("coquasi-hopf", obj.field.descriptor, {"dim": obj.dim}, tensors)
    elif _instance(obj, "examples", "MatchedPair"):
        return json.dumps({
            "format": FORMAT,
            "kind": "matched-pair",
            "field": obj.field.descriptor,
            "dims": {"f_order": obj.f.order, "g_order": obj.g.order},
            "tables": {
                "f": [list(row) for row in obj.f.table],
                "g": [list(row) for row in obj.g.table],
                "act_on_f": [list(row) for row in obj.act_on_f],
                "act_on_g": [list(row) for row in obj.act_on_g],
            },
        }, sort_keys=True, indent=1) + "\n"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return doc


def _envelope(kind: str, field: str, dims: dict, tensors: dict) -> str:
    """The document as json.dumps(sort_keys=True, indent=1) writes it: "tensors", its last key, from _entries."""
    head = json.dumps({"format": FORMAT, "kind": kind, "field": field, "dims": dims}, sort_keys=True, indent=1)
    body = ",\n".join(f"  {_quote(name)}: {text}" for name, text in sorted(tensors.items()))
    return f'{head[:-2]},\n "tensors": {{\n{body}\n }}\n}}\n'


def _want(doc: dict, key: str, typ, where: str):
    if key not in doc:
        raise DocumentError(f"{where}: missing key {key!r}")
    val = doc[key]
    if not isinstance(val, typ):
        raise DocumentError(f"{where}: key {key!r} has the wrong type")
    return val


def _read_entries(raw, shape: tuple, field: Field, name: str) -> dict:
    """Validate one sparse entry list against its shape; return idx -> scalar."""
    if not isinstance(raw, list):
        raise DocumentError(f"tensor {name!r}: entry list expected")
    seen: dict = {}
    rank = len(shape)
    for pos, item in enumerate(raw):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], list)
            or not isinstance(item[1], str)
        ):
            raise DocumentError(
                f"tensor {name!r} entry {pos}: expected [index-list, scalar-string]"
            )
        idx, scalar = item
        if len(idx) != rank or not all(isinstance(i, int) and not isinstance(i, bool) for i in idx):
            raise DocumentError(
                f"tensor {name!r} entry {pos}: index must be {rank} integers"
            )
        for axis, i in enumerate(idx):
            if not 0 <= i < shape[axis]:
                raise DocumentError(
                    f"tensor {name!r} entry {pos}: index {i} out of range for axis "
                    f"{axis} of extent {shape[axis]}"
                )
        key = tuple(idx)
        if key in seen:
            raise DocumentError(f"tensor {name!r}: duplicate index {key}")
        try:
            value = field.from_str(scalar)
        except ValueError as exc:
            raise DocumentError(f"tensor {name!r} entry {pos}: {exc}") from exc
        seen[key] = value
    return seen


def _read_flat(tensors: dict, name: str, dims: tuple, field: Field) -> Sparse:
    """One tensor's entries, validated against dims by _read_entries, as a flat (support, den) form."""
    entries = _read_entries(tensors.get(name, []), dims, field, name)
    strides = [prod(dims[leg + 1 :]) for leg in range(len(dims))]
    (support,), den = _int_supports(field, [[(sum(map(mul, index, strides)), x) for index, x in entries.items()]])
    return support, den


def _read_vector(tensors: dict, name: str, n: int, field: Field) -> Vector:
    return _dense(field, n, _read_flat(tensors, name, (n,), field))


def _read_matrix(tensors: dict, name: str, nrows: int, ncols: int, field: Field) -> Matrix:
    """The matrix of entries (r, c), read at r ncols + c and swapped to the column order of _matrix."""
    rows = _read_flat(tensors, name, (nrows, ncols), field)
    return _matrix(field, nrows, ncols, _permuted(rows, (nrows, ncols), (1, 0)))


def _read_part(part: type, tensors: dict, names: tuple[str, str], n: int, field: Field):
    """An Algebra or a Coalgebra from its cubic tensor and its vector, named by
    `names`: the tensor cut into the n n products or the n coproducts that _of takes."""
    parts = n * n if part is Algebra else n
    cut = _cut(_read_flat(tensors, names[0], (n, n, n), field), parts, n**3 // parts)
    return part._of(field, cut, _read_vector(tensors, names[1], n, field))


def _read_hopf(dims: dict, tensors: dict, field: Field) -> HopfAlgebra:
    n = _dim(dims, "dim")
    return HopfAlgebra(
        _read_part(Algebra, tensors, ("mult", "unit"), n, field),
        _read_part(Coalgebra, tensors, ("comult", "counit"), n, field),
        _read_matrix(tensors, "antipode", n, n, field),
    )


def _dim(dims: dict, key: str) -> int:
    val = _want(dims, key, int, "dims")
    if isinstance(val, bool) or val < 1:
        raise DocumentError(f"dims: {key} must be a positive integer")
    return val


def _read_int_table(tables: dict, name: str, nrows: int, ncols: int, bound: int) -> list:
    raw = _want(tables, name, list, "tables")
    if len(raw) != nrows:
        raise DocumentError(f"table {name!r}: expected {nrows} rows")
    out = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != ncols:
            raise DocumentError(f"table {name!r} row {r}: expected {ncols} integers")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < bound:
                raise DocumentError(f"table {name!r} row {r}: entry {v!r} out of range")
        out.append(list(row))
    return out


def parse(text: str, expect: str | None = None):
    """Decode document text into the object it describes.

    Raises DocumentError for anything malformed (with line and column
    for syntax errors), and for a document whose kind is not `expect`
    when one is given, before anything is certified.  Certification
    errors from the mathematical constructors propagate unchanged.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    fmt = _want(doc, "format", str, "document")
    if fmt != FORMAT:
        raise DocumentError(f"unsupported format {fmt!r}")
    kind = _want(doc, "kind", str, "document")
    if kind not in KINDS:
        raise DocumentError(f"unknown kind {kind!r}")
    if expect is not None and kind != expect:
        raise DocumentError(f"expected a {expect} document")
    try:
        field = field_from_descriptor(_want(doc, "field", str, "document"))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    dims = _want(doc, "dims", dict, "document")

    if kind == "matched-pair":
        from partialdual.examples import FiniteGroup, MatchedPair

        tables = _want(doc, "tables", dict, "document")
        nf = _dim(dims, "f_order")
        ng = _dim(dims, "g_order")
        f = FiniteGroup(_read_int_table(tables, "f", nf, nf, nf))
        g = FiniteGroup(_read_int_table(tables, "g", ng, ng, ng))
        return MatchedPair(
            f,
            g,
            _read_int_table(tables, "act_on_f", ng, nf, nf),
            _read_int_table(tables, "act_on_g", ng, nf, ng),
            field,
        )

    tensors = _want(doc, "tensors", dict, "document")
    if kind == "hopf":
        return _read_hopf(dims, tensors, field)
    if kind == "coideal":
        from partialdual.coideal import certify_coideal

        h = _read_hopf(dims, tensors, field)
        iota = LinMap(_read_matrix(tensors, "iota", h.dim, _dim(dims, "bdim"), field))
        return certify_coideal(h, iota)
    if kind == "pams":
        from partialdual.coideal import build_quotient, certify_coideal
        from partialdual.pams import certify_pams

        h = _read_hopf(dims, tensors, field)
        n = h.dim
        bdim = _dim(dims, "bdim")
        cdim = _dim(dims, "cdim")
        bsub = certify_coideal(h, LinMap(_read_matrix(tensors, "iota", n, bdim, field)))
        q = build_quotient(
            bsub,
            pi=LinMap(_read_matrix(tensors, "pi", cdim, n, field)),
            lift=LinMap(_read_matrix(tensors, "lift", n, cdim, field)),
        )
        return certify_pams(q, LinMap(_read_matrix(tensors, "zeta", bdim, n, field)))
    if kind == "quasi-hopf":
        from partialdual.partial_dual import QuasiHopfAlgebra, _derive_antipodes

        n = _dim(dims, "dim")
        alg = _read_part(Algebra, tensors, ("mult", "unit"), n, field)
        coalg = _read_part(Coalgebra, tensors, ("delta", "eps"), n, field)
        t_map = _read_matrix(tensors, "t", n, n, field)
        ups = _read_vector(tensors, "upsilon", n, field)
        return QuasiHopfAlgebra._of(
            alg,
            coalg,
            _read_flat(tensors, "phi", (n, n, n), field),
            _read_flat(tensors, "phi_inv", (n, n, n), field),
            t_map,
            ups,
            _derive_antipodes(alg, t_map, ups),
            None,
            Report("parsed quasi-Hopf algebra"),
        )
    # coquasi-hopf
    from partialdual.partial_dual import CoquasiHopfAlgebra

    n = _dim(dims, "dim")
    return CoquasiHopfAlgebra(
        _read_part(Coalgebra, tensors, ("comult", "counit"), n, field),
        _read_part(Algebra, tensors, ("mult", "unit"), n, field),
        None,
        Report("parsed coquasi-Hopf algebra"),
    )


def parse_matrix_text(text: str, field: Field) -> Matrix:
    """A bare matrix file: a JSON array of rows of scalar strings."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise DocumentError("matrix file must be a nonempty JSON array of rows")
    width = len(raw[0])
    rows = []
    for r, row in enumerate(raw):
        if len(row) != width:
            raise DocumentError(f"matrix row {r}: ragged width")
        out = []
        for c, scalar in enumerate(row):
            if not isinstance(scalar, str):
                raise DocumentError(f"matrix entry ({r},{c}): scalar string expected")
            try:
                out.append(field.from_str(scalar))
            except ValueError as exc:
                raise DocumentError(f"matrix entry ({r},{c}): {exc}") from exc
        rows.append(out)
    return Matrix(field, rows)
