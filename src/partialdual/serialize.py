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

The grammar and the shapes expected for each kind are documented in
FORMAT.md at the repository root.
"""

import json

from partialdual.coideal import CoidealSubalgebra, build_quotient, certify_coideal
from partialdual.examples import MatchedPair, FiniteGroup
from partialdual.hopf import Coalgebra, Algebra, HopfAlgebra, LinMap, Report, _support
from partialdual.linalg import Field, Matrix, Tensor3, Vector, field_from_descriptor
from partialdual.pams import Pams, certify_pams
from partialdual.partial_dual import (
    CoquasiHopfAlgebra,
    QuasiHopfAlgebra,
    _derive_antipodes,
)

__all__ = ["DocumentError", "parse", "parse_matrix_text", "serialize"]

FORMAT = "pams-cas/1"

KINDS = ("hopf", "coideal", "pams", "quasi-hopf", "coquasi-hopf", "matched-pair")


class DocumentError(ValueError):
    """A document that cannot be parsed: syntax, shape, or field errors."""


def _vector_entries(v: Vector) -> list:
    field = v.field
    return [[[i], field.to_str(c)] for i, c in enumerate(v.entries) if c]


def _matrix_entries(m: Matrix) -> list:
    field = m.field
    out = []
    for r in range(m.nrows):
        row = m.rows[r]
        for c in range(m.ncols):
            if row[c]:
                out.append([[r, c], field.to_str(row[c])])
    return out


def _tensor_entries(t: Tensor3) -> list:
    field = t.field
    return [[list(idx), field.to_str(c)] for idx, c in t.nonzero()]


def _flat_cube_entries(v: Vector, n: int) -> list:
    """A length n^3 vector written with unflattened three-part indices."""
    return [[list(index), v.field.to_str(c)] for index, c in _support(v, n, 3)]


def _hopf_tensors(h: HopfAlgebra) -> dict:
    return {
        "mult": _tensor_entries(h.mult),
        "unit": _vector_entries(h.unit),
        "comult": _tensor_entries(h.comult),
        "counit": _vector_entries(h.counit),
        "antipode": _matrix_entries(h.antipode),
    }


def serialize(obj) -> str:
    """Render any supported object as canonical document text."""
    if isinstance(obj, HopfAlgebra):
        doc = _envelope("hopf", obj.field.descriptor, {"dim": obj.dim}, _hopf_tensors(obj))
    elif isinstance(obj, CoidealSubalgebra):
        h = obj.parent
        tensors = _hopf_tensors(h)
        tensors["iota"] = _matrix_entries(obj.iota.matrix)
        doc = _envelope(
            "coideal", h.field.descriptor, {"dim": h.dim, "bdim": obj.dim}, tensors
        )
    elif isinstance(obj, Pams):
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
    elif isinstance(obj, QuasiHopfAlgebra):
        n = obj.dim
        tensors = {
            "mult": _tensor_entries(obj.algebra.mult),
            "unit": _vector_entries(obj.algebra.unit),
            "delta": _tensor_entries(obj.comult_tensor()),
            "eps": _vector_entries(obj.eps),
            "phi": _flat_cube_entries(obj.phi, n),
            "phi_inv": _flat_cube_entries(obj.phi_inv, n),
            "t": _matrix_entries(obj.t_map),
            "upsilon": _vector_entries(obj.upsilon),
        }
        doc = _envelope("quasi-hopf", obj.field.descriptor, {"dim": n}, tensors)
    elif isinstance(obj, CoquasiHopfAlgebra):
        tensors = {
            "comult": _tensor_entries(obj.coalgebra.comult),
            "counit": _vector_entries(obj.coalgebra.counit),
            "mult": _tensor_entries(obj.mult),
            "unit": _vector_entries(obj.unit),
        }
        doc = _envelope("coquasi-hopf", obj.field.descriptor, {"dim": obj.dim}, tensors)
    elif isinstance(obj, MatchedPair):
        doc = {
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
        }
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _envelope(kind: str, field: str, dims: dict, tensors: dict) -> dict:
    return {"format": FORMAT, "kind": kind, "field": field, "dims": dims, "tensors": tensors}


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
        if len(idx) != rank or not all(isinstance(i, int) for i in idx):
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


def _read_vector(tensors: dict, name: str, n: int, field: Field) -> Vector:
    entries = _read_entries(tensors.get(name, []), (n,), field, name)
    out = [field.zero] * n
    for (i,), c in entries.items():
        out[i] = c
    return Vector(field, out)


def _read_matrix(tensors: dict, name: str, nrows: int, ncols: int, field: Field) -> Matrix:
    entries = _read_entries(tensors.get(name, []), (nrows, ncols), field, name)
    rows = [[field.zero] * ncols for _ in range(nrows)]
    for (r, c), v in entries.items():
        rows[r][c] = v
    return Matrix(field, rows)


def _read_tensor(tensors: dict, name: str, dims: tuple, field: Field) -> Tensor3:
    entries = _read_entries(tensors.get(name, []), dims, field, name)
    return Tensor3.from_entries(field, dims, list(entries.items()))


def _read_cube_vector(tensors: dict, name: str, n: int, field: Field) -> Vector:
    entries = _read_entries(tensors.get(name, []), (n, n, n), field, name)
    out = [field.zero] * (n ** 3)
    for (i, j, k), c in entries.items():
        out[i * n * n + j * n + k] = c
    return Vector(field, out)


def _read_hopf(dims: dict, tensors: dict, field: Field) -> HopfAlgebra:
    n = _dim(dims, "dim")
    return HopfAlgebra(
        field,
        _read_tensor(tensors, "mult", (n, n, n), field),
        _read_vector(tensors, "unit", n, field),
        _read_tensor(tensors, "comult", (n, n, n), field),
        _read_vector(tensors, "counit", n, field),
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


def parse(text: str):
    """Decode document text into the object it describes.

    Raises DocumentError for anything malformed (with line and column
    for syntax errors) and lets certification errors from the
    mathematical constructors propagate unchanged.
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
    try:
        field = field_from_descriptor(_want(doc, "field", str, "document"))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    dims = _want(doc, "dims", dict, "document")

    if kind == "matched-pair":
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
        h = _read_hopf(dims, tensors, field)
        iota = LinMap(_read_matrix(tensors, "iota", h.dim, _dim(dims, "bdim"), field))
        return certify_coideal(h, iota)
    if kind == "pams":
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
        n = _dim(dims, "dim")
        alg = Algebra(
            field,
            _read_tensor(tensors, "mult", (n, n, n), field),
            _read_vector(tensors, "unit", n, field),
        )
        dtens = _read_tensor(tensors, "delta", (n, n, n), field)
        delta = Matrix.from_columns(
            field,
            [
                Vector(
                    field,
                    [dtens[i, j, k] for j in range(n) for k in range(n)],
                )
                for i in range(n)
            ],
            nrows=n * n,
        )
        t_map = _read_matrix(tensors, "t", n, n, field)
        ups = _read_vector(tensors, "upsilon", n, field)
        return QuasiHopfAlgebra(
            alg,
            delta,
            _read_vector(tensors, "eps", n, field),
            _read_cube_vector(tensors, "phi", n, field),
            _read_cube_vector(tensors, "phi_inv", n, field),
            t_map,
            ups,
            _derive_antipodes(alg, t_map, ups),
            None,
            Report("parsed quasi-Hopf algebra"),
        )
    # coquasi-hopf
    n = _dim(dims, "dim")
    coalg = Coalgebra(
        field,
        _read_tensor(tensors, "comult", (n, n, n), field),
        _read_vector(tensors, "counit", n, field),
    )
    return CoquasiHopfAlgebra(
        coalg,
        _read_tensor(tensors, "mult", (n, n, n), field),
        _read_vector(tensors, "unit", n, field),
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
