"""Finite-dimensional Hopf algebras as structure constants.

Conventions, fixed once for the whole package:

* multiplication tensor m: e_i e_j = sum_k m[i,j,k] e_k
* comultiplication tensor d: Delta(e_i) = sum_{j,k} d[i,j,k] e_j (x) e_k
* linear maps store the matrix whose columns are images of basis vectors
* the dual basis of H* is indexed like the basis of H, and tensor legs
  flatten row-major: index of e_i (x) e_j in H (x) H is i*dim + j

Products read the nonzero structure constants: Algebra.terms lists, for
each pair of basis indices, the nonzero (k, m[i,j,k]), and Algebra.multiply
and power_multiply walk only the nonzero coordinates of their operands
against it; no n x n matrix is built for a product.  Flat sums of pure
tensors are built by linalg._kron_acc, which adds c (v_1 (x) ... (x) v_k)
into a flat coordinate list, and _leg_map rewrites one leg of a flat
tensor.  Flat tensors and structure tensors are read through three
decoders: _support lists the nonzeros of a flat k-leg tensor with their
leg indices, _weighted_sum adds up c term(indices) over such a list, and
_grouped lists the nonzeros of a Tensor3 grouped by one leg.  No other
module decodes a flat index by hand.

Verification routines return a Report listing every identity checked;
certification routines raise CertificationError carrying the failed
check and a witness.  A check over an index grid is one _first_mismatch
walk, whose witness names the first failing index.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import Callable, Iterator, Sequence

from partialdual.linalg import (
    Elimination,
    Field,
    Matrix,
    Scalar,
    Tensor3,
    Vector,
    _same_field,
    contract,
    solve,
    tensor_of,
)

__all__ = [
    "CertificationError",
    "Report",
    "LinMap",
    "Algebra",
    "Coalgebra",
    "HopfAlgebra",
    "verify_hopf",
    "dual",
    "opposite",
    "coopposite",
    "biopposite",
    "convolution_unit",
    "convolution_product",
    "convolution_inverse",
    "hit_left",
    "hit_right",
    "hit_actions",
    "tensor_apply",
    "tensor_functional",
    "tensor_permute",
    "power_multiply",
    "power_unit",
    "tensor_of",
    "flat_nonzeros",
]


class CertificationError(Exception):
    """A named identity failed (or an input was structurally invalid).

    `kind` is the stable name of the check, `witness` pins down a
    concrete counterexample, and `report`, when present, lists every
    identity that was evaluated before the failure surfaced.
    """

    def __init__(self, kind: str, witness: str = "", report: "Report | None" = None):
        self.kind = kind
        self.witness = witness
        self.report = report
        super().__init__(f"{kind}: {witness}" if witness else kind)


class Report:
    """An ordered list of named checks with pass/fail state and witnesses."""

    def __init__(self, title: str):
        self.title = title
        self.checks: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, witness: str = "") -> bool:
        self.checks.append((name, bool(ok), "" if ok else witness))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, witness) for name, ok, witness in self.checks if not ok]

    def lines(self) -> list[str]:
        out = []
        for name, ok, witness in self.checks:
            if ok:
                out.append(f"PASS {name}")
            else:
                out.append(f"FAIL {name}: {witness}" if witness else f"FAIL {name}")
        return out

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return "\n".join([f"{status} {self.title}"] + ["  " + l for l in self.lines()])

    def raise_if_failed(self) -> None:
        bad = self.failures()
        if bad:
            raise CertificationError(bad[0][0], bad[0][1], report=self)

    def __repr__(self) -> str:
        n_bad = len(self.failures())
        state = "ok" if not n_bad else f"{n_bad} failed"
        return f"Report({self.title!r}: {len(self.checks)} checks, {state})"


def _first_mismatch(witness: Callable[..., str], sides: Callable, *dims: int) -> tuple[bool, str]:
    """(ok, witness) of lhs == rhs for (lhs, rhs) = sides(*index) over the
    index grid range(dims[0]) x range(dims[1]) x ...

    The policy of every grid check: the grid is walked in lexicographic
    order and the first failure wins; its witness is
    witness(*index, lhs, rhs), and the walk stops there.  A bound
    "... {0} ...".format serves a text that names only the index.  With
    no dims, sides() is compared once.
    """
    for index in itertools.product(*map(range, dims)):
        lhs, rhs = sides(*index)
        if lhs != rhs:
            return False, witness(*index, lhs, rhs)
    return True, ""


def _fmt(field: Field, x: Scalar) -> str:
    return field.to_str(x)


def vector_witness(field: Field, lhs: Vector, rhs: Vector) -> str:
    """Locate the first differing coordinate of two vectors."""
    for i, (a, b) in enumerate(zip(lhs.entries, rhs.entries)):
        if a != b:
            return f"coordinate {i}: {_fmt(field, a)} != {_fmt(field, b)}"
    if len(lhs) != len(rhs):
        return f"lengths differ: {len(lhs)} vs {len(rhs)}"
    return "equal"


class LinMap:
    """A linear map between based spaces; columns of `matrix` are images."""

    __slots__ = ("matrix", "source", "target")

    def __init__(self, matrix: Matrix):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "source", matrix.ncols)
        object.__setattr__(self, "target", matrix.nrows)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LinMap is immutable")

    @classmethod
    def identity(cls, field: Field, n: int) -> "LinMap":
        return cls(Matrix.identity(field, n))

    @property
    def field(self) -> Field:
        return self.matrix.field

    def __call__(self, v: Vector) -> Vector:
        return self.matrix @ v

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other."""
        return LinMap(self.matrix @ other.matrix)

    def transpose(self) -> "LinMap":
        return LinMap(self.matrix.transpose())

    def column(self, j: int) -> Vector:
        return self.matrix.column(j)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinMap):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"LinMap({self.source} -> {self.target} over {self.field.descriptor})"


class Algebra:
    """Unital algebra given by structure constants; verify_algebra checks
    associativity and the unit law.

    `terms[i][j]` lists the nonzero (k, m[i,j,k]) of e_i e_j.  It is
    built once here, and every product (multiply, power_multiply) reads
    it instead of the dense tensor.
    """

    __slots__ = ("field", "dim", "mult", "unit", "terms")

    def __init__(self, field: Field, mult: Tensor3, unit: Vector):
        n = mult.dims[0]
        if mult.dims != (n, n, n):
            raise ValueError(f"multiplication tensor must be cubic, got {mult.dims}")
        if mult.field is not field or unit.field is not field:
            raise ValueError("algebra data must live over the stated field")
        if len(unit) != n:
            raise ValueError("unit vector has the wrong length")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "unit", unit)
        terms = tuple(
            tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in plane)
            for plane in mult.data
        )
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Algebra is immutable")

    def multiply(self, u: Vector, v: Vector) -> Vector:
        """u v: sums u_a v_b m[a,b,t] over the nonzero u_a, v_b and terms[a][b]."""
        field = self.field
        _same_field(field, u.field, "algebra and vector")
        _same_field(field, v.field, "algebra and vector")
        n = self.dim
        if len(u) != n or len(v) != n:
            raise ValueError(
                f"cannot multiply vectors of lengths {len(u)} and {len(v)} in dimension {n}"
            )
        return Vector._of(field, _terms_product(self.terms, field.zero, u.entries, v.entries))

    def left_mult_matrix(self, u: Vector) -> Matrix:
        """Matrix of v -> u v."""
        return contract(self.mult, 0, u).transpose()

    def right_mult_matrix(self, v: Vector) -> Matrix:
        """Matrix of u -> u v."""
        return contract(self.mult, 1, v).transpose()

    def element_inverse(self, u: Vector) -> Vector:
        """Two-sided inverse of u; raises ValueError when u is not a unit."""
        x = solve(self.left_mult_matrix(u), self.unit)
        if x is None or self.multiply(x, u) != self.unit:
            raise ValueError("element is not invertible")
        return x

    def is_invertible(self, u: Vector) -> bool:
        try:
            self.element_inverse(u)
        except ValueError:
            return False
        return True

    def basis(self, i: int) -> Vector:
        return Vector.basis(self.field, self.dim, i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.mult == other.mult and self.unit == other.unit

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim} over {self.field.descriptor})"


def _terms_product(
    terms: Sequence, zero: Scalar, u: Sequence[Scalar], v: Sequence[Scalar]
) -> list[Scalar]:
    """The product of two coordinate lists through an Algebra.terms table:
    sums u_a v_b m[a,b,t] over the nonzero u_a, v_b and terms[a][b]."""
    out = [zero] * len(terms)
    v_nonzeros = [(b, y) for b, y in enumerate(v) if y]
    for a, x in enumerate(u):
        if not x:
            continue
        row = terms[a]
        for b, y in v_nonzeros:
            pair = row[b]
            if not pair:
                continue
            xy = x * y
            for t, w in pair:
                out[t] = out[t] + xy * w
    return out


class Coalgebra:
    """Coassociative counital coalgebra given by structure constants."""

    __slots__ = ("field", "dim", "comult", "counit")

    def __init__(self, field: Field, comult: Tensor3, counit: Vector):
        n = comult.dims[0]
        if comult.dims != (n, n, n):
            raise ValueError(f"comultiplication tensor must be cubic, got {comult.dims}")
        if comult.field is not field or counit.field is not field:
            raise ValueError("coalgebra data must live over the stated field")
        if len(counit) != n:
            raise ValueError("counit vector has the wrong length")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "comult", comult)
        object.__setattr__(self, "counit", counit)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Coalgebra is immutable")

    def comultiply(self, v: Vector) -> Matrix:
        """Delta(v) as the matrix whose (j, k) entry is the e_j (x) e_k coefficient."""
        return contract(self.comult, 0, v)

    def comultiply_flat(self, v: Vector) -> Vector:
        m = self.comultiply(v)
        return Vector._of(self.field, [x for row in m.rows for x in row])

    def counit_of(self, v: Vector) -> Scalar:
        return self.counit.dot(v)

    def basis(self, i: int) -> Vector:
        return Vector.basis(self.field, self.dim, i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coalgebra):
            return NotImplemented
        return self.comult == other.comult and self.counit == other.counit

    def __repr__(self) -> str:
        return f"Coalgebra(dim={self.dim} over {self.field.descriptor})"


class HopfAlgebra:
    """A Hopf algebra presented by structure constants and an antipode matrix.

    Construction only checks shapes; run verify_hopf for the axioms.
    """

    __slots__ = ("field", "dim", "algebra", "coalgebra", "antipode", "name")

    def __init__(
        self,
        field: Field,
        mult: Tensor3,
        unit: Vector,
        comult: Tensor3,
        counit: Vector,
        antipode: Matrix,
        name: str = "",
    ):
        algebra = Algebra(field, mult, unit)
        coalgebra = Coalgebra(field, comult, counit)
        if coalgebra.dim != algebra.dim:
            raise ValueError("algebra and coalgebra dimensions differ")
        n = algebra.dim
        if antipode.field is not field or (antipode.nrows, antipode.ncols) != (n, n):
            raise ValueError("antipode matrix has the wrong shape or field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coalgebra", coalgebra)
        object.__setattr__(self, "antipode", antipode)
        object.__setattr__(self, "name", name)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("HopfAlgebra is immutable")

    @property
    def mult(self) -> Tensor3:
        return self.algebra.mult

    @property
    def unit(self) -> Vector:
        return self.algebra.unit

    @property
    def comult(self) -> Tensor3:
        return self.coalgebra.comult

    @property
    def counit(self) -> Vector:
        return self.coalgebra.counit

    def antipode_inverse(self) -> Matrix:
        return self.antipode.inverse()

    def basis(self, i: int) -> Vector:
        return Vector.basis(self.field, self.dim, i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HopfAlgebra):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.coalgebra == other.coalgebra
            and self.antipode == other.antipode
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"HopfAlgebra(dim={self.dim} over {self.field.descriptor}{label})"


# --- flat tensor utilities ----------------------------------------------------
#
# Elements of mixed tensor products V_1 (x) ... (x) V_k are flat Vectors with a
# dims tuple (n_1, ..., n_k), flattened row-major.  The leg functions below
# and the construction of the partial duals index them only through
# linalg._kron_acc (add a scaled pure tensor), _leg_map (rewrite a leg) and
# _support (list the nonzeros with their leg indices).


def flat_nonzeros(v: Vector) -> Iterator[tuple[int, Scalar]]:
    for i, x in enumerate(v.entries):
        if x:
            yield i, x


def _support(v: Vector, n: int, k: int) -> list[tuple[tuple[int, ...], Scalar]]:
    """The nonzeros of a flat k-leg tensor over legs of length n, as
    ((d_0, ..., d_{k-1}), c) for c e_{d_0} (x) ... (x) e_{d_{k-1}}, in
    flat (lexicographic) order."""
    strides = [n ** (k - 1 - leg) for leg in range(k)]
    return [(tuple(idx // s % n for s in strides), c) for idx, c in flat_nonzeros(v)]


def _weighted_sum(field: Field, n: int, support: Sequence, term: Callable[..., Vector]) -> Vector:
    """sum c term(*digits) over the (digits, c) of `support`, a vector of
    length n accumulated over the nonzeros of each term."""
    out = [field.zero] * n
    for digits, c in support:
        for t, x in enumerate(term(*digits).entries):
            if x:
                out[t] = out[t] + c * x
    return Vector._of(field, out)


def _grouped(t: Tensor3, axis: int) -> list[list[tuple[tuple[int, int], Scalar]]]:
    """The nonzeros of t grouped by their index on leg `axis`: entry d lists
    ((the other two indices), c) for the nonzeros with index d there, in
    lexicographic order."""
    out: list[list] = [[] for _ in range(t.dims[axis])]
    for index, c in t.nonzero():
        out[index[axis]].append((index[:axis] + index[axis + 1 :], c))
    return out


def _leg_map(
    u: Vector, dims: Sequence[int], leg: int, width: int, images: Sequence[Sequence[tuple[int, Scalar]]]
) -> Vector:
    """Replace one leg of a flat tensor by a leg of length `width`: e_d on
    that leg becomes sum c e_r over the (r, c) in images[d]."""
    if len(u) != prod(dims):
        raise ValueError(f"flat tensor has length {len(u)}, dims {dims} need {prod(dims)}")
    n, inner = dims[leg], prod(dims[leg + 1 :])
    out = [u.field.zero] * (len(u) // n * width)
    for idx, c in flat_nonzeros(u):
        outer, rest = divmod(idx, n * inner)
        d, low = divmod(rest, inner)
        for r, w in images[d]:
            j = (outer * width + r) * inner + low
            out[j] = out[j] + c * w
    return Vector._of(u.field, out)


def tensor_apply(u: Vector, dims: Sequence[int], leg: int, m: Matrix) -> Vector:
    """Apply a matrix to one leg of a flat tensor."""
    if m.ncols != dims[leg]:
        raise ValueError(f"matrix acts on dimension {m.ncols}, leg has {dims[leg]}")
    images = [[(r, row[d]) for r, row in enumerate(m.rows) if row[d]] for d in range(m.ncols)]
    return _leg_map(u, dims, leg, m.nrows, images)


def tensor_functional(u: Vector, dims: Sequence[int], leg: int, phi: Vector) -> Vector:
    """Pair one leg against a functional, removing that leg."""
    if len(phi) != dims[leg]:
        raise ValueError(f"functional has length {len(phi)}, leg has {dims[leg]}")
    return _leg_map(u, dims, leg, 1, [[(0, w)] if w else [] for w in phi.entries])


def tensor_permute(u: Vector, dims: Sequence[int], perm: Sequence[int]) -> Vector:
    """Reorder legs: new leg l carries what old leg perm[l] carried."""
    if len(u) != prod(dims):
        raise ValueError(f"flat tensor has length {len(u)}, dims {dims} need {prod(dims)}")
    if sorted(perm) != list(range(len(dims))):
        raise ValueError(f"{tuple(perm)} is not a permutation of the {len(dims)} legs")
    # stride[p]: the step of the new flat index per unit of old leg p
    stride = [0] * len(dims)
    step = 1
    for new_leg in reversed(range(len(perm))):
        stride[perm[new_leg]] = step
        step *= dims[perm[new_leg]]
    out = [u.field.zero] * len(u)
    for idx, c in flat_nonzeros(u):
        j = 0
        for p in reversed(range(len(dims))):
            idx, d = divmod(idx, dims[p])
            j += d * stride[p]
        out[j] = c
    return Vector._of(u.field, out)


def _prefix_tree(v: Vector, n: int, k: int) -> dict:
    """Nonzeros of a flat k-leg tensor as nested dicts, one level per leg:
    tree[d_0][d_1]...[d_{k-1}] is the coefficient of e_{d_0} (x) ... (x) e_{d_{k-1}}."""
    tree: dict = {}
    for digits, c in _support(v, n, k):
        node = tree
        for d in digits[:-1]:
            node = node.setdefault(d, {})
        node[digits[-1]] = c
    return tree


def power_multiply(algebra: Algebra, k: int, u: Vector, v: Vector) -> Vector:
    """Product in the k-fold tensor power algebra, elements flat of length dim**k."""
    field = algebra.field
    if k == 0:
        return Vector._of(field, [u[0] * v[0]])
    n = algebra.dim
    terms = algebra.terms
    out = [field.zero] * (n**k)

    # both operands are walked as prefix trees in step, one leg per level;
    # no pair is expanded past a leg whose product is zero, and the
    # operand coefficients are multiplied only at the leaves
    def descend(tu: dict, tv: dict, level: int, partial: list[tuple[int, Scalar]]) -> None:
        for a, su in tu.items():
            row = terms[a]
            for b, sv in tv.items():
                pair = row[b]
                if not pair:
                    continue
                grown = [(base * n + t, c * w) for base, c in partial for t, w in pair]
                if level < k - 1:
                    descend(su, sv, level + 1, grown)
                    continue
                cuv = su * sv
                for idx, c in grown:
                    out[idx] = out[idx] + cuv * c

    descend(_prefix_tree(u, n, k), _prefix_tree(v, n, k), 0, [(0, field.one)])
    return Vector._of(field, out)


def power_unit(algebra: Algebra, k: int) -> Vector:
    return tensor_of([algebra.unit] * k)


def tensor_comult_leg(coalgebra: Coalgebra, u: Vector, dims: Sequence[int], leg: int) -> Vector:
    """Apply the comultiplication to one leg, splitting it in two."""
    n = coalgebra.dim
    if dims[leg] != n:
        raise ValueError(f"leg {leg} has dimension {dims[leg]}, coalgebra has {n}")
    images = [
        [(j * n + k, x) for j, row in enumerate(plane) for k, x in enumerate(row) if x]
        for plane in coalgebra.comult.data
    ]
    return _leg_map(u, dims, leg, n * n, images)


# --- Hopf verification ---------------------------------------------------------


def verify_algebra(a: Algebra, report: Report, prefix: str = "") -> None:
    f = a.field
    n = a.dim
    es = [a.basis(i) for i in range(n)]
    prods = [[a.multiply(es[i], es[j]) for j in range(n)] for i in range(n)]
    report.add(prefix + "associativity", *_first_mismatch(
        lambda i, j, k, lhs, rhs: f"(e{i} e{j}) e{k} != e{i} (e{j} e{k}); " + vector_witness(f, lhs, rhs),
        lambda i, j, k: (a.multiply(prods[i][j], es[k]), a.multiply(es[i], prods[j][k])),
        n, n, n,
    ))
    report.add(prefix + "unit-law", *_first_mismatch(
        "unit fails at e{0}".format,
        lambda i: ((a.multiply(a.unit, es[i]), a.multiply(es[i], a.unit)), (es[i], es[i])),
        n,
    ))


def verify_coalgebra(c: Coalgebra, report: Report, prefix: str = "") -> None:
    f = c.field
    n = c.dim
    deltas = [c.comultiply_flat(c.basis(i)) for i in range(n)]
    report.add(prefix + "coassociativity", *_first_mismatch(
        lambda i, lhs, rhs: f"at e{i}: " + vector_witness(f, lhs, rhs),
        lambda i: (tensor_comult_leg(c, deltas[i], (n, n), 0), tensor_comult_leg(c, deltas[i], (n, n), 1)),
        n,
    ))

    left = contract(c.comult, 1, c.counit)
    right = contract(c.comult, 2, c.counit)
    eye = Matrix.identity(f, n)
    report.add(
        prefix + "counit-law",
        left == eye and right == eye,
        "(eps (x) id)Delta or (id (x) eps)Delta is not the identity",
    )


def verify_compatibility(
    a: Algebra, c: Coalgebra, report: Report, prefix: str = ""
) -> None:
    """Delta and eps are unital algebra maps: the four compatibility
    checks shared by Hopf and quasi-Hopf verification."""
    f = a.field
    n = a.dim
    es = [a.basis(i) for i in range(n)]
    deltas = [c.comultiply_flat(e) for e in es]
    prods = [[a.multiply(es[i], es[j]) for j in range(n)] for i in range(n)]
    report.add(prefix + "comult-algebra-map", *_first_mismatch(
        lambda i, j, lhs, rhs: f"Delta(e{i} e{j}): " + vector_witness(f, lhs, rhs),
        lambda i, j: (c.comultiply_flat(prods[i][j]), power_multiply(a, 2, deltas[i], deltas[j])),
        n, n,
    ))

    report.add(
        prefix + "comult-unital",
        c.comultiply_flat(a.unit) == a.unit.tensor(a.unit),
        "Delta(1) != 1 (x) 1",
    )

    report.add(prefix + "counit-algebra-map", *_first_mismatch(
        lambda i, j, lhs, rhs: f"eps(e{i} e{j}) = {_fmt(f, lhs)} != {_fmt(f, rhs)}",
        lambda i, j: (c.counit_of(prods[i][j]), c.counit[i] * c.counit[j]),
        n, n,
    ))

    report.add(
        prefix + "counit-unital",
        c.counit_of(a.unit) == f.one,
        "eps(1) != 1",
    )


def verify_bialgebra(
    a: Algebra, c: Coalgebra, report: Report, prefix: str = ""
) -> None:
    verify_algebra(a, report, prefix)
    verify_coalgebra(c, report, prefix)
    verify_compatibility(a, c, report, prefix)


def verify_hopf(h: HopfAlgebra) -> Report:
    """Check every bialgebra and antipode identity; returns the full report."""
    f = h.field
    n = h.dim
    a, c, s = h.algebra, h.coalgebra, h.antipode
    report = Report(h.name or f"hopf algebra of dimension {n}")
    verify_bialgebra(a, c, report)
    es = [h.basis(i) for i in range(n)]
    scols = [s.column(i) for i in range(n)]
    supports = _grouped(c.comult, 0)

    def convolved(i, u, v):  # (sum x u_j v_k over Delta(e_i), eps(e_i) 1)
        return _weighted_sum(f, n, supports[i], lambda j, k: a.multiply(u[j], v[k])), a.unit.scale(c.counit[i])

    def at_e(i, lhs, rhs):
        return f"at e{i}: " + vector_witness(f, lhs, rhs)

    report.add("antipode-left", *_first_mismatch(at_e, lambda i: convolved(i, scols, es), n))
    report.add("antipode-right", *_first_mismatch(at_e, lambda i: convolved(i, es, scols), n))
    report.add("antipode-anti-multiplicative", *_first_mismatch(
        "S(e{0} e{1}) != S(e{1})S(e{0})".format,
        lambda i, j: (s @ a.multiply(es[i], es[j]), a.multiply(scols[j], scols[i])),
        n, n,
    ))
    report.add("antipode-fixes-unit", s @ a.unit == a.unit, "S(1) != 1")

    def swapped_under_s(i):  # (S (x) S) of the flipped Delta(e_i)
        swapped = tensor_permute(c.comultiply_flat(es[i]), (n, n), (1, 0))
        return tensor_apply(tensor_apply(swapped, (n, n), 0, s), (n, n), 1, s)

    report.add("antipode-anti-comultiplicative", *_first_mismatch(
        lambda i, lhs, rhs: f"Delta(S(e{i})): " + vector_witness(f, lhs, rhs),
        lambda i: (c.comultiply_flat(scols[i]), swapped_under_s(i)),
        n,
    ))
    report.add(
        "antipode-preserves-counit",
        Vector._of(f, [c.counit.dot(scols[i]) for i in range(n)]) == c.counit,
        "eps after S != eps",
    )
    report.add("antipode-invertible", s.rank() == n, "antipode matrix is singular")
    return report


# --- structural duals -----------------------------------------------------------


def dual(h: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra on the dual basis.

    Products dualize comultiplication, (f_i f_j)(e_k) = (f_i (x) f_j)(Delta e_k),
    and comultiplication dualizes products.
    """
    n = h.dim
    f = h.field
    mult = Tensor3._of(
        f,
        [
            [[h.comult[k, i, j] for k in range(n)] for j in range(n)]
            for i in range(n)
        ],
        (n, n, n),
    )
    comult = Tensor3._of(
        f,
        [
            [[h.mult[j, k, i] for k in range(n)] for j in range(n)]
            for i in range(n)
        ],
        (n, n, n),
    )
    return HopfAlgebra(
        f,
        mult,
        h.counit,
        comult,
        h.unit,
        h.antipode.transpose(),
        name=f"dual({h.name})" if h.name else "",
    )


def opposite(h: HopfAlgebra) -> HopfAlgebra:
    """Reversed multiplication; the antipode becomes its inverse."""
    return HopfAlgebra(
        h.field,
        h.mult.flip01(),
        h.unit,
        h.comult,
        h.counit,
        h.antipode_inverse(),
        name=f"op({h.name})" if h.name else "",
    )


def coopposite(h: HopfAlgebra) -> HopfAlgebra:
    """Reversed comultiplication; the antipode becomes its inverse."""
    return HopfAlgebra(
        h.field,
        h.mult,
        h.unit,
        h.comult.flip12(),
        h.counit,
        h.antipode_inverse(),
        name=f"cop({h.name})" if h.name else "",
    )


def biopposite(h: HopfAlgebra) -> HopfAlgebra:
    """Both reversals; the antipode survives unchanged."""
    return HopfAlgebra(
        h.field,
        h.mult.flip01(),
        h.unit,
        h.comult.flip12(),
        h.counit,
        h.antipode,
        name=f"biop({h.name})" if h.name else "",
    )


# --- convolution ----------------------------------------------------------------


def convolution_unit(c: Coalgebra, a: Algebra) -> LinMap:
    """The unit of the convolution algebra Hom(C, A): x -> eps(x) 1."""
    return LinMap(
        Matrix._of(
            a.field,
            [[u * e for e in c.counit.entries] for u in a.unit.entries],
            c.dim,
        )
    )


def convolution_product(f: LinMap, g: LinMap, c: Coalgebra, a: Algebra) -> LinMap:
    """(f * g)(x) = sum f(x_1) g(x_2) in Hom(C, A)."""
    if f.source != c.dim or g.source != c.dim:
        raise ValueError("convolution factors must be defined on the coalgebra")
    if f.target != a.dim or g.target != a.dim:
        raise ValueError("convolution factors must land in the algebra")
    f_cols, g_cols = f.matrix.columns(), g.matrix.columns()
    cols = [
        _weighted_sum(a.field, a.dim, support, lambda j, k: a.multiply(f_cols[j], g_cols[k])).entries
        for support in _grouped(c.comult, 0)
    ]
    return LinMap(Matrix._of(a.field, zip(*cols), c.dim))


def convolution_inverse(f: LinMap, c: Coalgebra, a: Algebra) -> LinMap:
    """The two-sided convolution inverse of f in Hom(C, A).

    Solves f * X = unit as a linear system, then checks X * f = unit.
    A solvable one-sided system that fails the other side means the
    input data is not the (co)algebra pair it claims to be, so that is
    reported as its own kind of failure rather than non-invertibility.
    """
    if f.source != c.dim or f.target != a.dim:
        raise ValueError("map is not an element of Hom(C, A)")
    nc, na = c.dim, a.dim
    field = a.field
    zero = field.zero
    # the unknown is X[k * na + b] = <e*_b, X(c_k)>; row (i, r) of f * X = unit
    # sums x f[s, j] m[s, b, r] over the terms x c_j (x) c_k of Delta(c_i)
    f_rows = f.matrix.rows
    rows: list[dict] = []
    rhs = []
    for i, support in enumerate(_grouped(c.comult, 0)):
        block: list[dict] = [{} for _ in range(na)]
        for (j, k), x in support:
            for s in range(na):
                if not f_rows[s][j]:
                    continue
                w = x * f_rows[s][j]
                for b in range(na):
                    at = k * na + b
                    for r, y in a.terms[s][b]:
                        block[r][at] = block[r].get(at, zero) + w * y
        rows += block
        rhs.extend(a.unit.scale(c.counit[i]).entries)
    x = Elimination(field, nc * na, rows, [rhs]).solution()
    if x is None:
        raise CertificationError(
            "not-convolution-invertible",
            "f * X = unit has no solution",
        )
    cols = [
        Vector._of(field, x.entries[k * na : (k + 1) * na]) for k in range(nc)
    ]
    inv = LinMap(Matrix.from_columns(field, cols, nrows=na))
    check = convolution_product(inv, f, c, a)
    if check != convolution_unit(c, a):
        raise CertificationError(
            "convolution-inverse-one-sided",
            "right convolution inverse is not a left inverse; "
            "the supplied (co)algebra data is inconsistent",
        )
    return inv


# --- hit actions ------------------------------------------------------------------


def hit_left(h: HopfAlgebra, hstar: Vector, v: Vector) -> Vector:
    """The left hit of a functional on an element: sum v_1 <hstar, v_2>."""
    return h.coalgebra.comultiply(v) @ hstar


def hit_right(h: HopfAlgebra, v: Vector, hstar: Vector) -> Vector:
    """The right hit: sum <hstar, v_1> v_2."""
    return h.coalgebra.comultiply(v).transpose() @ hstar


def hit_actions(h: HopfAlgebra, hstar: Vector, v: Vector) -> tuple[Vector, Vector]:
    """Both hit actions of hstar on v, as (left hit, right hit)."""
    return hit_left(h, hstar, v), hit_right(h, v, hstar)
