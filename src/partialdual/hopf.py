"""Finite-dimensional Hopf algebras as structure constants.

Conventions, fixed once for the whole package:

* multiplication tensor m: e_i e_j = sum_k m[i,j,k] e_k
* comultiplication tensor d: Delta(e_i) = sum_{j,k} d[i,j,k] e_j (x) e_k
* linear maps store the matrix whose columns are images of basis vectors
* the dual basis of H* is indexed like the basis of H, and tensor legs
  flatten row-major: index of e_i (x) e_j in H (x) H is i*dim + j

Verification routines return a Report listing every identity checked;
certification routines raise CertificationError carrying the failed
check and a witness.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from partialdual.linalg import (
    Field,
    Matrix,
    Scalar,
    Tensor3,
    Vector,
    contract,
    solve,
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
    """Unital associative algebra given by structure constants."""

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
        # terms[i][j] lists the nonzero (k, m[i,j,k]) of e_i e_j
        terms = tuple(
            tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in plane)
            for plane in mult.data
        )
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Algebra is immutable")

    def multiply(self, u: Vector, v: Vector) -> Vector:
        return contract(self.mult, 0, u).transpose() @ v

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
        x = solve(self.left_mult_matrix(u), self.unit)
        return x is not None and self.multiply(x, u) == self.unit

    def basis(self, i: int) -> Vector:
        return Vector.basis(self.field, self.dim, i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.mult == other.mult and self.unit == other.unit

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim} over {self.field.descriptor})"


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
        return Vector(self.field, [x for row in m.rows for x in row])

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
# dims tuple (n_1, ..., n_k), flattened row-major.


def flat_nonzeros(v: Vector) -> Iterator[tuple[int, Scalar]]:
    for i, x in enumerate(v.entries):
        if x:
            yield i, x


def _decode(idx: int, dims: Sequence[int]) -> tuple[int, ...]:
    digits = []
    for n in reversed(dims):
        digits.append(idx % n)
        idx //= n
    return tuple(reversed(digits))


def _encode(digits: Sequence[int], dims: Sequence[int]) -> int:
    idx = 0
    for d, n in zip(digits, dims):
        idx = idx * n + d
    return idx


def tensor_of(vectors: Sequence[Vector]) -> Vector:
    out = vectors[0]
    for v in vectors[1:]:
        out = out.tensor(v)
    return out


def tensor_apply(u: Vector, dims: Sequence[int], leg: int, m: Matrix) -> Vector:
    """Apply a matrix to one leg of a flat tensor."""
    dims = tuple(dims)
    if m.ncols != dims[leg]:
        raise ValueError(f"matrix acts on dimension {m.ncols}, leg has {dims[leg]}")
    new_dims = dims[:leg] + (m.nrows,) + dims[leg + 1 :]
    total = 1
    for n in new_dims:
        total *= n
    out = [u.field.zero] * total
    for idx, c in flat_nonzeros(u):
        digits = _decode(idx, dims)
        col = digits[leg]
        for r in range(m.nrows):
            x = m.rows[r][col]
            if x:
                new_digits = digits[:leg] + (r,) + digits[leg + 1 :]
                j = _encode(new_digits, new_dims)
                out[j] = out[j] + c * x
    return Vector(u.field, out)


def tensor_functional(u: Vector, dims: Sequence[int], leg: int, phi: Vector) -> Vector:
    """Pair one leg against a functional, removing that leg."""
    dims = tuple(dims)
    if len(phi) != dims[leg]:
        raise ValueError(f"functional has length {len(phi)}, leg has {dims[leg]}")
    new_dims = dims[:leg] + dims[leg + 1 :]
    total = 1
    for n in new_dims:
        total *= n
    out = [u.field.zero] * total
    for idx, c in flat_nonzeros(u):
        digits = _decode(idx, dims)
        w = phi[digits[leg]]
        if w:
            j = _encode(digits[:leg] + digits[leg + 1 :], new_dims)
            out[j] = out[j] + c * w
    return Vector(u.field, out)


def tensor_permute(u: Vector, dims: Sequence[int], perm: Sequence[int]) -> Vector:
    """Reorder legs: new leg l carries what old leg perm[l] carried."""
    dims = tuple(dims)
    new_dims = tuple(dims[p] for p in perm)
    total = 1
    for n in new_dims:
        total *= n
    out = [u.field.zero] * total
    for idx, c in flat_nonzeros(u):
        digits = _decode(idx, dims)
        out[_encode(tuple(digits[p] for p in perm), new_dims)] = c
    return Vector(u.field, out)


def _prefix_tree(v: Vector, n: int, k: int) -> dict:
    """Nonzeros of a flat k-leg tensor as nested dicts, one level per leg:
    tree[d_0][d_1]...[d_{k-1}] is the coefficient of e_{d_0} (x) ... (x) e_{d_{k-1}}."""
    dims = (n,) * k
    tree: dict = {}
    for idx, c in flat_nonzeros(v):
        node = tree
        *head, last = _decode(idx, dims)
        for d in head:
            node = node.setdefault(d, {})
        node[last] = c
    return tree


def power_multiply(algebra: Algebra, k: int, u: Vector, v: Vector) -> Vector:
    """Product in the k-fold tensor power algebra, elements flat of length dim**k."""
    field = algebra.field
    if k == 0:
        return Vector(field, [u[0] * v[0]])
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
    return Vector(field, out)


def power_unit(algebra: Algebra, k: int) -> Vector:
    return tensor_of([algebra.unit] * k)


def tensor_comult_leg(coalgebra: Coalgebra, u: Vector, dims: Sequence[int], leg: int) -> Vector:
    """Apply the comultiplication to one leg, splitting it in two."""
    dims = tuple(dims)
    n = coalgebra.dim
    if dims[leg] != n:
        raise ValueError(f"leg {leg} has dimension {dims[leg]}, coalgebra has {n}")
    new_dims = dims[:leg] + (n, n) + dims[leg + 1 :]
    total = 1
    for m in new_dims:
        total *= m
    out = [u.field.zero] * total
    comult = coalgebra.comult.data
    for idx, c in flat_nonzeros(u):
        digits = _decode(idx, dims)
        plane = comult[digits[leg]]
        for j in range(n):
            row = plane[j]
            for k2 in range(n):
                if row[k2]:
                    nd = digits[:leg] + (j, k2) + digits[leg + 1 :]
                    t = _encode(nd, new_dims)
                    out[t] = out[t] + c * row[k2]
    return Vector(u.field, out)


# --- Hopf verification ---------------------------------------------------------


def verify_algebra(a: Algebra, report: Report, prefix: str = "") -> None:
    f = a.field
    n = a.dim
    es = [a.basis(i) for i in range(n)]
    ok = True
    witness = ""
    for i in range(n):
        for j in range(n):
            ij = a.multiply(es[i], es[j])
            for k in range(n):
                lhs = a.multiply(ij, es[k])
                rhs = a.multiply(es[i], a.multiply(es[j], es[k]))
                if lhs != rhs:
                    ok = False
                    witness = (
                        f"(e{i} e{j}) e{k} != e{i} (e{j} e{k}); "
                        + vector_witness(f, lhs, rhs)
                    )
                    break
            if not ok:
                break
        if not ok:
            break
    report.add(prefix + "associativity", ok, witness)

    ok = True
    witness = ""
    for i in range(n):
        left = a.multiply(a.unit, es[i])
        right = a.multiply(es[i], a.unit)
        if left != es[i] or right != es[i]:
            ok = False
            witness = f"unit fails at e{i}"
            break
    report.add(prefix + "unit-law", ok, witness)


def verify_coalgebra(c: Coalgebra, report: Report, prefix: str = "") -> None:
    f = c.field
    n = c.dim
    ok = True
    witness = ""
    for i in range(n):
        d = c.comultiply_flat(c.basis(i))
        lhs = tensor_comult_leg(c, d, (n, n), 0)
        rhs = tensor_comult_leg(c, d, (n, n), 1)
        if lhs != rhs:
            ok = False
            witness = f"at e{i}: " + vector_witness(f, lhs, rhs)
            break
    report.add(prefix + "coassociativity", ok, witness)

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
    ok = True
    witness = ""
    for i in range(n):
        for j in range(n):
            lhs = c.comultiply_flat(a.multiply(es[i], es[j]))
            rhs = power_multiply(a, 2, deltas[i], deltas[j])
            if lhs != rhs:
                ok = False
                witness = f"Delta(e{i} e{j}): " + vector_witness(f, lhs, rhs)
                break
        if not ok:
            break
    report.add(prefix + "comult-algebra-map", ok, witness)

    report.add(
        prefix + "comult-unital",
        c.comultiply_flat(a.unit) == a.unit.tensor(a.unit),
        "Delta(1) != 1 (x) 1",
    )

    ok = True
    witness = ""
    for i in range(n):
        for j in range(n):
            lhs = c.counit_of(a.multiply(es[i], es[j]))
            rhs = c.counit[i] * c.counit[j]
            if lhs != rhs:
                ok = False
                witness = f"eps(e{i} e{j}) = {_fmt(f, lhs)} != {_fmt(f, rhs)}"
                break
        if not ok:
            break
    report.add(prefix + "counit-algebra-map", ok, witness)

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

    ok_l = True
    ok_r = True
    wit_l = ""
    wit_r = ""
    for i in range(n):
        e = h.basis(i)
        d = c.comultiply(e)
        acc_l = Vector.zero(f, n)
        acc_r = Vector.zero(f, n)
        for j in range(n):
            for k in range(n):
                x = d[j, k]
                if x:
                    acc_l = acc_l + a.multiply(s @ h.basis(j), h.basis(k)).scale(x)
                    acc_r = acc_r + a.multiply(h.basis(j), s @ h.basis(k)).scale(x)
        target = a.unit.scale(c.counit[i])
        if ok_l and acc_l != target:
            ok_l = False
            wit_l = f"at e{i}: " + vector_witness(f, acc_l, target)
        if ok_r and acc_r != target:
            ok_r = False
            wit_r = f"at e{i}: " + vector_witness(f, acc_r, target)
    report.add("antipode-left", ok_l, wit_l)
    report.add("antipode-right", ok_r, wit_r)

    ok = True
    witness = ""
    for i in range(n):
        for j in range(n):
            lhs = s @ a.multiply(h.basis(i), h.basis(j))
            rhs = a.multiply(s @ h.basis(j), s @ h.basis(i))
            if lhs != rhs:
                ok = False
                witness = f"S(e{i} e{j}) != S(e{j})S(e{i})"
                break
        if not ok:
            break
    report.add("antipode-anti-multiplicative", ok, witness)
    report.add("antipode-fixes-unit", s @ a.unit == a.unit, "S(1) != 1")

    ok = True
    witness = ""
    for i in range(n):
        lhs = c.comultiply_flat(s @ h.basis(i))
        swapped = tensor_permute(c.comultiply_flat(h.basis(i)), (n, n), (1, 0))
        rhs = tensor_apply(tensor_apply(swapped, (n, n), 0, s), (n, n), 1, s)
        if lhs != rhs:
            ok = False
            witness = f"Delta(S(e{i})): " + vector_witness(f, lhs, rhs)
            break
    report.add("antipode-anti-comultiplicative", ok, witness)
    report.add(
        "antipode-preserves-counit",
        Vector(f, [c.counit.dot(s @ h.basis(i)) for i in range(n)]) == c.counit,
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
    mult = Tensor3(
        f,
        [
            [[h.comult[k, i, j] for k in range(n)] for j in range(n)]
            for i in range(n)
        ],
    )
    comult = Tensor3(
        f,
        [
            [[h.mult[j, k, i] for k in range(n)] for j in range(n)]
            for i in range(n)
        ],
    )
    return HopfAlgebra(
        f,
        mult,
        Vector(f, h.counit.entries),
        comult,
        Vector(f, h.unit.entries),
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
        Matrix(
            a.field,
            [[u * e for e in c.counit.entries] for u in a.unit.entries],
            ncols=c.dim,
        )
    )


def convolution_product(f: LinMap, g: LinMap, c: Coalgebra, a: Algebra) -> LinMap:
    """(f * g)(x) = sum f(x_1) g(x_2) in Hom(C, A)."""
    if f.source != c.dim or g.source != c.dim:
        raise ValueError("convolution factors must be defined on the coalgebra")
    if f.target != a.dim or g.target != a.dim:
        raise ValueError("convolution factors must land in the algebra")
    cols = []
    for i in range(c.dim):
        acc = Vector.zero(a.field, a.dim)
        for (i0, j, k), x in _comult_row(c, i):
            acc = acc + a.multiply(f.column(j), g.column(k)).scale(x)
        cols.append(acc)
    return LinMap(Matrix.from_columns(a.field, cols, nrows=a.dim))


def _comult_row(c: Coalgebra, i: int):
    plane = c.comult.data[i]
    for j, row in enumerate(plane):
        for k, x in enumerate(row):
            if x:
                yield (i, j, k), x


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
    left_mults = [a.left_mult_matrix(f.column(j)) for j in range(nc)]
    rows = []
    rhs = []
    for i in range(nc):
        blocks = [Matrix.zeros(field, na, na) for _ in range(nc)]
        for (_, j, k), x in _comult_row(c, i):
            blocks[k] = blocks[k] + left_mults[j].scale(x)
        for r in range(na):
            rows.append([blocks[k].rows[r][b] for k in range(nc) for b in range(na)])
        target = a.unit.scale(c.counit[i])
        rhs.extend(target.entries)
    x = solve(Matrix(field, rows, ncols=nc * na), Vector(field, rhs))
    if x is None:
        raise CertificationError(
            "not-convolution-invertible",
            "f * X = unit has no solution",
        )
    cols = [
        Vector(field, [x[k * na + b] for b in range(na)]) for k in range(nc)
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
