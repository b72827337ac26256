"""Finite-dimensional Hopf algebras as structure constants.

Conventions, fixed once for the whole package:

* multiplication tensor m: e_i e_j = sum_k m[i,j,k] e_k
* comultiplication tensor d: Delta(e_i) = sum_{j,k} d[i,j,k] e_j (x) e_k
* linear maps store the matrix whose columns are images of basis vectors
* the dual basis of H* is indexed like the basis of H, and tensor legs
  flatten row-major: index of e_i (x) e_j in H (x) H is i*dim + j

An Algebra holds its product, and a Coalgebra its Delta, as one table
of ints in the sparse (support, den) form of a flat tensor: int_terms
and int_comult.  Every product, every tensor-power kernel and every
verifier reads these tables, and the transports rewrite them: dual
transposes them, opposite and coopposite swap their legs.  The dense
Tensor3 `mult` and `comult` are views, built on demand for the public
API; == compares the tables by value.  Documents are written from the
tables.  Every builder of the package, the examples and the document
reader included, hands its tables to the trusted _of constructors.  A
dense tensor is read only by the public constructors, kept for callers
outside the package, through _flat, which converts the nonzeros of a
Tensor3 row by row into one (support, den) form; _by regroups any table
by one of its legs.
_support lists the nonzeros of a flat tensor in (support, den) form with
their leg indices, for documents.  No other module decodes a flat index
by hand.

_power_product takes its operands as prefix trees (_tree), and gives its
product flat or as a tree; _split_tree splits a tree's leg by Delta into a
tree.  The tree of an operand used more than once is built once: the
Delta(e_i) of verify_compatibility, phi and phi^-1 of verify_quasi_bialgebra.

Verification routines return a Report listing every identity checked;
certification routines raise CertificationError carrying the failed
check and a witness.  Every check over an index grid, here and in the
certifiers of coideal, pams and partial_dual, is one _slice_mismatch: the
identity read as integer tables, one dict comparison per slice, and the
witness names the first failing index.  Each law of a map has one such
checker, _multiplicative or _comultiplicative, and every convolution
f * g is one _legs_product over each Delta(x).
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial, reduce
from math import isqrt, prod
from typing import Callable, Sequence

from partialdual.linalg import (
    Elimination,
    Field,
    Matrix,
    Scalar,
    Sparse,
    Tensor3,
    Vector,
    _Immutable,
    _columns,
    _comparable,
    _dense,
    _functional,
    _int_supports,
    _matrix,
    _same_field,
    _scalars,
    _sparse,
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
    "tensor_apply",
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


def _slice_mismatch(
    field: Field, witness: Callable[..., str], slices: Callable, size: int = 1, shape: Sequence[int] = ()
) -> tuple[bool, str]:
    """(ok, witness) of a table identity over a grid whose outermost index
    i runs over range(size), one dict comparison per slice.

    slices(i) gives both sides of slice i as (support, den), each key the
    rest of a cell's index and a coordinate of its value, flattened over
    `shape`; _comparable makes the supports equal exactly when the values
    agree.  In a slice that differs, the least differing key is the first
    failing cell in lexicographic order and its first differing
    coordinate; the witness is witness(i, *digits of that key, lhs, rhs)
    with the two values as field text.  That is the policy of every grid
    check: the first failure in lexicographic order wins, and a bound
    "... {0} ...".format serves a text that names only the index.
    """
    for i in range(size):
        (lhs, den), (rhs, _) = _comparable(field, *slices(i))
        if lhs != rhs:
            key = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
            values = map(field.to_str, field.from_ints([lhs.get(key, 0), rhs.get(key, 0)], den))
            digits = []
            for s in reversed(shape):
                key, d = divmod(key, s)
                digits.insert(0, d)
            return False, witness(i, *digits, *values)
    return True, ""


def _set_slots(obj: object, **parts: object) -> None:
    """Set the slots of an immutable object."""
    for name, value in parts.items():
        object.__setattr__(obj, name, value)


class LinMap(_Immutable):
    """A linear map between based spaces; columns of `matrix` are images."""

    __slots__ = ("matrix", "source", "target")

    def __init__(self, matrix: Matrix):
        _set_slots(self, matrix=matrix, source=matrix.ncols, target=matrix.nrows)

    @classmethod
    def identity(cls, field: Field, n: int) -> "LinMap":
        return cls(Matrix.identity(field, n))

    @property
    def field(self) -> Field:
        return self.matrix.field

    def __call__(self, v: Vector) -> Vector:
        return self.matrix @ v

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


class Algebra(_Immutable):
    """Unital algebra given by structure constants; verify_algebra checks
    associativity and the unit law.

    The product is stored once, as `int_terms` = (table, den), reduced by
    the field: (table[i][j], den) is e_i e_j in (support, den) form, and
    the view `mult` is built from it on each read.  The public
    constructor, for callers outside the package, checks a dense tensor
    and scans it once; every table built in the package, a builder's or
    a kernel output, enters through the trusted _of, which takes it as
    given.  `with_unit` is None until a pentagon stores _with_unit there.
    """

    __slots__ = ("field", "dim", "unit", "int_terms", "with_unit")

    def __init__(self, field: Field, mult: Tensor3, unit: Vector):
        n = mult.dims[0]
        if mult.dims != (n, n, n):
            raise ValueError(f"multiplication tensor must be cubic, got {mult.dims}")
        if mult.field is not field or unit.field is not field:
            raise ValueError("algebra data must live over the stated field")
        if len(unit) != n:
            raise ValueError("unit vector has the wrong length")
        self._hold(field, unit, _cut(_flat(mult), n * n, n))

    @classmethod
    def _of(cls, field: Field, table: tuple[Sequence[dict[int, int]], int], unit: Vector) -> "Algebra":
        """The algebra whose e_i e_j is (pairs[i dim + j], den) for table = (pairs, den),
        stored without a check: for kernel outputs and the tables of the builders only."""
        a = object.__new__(cls)
        a._hold(field, unit, table)
        return a

    def _hold(self, field: Field, unit: Vector, table: tuple[Sequence[dict[int, int]], int]) -> None:
        (pairs, den), n = table, len(unit)
        rows = tuple(tuple(map(field.reduce, pairs[i * n : (i + 1) * n])) for i in range(n))
        _set_slots(self, field=field, dim=n, unit=unit, int_terms=(rows, den), with_unit=None)

    @property
    def mult(self) -> Tensor3:
        """The multiplication tensor, built from int_terms."""
        n = self.dim
        return _tensor3(self.field, (n, n, n), _stacked(_pairs(self), n))

    def _operands(self, *vectors: Vector) -> None:
        for v in vectors:
            _same_field(self.field, v.field, "algebra and vector")
        if any(len(v) != self.dim for v in vectors):
            lengths = " and ".join(str(len(v)) for v in vectors)
            raise ValueError(f"cannot multiply vectors of lengths {lengths} in dimension {self.dim}")

    def multiply(self, u: Vector, v: Vector) -> Vector:
        """u v: _power_product over the nonzero coordinates of u and v."""
        self._operands(u, v)
        return _dense(self.field, self.dim, _power_product(self, 1, _sparse(u), _sparse(v)))

    def left_mult_matrix(self, u: Vector) -> Matrix:
        """Matrix of v -> u v: u on the first leg of every e_i e_j."""
        return self._mult_matrix(u, _flat_rows(self))

    def right_mult_matrix(self, v: Vector) -> Matrix:
        """Matrix of u -> u v: v on the second leg of every e_i e_j."""
        return self._mult_matrix(v, _flat_cols(self))

    def _mult_matrix(self, u: Vector, table: tuple[Sequence, int]) -> Matrix:
        n = self.dim
        self._operands(u)
        return _matrix(self.field, n, n, _leg_map(_sparse(u), (n,), 0, n * n, table))

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
        n = self.dim
        return self.unit == other.unit and _same_values(self.field, _stacked(_pairs(self), n), _stacked(_pairs(other), n))

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim} over {self.field.descriptor})"


class Coalgebra(_Immutable):
    """Comultiplication and counit by structure constants; Delta need not be
    coassociative (a quasi-Hopf algebra keeps its Delta here too), and
    verify_coalgebra checks that it is.  Delta is stored once, as
    `int_comult` = (images, den), reduced by the field: (images[i], den) is
    Delta(e_i) flat in (support, den) form, and the view `comult` is built
    from it.  The constructors are Algebra's."""

    __slots__ = ("field", "dim", "counit", "int_comult")

    def __init__(self, field: Field, comult: Tensor3, counit: Vector):
        n = comult.dims[0]
        if comult.dims != (n, n, n):
            raise ValueError(f"comultiplication tensor must be cubic, got {comult.dims}")
        if comult.field is not field or counit.field is not field:
            raise ValueError("coalgebra data must live over the stated field")
        if len(counit) != n:
            raise ValueError("counit vector has the wrong length")
        self._hold(field, counit, _cut(_flat(comult), n, n * n))

    @classmethod
    def _of(cls, field: Field, images: tuple[Sequence[dict[int, int]], int], counit: Vector) -> "Coalgebra":
        """The coalgebra whose Delta(e_i) is (images[0][i], images[1]), stored without
        a check: for kernel outputs and the tables of the builders only."""
        c = object.__new__(cls)
        c._hold(field, counit, images)
        return c

    def _hold(self, field: Field, counit: Vector, images: tuple[Sequence[dict[int, int]], int]) -> None:
        table = tuple(map(field.reduce, images[0])), images[1]
        _set_slots(self, field=field, dim=len(counit), counit=counit, int_comult=table)

    @property
    def comult(self) -> Tensor3:
        """The comultiplication tensor, built from int_comult."""
        n = self.dim
        return _tensor3(self.field, (n, n, n), _stacked(self.int_comult, n * n))

    def comultiply(self, v: Vector) -> Matrix:
        """Delta(v) as the matrix whose (j, k) entry is the e_j (x) e_k coefficient."""
        flat, n = self.comultiply_flat(v).entries, self.dim
        return Matrix._of(self.field, [flat[j * n : (j + 1) * n] for j in range(n)], n)

    def comultiply_flat(self, v: Vector) -> Vector:
        """Delta(v) flat in H (x) H: v_i times the nonzeros of int_comult[i], summed over the nonzero v_i."""
        _same_field(self.field, v.field, "coalgebra and vector")
        return _apply_leg(v, (self.dim,), 0, self.dim**2, self.int_comult)

    def counit_of(self, v: Vector) -> Scalar:
        return self.counit.dot(v)

    def basis(self, i: int) -> Vector:
        return Vector.basis(self.field, self.dim, i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coalgebra):
            return NotImplemented
        n = self.dim
        return self.counit == other.counit and _same_values(
            self.field, _stacked(self.int_comult, n * n), _stacked(other.int_comult, n * n)
        )

    def __repr__(self) -> str:
        return f"Coalgebra(dim={self.dim} over {self.field.descriptor})"


class HopfAlgebra(_Immutable):
    """A Hopf algebra held as its parts: an Algebra, a Coalgebra on the
    same space and an antipode matrix, as a QuasiHopfAlgebra holds them.

    Every builder constructs the parts itself, and every transport reuses
    the part it leaves unchanged.  Construction only checks that the
    parts fit together; run verify_hopf for the axioms.
    """

    __slots__ = ("field", "dim", "algebra", "coalgebra", "antipode", "name")

    def __init__(self, algebra: Algebra, coalgebra: Coalgebra, antipode: Matrix, name: str = ""):
        field, n = algebra.field, algebra.dim
        if coalgebra.field is not field or coalgebra.dim != n:
            raise ValueError("algebra and coalgebra differ in field or dimension")
        if antipode.field is not field or (antipode.nrows, antipode.ncols) != (n, n):
            raise ValueError("antipode matrix has the wrong shape or field")
        _set_slots(self, field=field, dim=n, algebra=algebra, coalgebra=coalgebra, antipode=antipode, name=name)

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
# dims tuple (n_1, ..., n_k), flattened row-major.  The tensor-power kernels
# _power_product, _leg_map (rewrite a leg), _permuted (reorder the legs) and
# _kron take and return the sparse form (support, den) of linalg, whose
# _sparse and _dense convert a Vector to and from it.  A table of leg images
# (table, den) holds one support per basis index, all over one den; _stacked
# and _cut turn it into one flat tensor and back.

def flat_nonzeros(v: Vector) -> list[tuple[int, Scalar]]:
    return [(i, x) for i, x in enumerate(v.entries) if x]


def _kron(u: Sparse, v: Sparse, width: int) -> Sparse:
    """u (x) v for v of length `width`: the support of v shifted to each index of u."""
    return {i * width + j: x * y for i, x in u[0].items() for j, y in v[0].items()}, u[1] * v[1]


def _support(s: Sparse, dims: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """The nonzeros of a flat tensor over legs of lengths dims, given in
    (support, den) form, as ((d_0, ..., d_{k-1}), x) for the coordinate
    x / den of e_{d_0} (x) ... (x) e_{d_{k-1}}, in flat (lexicographic) order."""
    strides = [prod(dims[leg + 1 :]) for leg in range(len(dims))]
    return [(tuple(idx // st % n for st, n in zip(strides, dims)), x) for idx, x in sorted(s[0].items())]


def _flat(t: Tensor3) -> Sparse:
    """The (support, den) form of t flat, row-major: its nonzeros only, read row by row."""
    rows, width = (row for plane in t.data for row in plane), t.dims[2]
    nonzeros = [(r * width + k, x) for r, row in enumerate(rows) for k, x in enumerate(row) if x]
    (support,), den = _int_supports(t.field, [nonzeros])
    return support, den


def _by(s: Sparse, dims: Sequence[int], perm: Sequence[int]) -> tuple[list[dict[int, int]], int]:
    """A flat tensor over legs of lengths dims as leg images from leg perm[0]:
    table[d] holds the nonzeros with index d there, the other legs in the
    order perm[1:], flattened.  _permuted, then _cut."""
    return _cut(_permuted(s, dims, perm), dims[perm[0]], prod(dims) // dims[perm[0]])


def _same_values(field: Field, lhs: Sparse, rhs: Sparse) -> bool:
    """Whether two (support, den) forms hold the same values, whatever their dens."""
    (left, _), (right, _) = _comparable(field, lhs, rhs)
    return left == right


def _leg_map(u: Sparse, dims: Sequence[int], leg: int, width: int, images: tuple[Sequence, int]) -> Sparse:
    """Replace one leg of a flat tensor by a leg of length `width`: for
    images = (table, den), e_d on that leg becomes (table[d], den)."""
    (support, du), (table, den) = u, images
    n, inner = dims[leg], prod(dims[leg + 1 :])
    out: dict[int, int] = defaultdict(int)
    if inner == 1:  # the last leg: e_d is the low digit, one divmod
        for idx, c in support.items():
            outer, d = divmod(idx, n)
            for r, w in table[d].items():
                out[outer * width + r] += c * w
        return out, du * den
    for idx, c in support.items():
        outer, rest = divmod(idx, n * inner)
        d, low = divmod(rest, inner)
        for r, w in table[d].items():
            out[(outer * width + r) * inner + low] += c * w
    return out, du * den


def _apply_leg(u: Vector, dims: Sequence[int], leg: int, width: int, images: tuple[Sequence, int]) -> Vector:
    if len(u) != prod(dims):
        raise ValueError(f"flat tensor has length {len(u)}, dims {dims} need {prod(dims)}")
    return _dense(u.field, len(u) // dims[leg] * width, _leg_map(_sparse(u), dims, leg, width, images))


def _tensor3(field: Field, dims: tuple[int, int, int], s: Sparse) -> Tensor3:
    """The Tensor3 of shape dims whose flat entries have the (support, den) form s."""
    planes, rows, width = dims
    flat = _dense(field, planes * rows * width, s).entries
    lines = [flat[k : k + width] for k in range(0, len(flat), width)]
    return Tensor3._of(field, (lines[i * rows : (i + 1) * rows] for i in range(planes)), dims)


def _stacked(images: tuple[Sequence, int], width: int) -> Sparse:
    """Leg images (table, den) as one two-leg tensor: table[d][r] at d width + r."""
    table, den = images
    return {d * width + r: x for d, image in enumerate(table) for r, x in image.items()}, den


def _cut(s: Sparse, parts: int, width: int) -> tuple[list[dict[int, int]], int]:
    """A flat tensor cut into `parts` consecutive slices of length `width`, as leg images: _stacked undone."""
    out: list[dict[int, int]] = [{} for _ in range(parts)]
    for idx, x in s[0].items():
        part, r = divmod(idx, width)
        out[part][r] = x
    return out, s[1]


def _transposed(images: tuple[Sequence, int], width: int) -> tuple[list[dict[int, int]], int]:
    """Leg images read the other way round: out[r] = {d: x} for each x at r < width of
    images[d].  So a coproduct table becomes the product table of the dual, and back."""
    return _by(_stacked(images, width), (len(images[0]), width), (1, 0))


def _table(images) -> tuple[list, int]:
    """(support, den) forms over one den as the leg images (table, den)."""
    images = list(images)
    return [s for s, _ in images], images[0][1]


def _then(f: tuple[Sequence, int], g: tuple[Sequence, int]) -> tuple[list, int]:
    """The leg images of g f from those of f and of g."""
    table, den = f
    return [_leg_map((image, 1), (len(g[0]),), 0, 1, g)[0] for image in table], den * g[1]


def tensor_apply(u: Vector, dims: Sequence[int], leg: int, m: Matrix) -> Vector:
    """Apply a matrix to one leg of a flat tensor."""
    if m.ncols != dims[leg]:
        raise ValueError(f"matrix acts on dimension {m.ncols}, leg has {dims[leg]}")
    _same_field(u.field, m.field, "tensor and matrix")
    return _apply_leg(u, dims, leg, m.nrows, _columns(m))


def _permuted(u: Sparse, dims: Sequence[int], perm: Sequence[int]) -> Sparse:
    """Reorder the legs of a flat tensor: new leg l carries what old leg perm[l] carried."""
    # stride[p]: the step of the new flat index per unit of old leg p
    stride = [0] * len(dims)
    step = 1
    for new_leg in reversed(range(len(perm))):
        stride[perm[new_leg]] = step
        step *= dims[perm[new_leg]]
    out = {}
    for idx, c in u[0].items():
        j = 0
        for p in reversed(range(len(dims))):
            idx, d = divmod(idx, dims[p])
            j += d * stride[p]
        out[j] = c
    return out, u[1]


def _tree(n: int, k: int, s: Sparse) -> Sparse:
    """The prefix tree of a flat tensor over k legs of length n, with its den:
    tree[d_0]...[d_{k-1}] is the int at e_{d_0} (x) ... (x) e_{d_{k-1}}."""
    strides = [n ** (k - 1 - leg) for leg in range(k - 1)]
    root: dict = {}
    for idx, c in s[0].items():
        node = root
        for st in strides:
            node = node.setdefault(idx // st % n, {})
        node[idx % n] = c
    return root, s[1]


def _split_tree(t: Sparse, k: int, leg: int, images: tuple[Sequence, int]) -> Sparse:
    """Delta on one leg of a k-level prefix tree, for a coproduct table images = (table, den), written
    straight into k + 1 levels; colliding images are summed exactly: _tree of _leg_map's flat form."""
    (table, den), n = images, len(images[0])

    def add(into: dict, sub: dict, w: int, depth: int) -> None:  # into += w sub, for sub of depth levels
        for d, x in sub.items():
            if depth == 1:
                into[d] = into.get(d, 0) + w * x
            else:
                add(into.setdefault(d, {}), x, w, depth - 1)

    def walk(node: dict, level: int) -> dict:
        if level < leg:
            return {d: walk(sub, level + 1) for d, sub in node.items()}
        out: dict = {}
        for d, sub in node.items():
            for r, w in table[d].items():
                into = out.setdefault(r // n, {})
                if level < k - 1:
                    add(into.setdefault(r % n, {}), sub, w, k - 1 - level)
                else:  # sub is the int at a leaf
                    into[r % n] = into.get(r % n, 0) + w * sub
        return out

    return walk(t[0], 0), t[1] * den


def _unit_leg(tree: dict, leg: int, n: int) -> dict:
    """The tree t with a unit leg, the index n of _with_unit, inserted before `leg`."""
    return {n: tree} if leg == 0 else {d: _unit_leg(sub, leg - 1, n) for d, sub in tree.items()}


def _with_unit(a: Algebra) -> Algebra:
    """a whose table has one more index n, for _power_product only: e_n = den_1 1
    for the unit's (support, den_1), and e_i e_n and e_n e_j are read from a's table."""
    n, (terms, den), one = a.dim, a.int_terms, (_sparse(a.unit)[0], 1)
    es = [({i: 1}, 1) for i in range(n)]
    rows = [[*row, _power_product(a, 1, e, one)[0]] for row, e in zip(terms, es)]
    rows.append([_power_product(a, 1, one, e)[0] for e in es])
    view = object.__new__(Algebra)
    _set_slots(view, field=a.field, dim=n, unit=a.unit, int_terms=(rows, den))
    return view


def _power_product(algebra: Algebra, k: int, u: Sparse, v: Sparse, tree: bool = False) -> Sparse:
    """u v in the k-fold tensor power, the result in (support, den) form reduced by the
    field, or with tree its prefix tree, for u and v given as the prefix trees of _tree,
    which at k = 1 are the supports themselves; a caller builds the tree of an operand it reuses once."""
    n, (terms, den) = algebra.dim, algebra.int_terms
    # out holds the ints by flat index, or with tree a tree of defaultdicts k levels deep
    out = reduce(lambda make, _: partial(defaultdict, make), range(k), int)() if tree else defaultdict(int)
    if k == 1:  # a plain double loop over the two supports
        for a, x in u[0].items():
            row = terms[a]
            for b, y in v[0].items():
                for t, w in row[b].items():
                    out[t] += x * y * w
        return algebra.field.reduce(out), u[1] * v[1] * den

    # both trees are walked in step, one leg per level; no pair is expanded
    # past a leg whose product is zero, and the operand coefficients are
    # multiplied only at the leaves, at node[offset + t] for the prefix (node,
    # offset, c): out at the flat index, or the result tree's node at leg t
    def descend(tu: dict, tv: dict, level: int, prefixes: list[tuple[dict, int, int]]) -> None:
        for a, su in tu.items():
            row = terms[a]
            for b, sv in tv.items():
                pair = row[b]
                if not pair:
                    continue
                if level < k - 1:
                    descend(su, sv, level + 1, [(node[off + t], 0, c * w) if tree else (node, (off + t) * n, c * w)
                                                for node, off, c in prefixes for t, w in pair.items()])
                    continue
                cuv = su * sv
                for node, off, c in prefixes:
                    for t, w in pair.items():
                        node[off + t] += cuv * c * w

    def reduced(node: dict, depth: int) -> dict:  # leaves reduced by the field, emptied nodes dropped, read nodes let go
        return algebra.field.reduce(node) if depth == 1 else {
            d: sub for d in list(node) if (sub := reduced(node.pop(d), depth - 1))}

    descend(u[0], v[0], 0, [(out, 0, 1)])
    return reduced(out, k if tree else 1), u[1] * v[1] * den**k


def power_multiply(algebra: Algebra, k: int, u: Vector, v: Vector) -> Vector:
    """Product in the k-fold tensor power, elements flat of length dim**k: _power_product on (support, den) forms."""
    field = algebra.field
    _same_field(field, u.field, "algebra and vector")
    _same_field(field, v.field, "algebra and vector")
    if len(u) != algebra.dim**k or len(v) != algebra.dim**k:
        raise ValueError(f"operands of lengths {len(u)} and {len(v)}, the tensor power has {algebra.dim**k}")
    if k == 0:
        return Vector._of(field, [u[0] * v[0]])
    n = algebra.dim
    return _dense(field, n**k, _power_product(algebra, k, _tree(n, k, _sparse(u)), _tree(n, k, _sparse(v))))


def power_unit(algebra: Algebra, k: int) -> Vector:
    return tensor_of([algebra.unit] * k)


def tensor_comult_leg(coalgebra: Coalgebra, u: Vector, dims: Sequence[int], leg: int) -> Vector:
    """Apply the comultiplication to one leg, splitting it in two."""
    n = coalgebra.dim
    if dims[leg] != n:
        raise ValueError(f"leg {leg} has dimension {dims[leg]}, coalgebra has {n}")
    _same_field(coalgebra.field, u.field, "coalgebra and tensor")
    return _apply_leg(u, dims, leg, n * n, coalgebra.int_comult)


# --- Hopf verification ---------------------------------------------------------


def _pairs(a: Algebra) -> tuple[list, int]:
    """The multiplication as leg images from a leg of width n n: table[i n + j] = e_i e_j."""
    terms, den = a.int_terms
    return [pair for row in terms for pair in row], den


def _legs_product(u: Sparse, n: int, maps: Sequence, pairs: tuple[list, int]) -> Sparse:
    """sum c f_0(e_{d_0}) f_1(e_{d_1}) ... over the terms c e_{d_0} (x) e_{d_1} (x) ...
    of u, multiplied left to right through `pairs`: maps[l] is the (table, den) of
    f_l from legs of length n to the dimension of that algebra, None for the identity."""
    width = isqrt(len(pairs[0]))
    for leg, images in enumerate(maps):
        u = u if images is None else _leg_map(u, (n,) * len(maps), leg, width, images)
    for legs in range(len(maps), 1, -1):
        u = _leg_map(u, (width * width,) + (width,) * (legs - 2), 0, width, pairs)
    return u


def _scale(s: Sparse, x: int, den: int) -> Sparse:
    return {i: x * y for i, y in s[0].items()}, den * s[1]


def _unit_sides(a: Algebra) -> Callable[[int], tuple[Sparse, Sparse]]:
    """i -> both sides of (1 e_i, e_i 1) = (e_i, e_i), the pair stacked as keys (side, t)."""
    n, one = a.dim, _sparse(a.unit)

    def sides(i: int) -> tuple[Sparse, Sparse]:
        (left, d), (right, _) = _power_product(a, 1, one, ({i: 1}, 1)), _power_product(a, 1, ({i: 1}, 1), one)
        return ({**left, **{n + t: x for t, x in right.items()}}, d), ({i: 1, n + i: 1}, 1)

    return sides


def _flat_rows(a: Algebra) -> tuple[list[dict[int, int]], int]:
    """(table, den) with table[i] = {j n + k: m[i,j,k] den}: e_i e_j for every j, a two-leg tensor."""
    n, (terms, den) = a.dim, a.int_terms
    return [{j * n + k: x for j, pair in enumerate(row) for k, x in pair.items()} for row in terms], den


def _flat_cols(a: Algebra) -> tuple[list[dict[int, int]], int]:
    """(table, den) with table[k] = {m n + r: m[m,k,r] den}: e_m e_k for every m, the twin of _flat_rows."""
    n, (terms, den) = a.dim, a.int_terms
    return [{m * n + r: x for m in range(n) for r, x in terms[m][k].items()} for k in range(n)], den


def _multiplicative(
    rows: tuple[Sequence, int], m: Matrix, pairs: tuple[list, int], anti: bool = False,
    witness: Callable[..., str] = "pair ({0},{1})".format,
) -> tuple[bool, str]:
    """(ok, witness) of m(e_i e_j) = m(e_i) m(e_j), or m(e_j) m(e_i) with anti,
    for m from the algebra of _flat_rows `rows` to the one of _pairs `pairs`:
    slice i at (j, r), the r coordinate of both sides."""
    n, t, (table, den), cols = m.ncols, m.nrows, rows, _columns(m)

    def sides(i):  # m(e_j)_a m(e_i)_b (anti) or m(e_i)_a m(e_j)_b at (j, a, b), multiplied on the legs (a, b)
        both = {
            (j * t + a) * t + b: x * y
            for j, col in enumerate(cols[0])
            for a, x in (col if anti else cols[0][i]).items()
            for b, y in (cols[0][i] if anti else col).items()
        }
        lhs = _leg_map((table[i], den), (n, n), 1, t, cols)
        return lhs, _leg_map((both, cols[1] ** 2), (n, t * t), 1, t, pairs)

    return _slice_mismatch(m.field, witness, sides, n, (n, t))


def _comultiplicative(
    deltas: tuple[Sequence, int], m: Matrix, target: tuple[Sequence, int], flip: bool = False,
    witness: Callable[..., str] = "basis {0}".format,
) -> tuple[bool, str]:
    """(ok, witness) of (m (x) m) Delta(e_a) = Delta(m(e_a)), the legs of
    Delta(e_a) swapped with flip, for m between the coalgebras whose
    int_comult are deltas and target: slice a, every coordinate."""
    n, t, cols = m.ncols, m.nrows, _columns(m)
    images, den = deltas
    if flip:
        images = [_permuted((image, 1), (n, n), (1, 0))[0] for image in images]

    def sides(a):
        lhs = _leg_map(_leg_map((images[a], den), (n, n), 0, t, cols), (n, n), 1, t, cols)
        return lhs, _leg_map((cols[0][a], cols[1]), (t,), 0, t * t, target)

    return _slice_mismatch(m.field, witness, sides, n)


def verify_algebra(a: Algebra, report: Report) -> None:
    f, n = a.field, a.dim
    (terms, den), (rows, _) = a.int_terms, _flat_rows(a)
    whole = _stacked((rows, den), n * n)  # m[i,j,k] at (i, j, k)

    def sides(i):  # at (j, k, t): sum_p m[i,j,p] e_p e_k against sum_p m[j,k,p] e_i e_p
        lhs = _leg_map((rows[i], den), (n, n), 1, n * n, (rows, den))
        return lhs, _leg_map(whole, (n * n, n), 1, n, (terms[i], den))

    report.add("associativity", *_slice_mismatch(
        f, "(e{0} e{1}) e{2} != e{0} (e{1} e{2}); coordinate {3}: {4} != {5}".format, sides, n, (n, n, n)
    ))
    report.add("unit-law", *_slice_mismatch(f, "unit fails at e{0}".format, _unit_sides(a), n))


def verify_coalgebra(c: Coalgebra, report: Report) -> None:
    f, n = c.field, c.dim
    images, den = c.int_comult
    report.add("coassociativity", *_slice_mismatch(
        f, "at e{0}: coordinate {1}: {2} != {3}".format,
        lambda i: tuple(_leg_map((images[i], den), (n, n), leg, n * n, c.int_comult) for leg in (0, 1)),
        n, (n**3,),
    ))
    # slice l: eps applied to leg l of every Delta(e_i), at (i, t), against the identity
    whole = _stacked(c.int_comult, n * n)
    eye, eps = ({i * n + i: 1 for i in range(n)}, 1), _functional(c.counit)
    report.add("counit-law", *_slice_mismatch(
        f, "(eps (x) id)Delta or (id (x) eps)Delta is not the identity".format,
        lambda leg: (_leg_map(whole, (n, n, n), leg + 1, 1, eps), eye), 2,
    ))


def verify_compatibility(a: Algebra, c: Coalgebra, report: Report) -> None:
    """Delta and eps are unital algebra maps: the four compatibility
    checks shared by Hopf and quasi-Hopf verification."""
    f, n = a.field, a.dim
    (rows, mden), (images, cden) = _flat_rows(a), c.int_comult
    trees = [_tree(n, 2, (image, cden)) for image in images]

    def products(i):  # Delta(e_i) Delta(e_j) at (j, coordinate)
        out = [_power_product(a, 2, trees[i], d) for d in trees]
        return {j * n * n + k: x for j, (s, _) in enumerate(out) for k, x in s.items()}, out[0][1]

    # slice i: Delta of e_i e_j = sum_t m[i,j,t] e_t, applied to its one leg, for every j
    report.add("comult-algebra-map", *_slice_mismatch(
        f, "Delta(e{0} e{1}): coordinate {2}: {3} != {4}".format,
        lambda i: (_leg_map((rows[i], mden), (n, n), 1, n * n, c.int_comult), products(i)), n, (n, n * n),
    ))
    report.add("comult-unital", c.comultiply_flat(a.unit) == a.unit.tensor(a.unit), "Delta(1) != 1 (x) 1")
    # eps onto the field, whose one product is 1 1 = 1
    report.add("counit-algebra-map", *_multiplicative(
        (rows, mden), Matrix._of(f, [c.counit.entries], n), ([{0: 1}], 1), witness="eps(e{0} e{1}) = {3} != {4}".format
    ))
    report.add("counit-unital", c.counit_of(a.unit) == f.one, "eps(1) != 1")


def verify_quasi_bialgebra(a: Algebra, c: Coalgebra, phi_s: Sparse, bar_s: Sparse, report: Report) -> None:
    """The counit laws of a Delta that need not be coassociative, then the
    axioms of its associator phi, given with its inverse in (support, den)
    form: phi phi_inv = 1, normalization, quasi-coassociativity and the
    pentagon.  The trees of phi and phi^-1 are built once from their tables.
    Each split, of Delta(e_i) or of phi, is _split_tree of its tree and
    int_comult, and the pentagon's inner product goes on as the tree that
    _power_product writes; each holds the ints and den of _tree of its flat
    form, for a leaf sums the very terms that _leg_map or the flat product
    sums at its index, and the tree handed on is reduced as the flat one is.
    Each tree is let go once its product has read it.
    phi (x) 1 and 1 (x) phi stay on phi's three legs, the unit leg as the
    index n of _with_unit, built once per algebra into a.with_unit.  That is
    exact: x (phi (x) 1) = sum x^1 phi^1 (x) x^2 phi^2 (x) x^3 phi^3 (x) x^4 1
    with x^4 1 read from the product table, never taken to be x^4, so the
    ints and den are those of the expanded product."""
    f, n = a.field, a.dim
    images, dims2, dims3 = c.int_comult, (n, n), (n, n, n)
    deltas = [(image, images[1]) for image in images[0]]
    eps_images, one = _functional(c.counit), _sparse(a.unit)
    one2 = _kron(one, one, n)

    basis = "basis {0}".format
    for leg, side in ((0, "left"), (1, "right")):
        report.add(f"counit-law-{side}", *_slice_mismatch(
            f, basis, lambda i: (_leg_map(deltas[i], dims2, leg, 1, eps_images), ({i: 1}, 1)), n
        ))
    phi, bar = _tree(n, 3, phi_s), _tree(n, 3, bar_s)
    orders = ((phi, bar), (bar, phi))
    report.add("associator-invertible", *_slice_mismatch(
        f, "phi phi_inv != 1".format, lambda s: (_power_product(a, 3, *orders[s]), _kron(one2, one, n)), 2
    ))
    report.add("associator-normalized", *_slice_mismatch(
        f, "eps on a leg of phi".format, lambda leg: (_leg_map(phi_s, dims3, leg, 1, eps_images), one2), 3
    ))
    report.add("quasi-coassociativity", *_slice_mismatch(f, basis, lambda i: (
        _power_product(a, 3, phi, _split_tree(delta := _tree(n, 2, deltas[i]), 2, 0, images)),
        _power_product(a, 3, _split_tree(delta, 2, 1, images), phi),
    ), n))
    # (1 (x) phi)(id (x) Delta (x) id)(phi)(phi (x) 1) = (id (x) id (x) Delta)(phi)(Delta (x) id (x) id)(phi),
    # the right side first, so that the left side's split and inner tree meet only one side
    if a.with_unit is None:
        _set_slots(a, with_unit=_with_unit(a))
    au, (phi_1, one_phi) = a.with_unit, ((_unit_leg(phi[0], leg, n), phi[1] * one[1]) for leg in (3, 0))
    rhs = _power_product(a, 4, _split_tree(phi, 3, 2, images), _split_tree(phi, 3, 0, images))
    lhs = _power_product(au, 4, one_phi, _power_product(au, 4, _split_tree(phi, 3, 1, images), phi_1, tree=True))
    report.add("pentagon", *_slice_mismatch(f, "pentagon identity".format, lambda _: (lhs, rhs)))


def verify_hopf(h: HopfAlgebra) -> Report:
    """Check the Hopf axioms: the bialgebra checks, then S * id = eps 1 =
    id * S (antipode-left, antipode-right); returns the full report.

    Nothing else about S is checked, because the rest follows.  In a
    bialgebra whose S passes both antipode checks, S is an algebra
    anti-map with S(1) = 1, a coalgebra anti-map,
    Delta S = (S (x) S) Delta^op, and eps S = eps (Sweedler, Hopf
    Algebras, 1969, §4.0); and since H is finite-dimensional, S
    is bijective (Larson and Sweedler, Amer. J. Math. 91, 1969).  So
    antipode_inverse() cannot fail on an algebra that passes here.
    """
    f, n, a, c = h.field, h.dim, h.algebra, h.coalgebra
    report = Report(h.name or f"hopf algebra of dimension {n}")
    verify_algebra(a, report)
    verify_coalgebra(c, report)
    verify_compatibility(a, c, report)
    (images, cden), pairs, s, one = c.int_comult, _pairs(a), _columns(h.antipode), _sparse(a.unit)
    eps, eden = f.to_ints(c.counit.entries)
    # at e_i: sum over Delta(e_i) of S(e_j) e_k (left), e_j S(e_k) (right), against eps(e_i) 1
    for maps, side in (((s, None), "left"), ((None, s), "right")):
        report.add(f"antipode-{side}", *_slice_mismatch(
            f, "at e{0}: coordinate {1}: {2} != {3}".format,
            lambda i: (_legs_product((images[i], cden), n, maps, pairs), _scale(one, eps[i], eden)),
            n, (n,),
        ))
    return report


# --- structural duals -----------------------------------------------------------


def dual(h: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra on the dual basis; both parts are new.

    Products dualize comultiplication, (f_i f_j)(e_k) = (f_i (x) f_j)(Delta e_k),
    and comultiplication dualizes products: each table is the other one
    _transposed.  S^T is the antipode: under that pairing the identities
    S * id = eps 1 = id * S of End(H) transpose to S^T * id = eps 1 =
    id * S^T in End(H*) (Sweedler, Hopf Algebras, 1969).
    """
    n, f = h.dim, h.field
    return HopfAlgebra(
        Algebra._of(f, _transposed(h.coalgebra.int_comult, n * n), h.counit),
        Coalgebra._of(f, _transposed(_pairs(h.algebra), n), h.unit),
        h.antipode.transpose(),
        name=f"dual({h.name})" if h.name else "",
    )


def _opposite_algebra(a: Algebra) -> Algebra:
    """The product e_i .op e_j = e_j e_i: the legs of the table swapped."""
    terms, den = a.int_terms
    return Algebra._of(a.field, ([row[i] for i in range(a.dim) for row in terms], den), a.unit)


def _coopposite_coalgebra(c: Coalgebra) -> Coalgebra:
    """Delta^op: the two legs of every Delta(e_i) swapped."""
    (images, den), n = c.int_comult, c.dim
    return Coalgebra._of(c.field, ([_permuted((i, 1), (n, n), (1, 0))[0] for i in images], den), c.counit)


def opposite(h: HopfAlgebra) -> HopfAlgebra:
    """Reversed multiplication on the parent's Coalgebra; the antipode
    becomes its inverse.  S^{-1} is the antipode of H^op: S, an algebra
    anti-map, sends sum h_2 S^{-1}(h_1) to sum h_1 S(h_2) = eps(h) 1 (and
    the other side likewise), and S is bijective with S(1) = 1."""
    name = f"op({h.name})" if h.name else ""
    return HopfAlgebra(_opposite_algebra(h.algebra), h.coalgebra, h.antipode_inverse(), name)


def coopposite(h: HopfAlgebra) -> HopfAlgebra:
    """Reversed comultiplication on the parent's Algebra; the antipode
    becomes its inverse.  S^{-1} is the antipode of H^cop: S sends
    sum S^{-1}(h_2) h_1 to sum S(h_1) h_2 = eps(h) 1 (and the other side
    likewise), and S is bijective with S(1) = 1."""
    name = f"cop({h.name})" if h.name else ""
    return HopfAlgebra(h.algebra, _coopposite_coalgebra(h.coalgebra), h.antipode_inverse(), name)


def biopposite(h: HopfAlgebra) -> HopfAlgebra:
    """Both reversals, so both parts are new; the antipode survives
    unchanged.  S is the antipode of H^bop: its left identity there,
    sum S(h_2) .op h_1, is sum h_1 S(h_2) = eps(h) 1 in H, and the right
    one is S * id = eps 1 in H."""
    name = f"biop({h.name})" if h.name else ""
    return HopfAlgebra(_opposite_algebra(h.algebra), _coopposite_coalgebra(h.coalgebra), h.antipode, name)


# the rows of pams.induced_pams, named by the transport of H or of H* that
# carries each; defined here so the CLI offers them without importing pams
INDUCED_KINDS = ("identity", "op", "cop", "biop-dual", "cop-dual", "op-dual")


# --- convolution ----------------------------------------------------------------


def convolution_unit(c: Coalgebra, a: Algebra) -> LinMap:
    """The unit of the convolution algebra Hom(C, A): x -> eps(x) 1."""
    return LinMap(Matrix._of(a.field, [[u * e for e in c.counit.entries] for u in a.unit.entries], c.dim))


def convolution_product(f: LinMap, g: LinMap, c: Coalgebra, a: Algebra) -> LinMap:
    """(f * g)(x) = sum f(x_1) g(x_2) in Hom(C, A): _legs_product over each Delta(x)."""
    if f.source != c.dim or g.source != c.dim:
        raise ValueError("convolution factors must be defined on the coalgebra")
    if f.target != a.dim or g.target != a.dim:
        raise ValueError("convolution factors must land in the algebra")
    for part in (f, g, c):
        _same_field(a.field, part.field, "convolution factor and algebra")
    (images, den), maps, pairs = c.int_comult, (_columns(f.matrix), _columns(g.matrix)), _pairs(a)
    cols = [_dense(a.field, a.dim, _legs_product((image, den), c.dim, maps, pairs)).entries for image in images]
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
    nc, na, field = c.dim, a.dim, a.field
    # the unknown is X[k * na + b] = <e*_b, X(c_k)>; row (i, r) of f * X = unit is the r
    # coordinate of sum x f(c_j) X(c_k) over the terms x c_j (x) c_k of Delta(c_i): f(c_j) at
    # (s, k), e_s e_b at (b, r, k), then cut at r into rows over (k, b)
    (images, den), f_cols, rows_a = c.int_comult, _columns(f.matrix), _flat_rows(a)
    rows: list[dict] = []
    rhs = []
    for i, image in enumerate(images):
        u = _leg_map(_leg_map((image, den), (nc, nc), 0, na, f_cols), (na, nc), 0, na * na, rows_a)
        block, bden = _by(u, (na, na, nc), (1, 2, 0))
        rows += [_scalars(field, (row, bden)) for row in block]
        rhs.extend(a.unit.scale(c.counit[i]).entries)
    x = Elimination(field, nc * na, rows, [rhs]).solution()
    if x is None:
        raise CertificationError("not-convolution-invertible", "f * X = unit has no solution")
    inv = LinMap(Matrix._of(field, zip(*(x.entries[k * na : (k + 1) * na] for k in range(nc))), nc))
    if convolution_product(inv, f, c, a) != convolution_unit(c, a):
        raise CertificationError(
            "convolution-inverse-one-sided",
            "right convolution inverse is not a left inverse; "
            "the supplied (co)algebra data is inconsistent",
        )
    return inv
