"""Exact dense linear algebra over Q and prime fields.

Scalars are `fractions.Fraction` over Q and `ModInt` residues over F_p;
floating point is rejected outright.  All routines are deterministic:
row reduction scans columns left to right and always picks the topmost
usable row, so reduced forms, solution vectors and subspace bases are
canonical functions of their input.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "FieldMismatchError",
    "ModInt",
    "RationalField",
    "PrimeField",
    "QQ",
    "Field",
    "Scalar",
    "field_from_descriptor",
    "Vector",
    "Matrix",
    "Tensor3",
    "rref",
    "solve",
    "nullspace",
    "subspace_basis",
    "contract",
]


class FieldMismatchError(TypeError):
    """Raised when scalars or containers over different fields are mixed."""


def _reject_float(x: object) -> None:
    if isinstance(x, (float, complex)):
        raise TypeError(
            "floating point scalars are not supported; use Fraction or an integer"
        )


class ModInt:
    """A residue in F_p, stored as the canonical representative 0 <= v < p.

    Arithmetic is closed within a single modulus.  Mixing moduli, or
    mixing with rationals, raises FieldMismatchError; plain ints are
    coerced.  An int compares equal only to the residue of which it is
    the least representative, so that equal values hash equal.
    """

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int) -> None:
        self.v = v % p
        self.p = p

    def _lift(self, other: object) -> "ModInt":
        if isinstance(other, ModInt):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"cannot mix residues mod {self.p} and mod {other.p}"
                )
            return other
        if isinstance(other, int):
            return ModInt(other, self.p)
        if isinstance(other, Fraction):
            raise FieldMismatchError("cannot mix F_p and Q scalars")
        _reject_float(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object) -> "ModInt":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.v + other.v, self.p)

    __radd__ = __add__

    def __sub__(self, other: object) -> "ModInt":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.v - other.v, self.p)

    def __rsub__(self, other: object) -> "ModInt":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(other.v - self.v, self.p)

    def __mul__(self, other: object) -> "ModInt":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.v * other.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "ModInt":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return ModInt(self.v * pow(other.v, -1, self.p), self.p)

    def __rtruediv__(self, other: object) -> "ModInt":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, n: int) -> "ModInt":
        if n < 0:
            if self.v == 0:
                raise ZeroDivisionError(f"division by zero in F_{self.p}")
            return ModInt(pow(pow(self.v, -1, self.p), -n, self.p), self.p)
        return ModInt(pow(self.v, n, self.p), self.p)

    def __neg__(self) -> "ModInt":
        return ModInt(-self.v, self.p)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ModInt):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.v)

    def __bool__(self) -> bool:
        return self.v != 0

    def __repr__(self) -> str:
        return f"ModInt({self.v}, {self.p})"


Scalar = Union[Fraction, ModInt]

_Q_SCALAR = re.compile(r"^-?\d+(/[1-9]\d*)?$")
_FP_SCALAR = re.compile(r"^-?\d+$")


class RationalField:
    """The rational field; scalars are Fraction in lowest terms."""

    characteristic = 0
    descriptor = "Q"

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x: object) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, ModInt):
            raise FieldMismatchError("cannot use an F_p residue as a rational scalar")
        _reject_float(x)
        raise TypeError(f"cannot interpret {x!r} as a rational scalar")

    def from_str(self, s: str) -> Fraction:
        if not _Q_SCALAR.match(s):
            raise ValueError(f"malformed rational scalar {s!r}")
        return Fraction(s)

    def to_str(self, x: Fraction) -> str:
        return str(self.coerce(x))

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, isqrt(p) + 1))


class PrimeField:
    """The prime field F_p.  Instances are cached, one per modulus."""

    _cache: dict[int, "PrimeField"] = {}

    def __new__(cls, p: int) -> "PrimeField":
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus must be a prime integer, got {p!r}")
        inst = cls._cache.get(p)
        if inst is None:
            inst = super().__new__(cls)
            inst.p = p
            cls._cache[p] = inst
        return inst

    p: int

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def descriptor(self) -> str:
        return f"Fp:{self.p}"

    @property
    def zero(self) -> ModInt:
        return ModInt(0, self.p)

    @property
    def one(self) -> ModInt:
        return ModInt(1, self.p)

    def coerce(self, x: object) -> ModInt:
        if isinstance(x, ModInt):
            if x.p != self.p:
                raise FieldMismatchError(
                    f"residue mod {x.p} is not an element of F_{self.p}"
                )
            return x
        if isinstance(x, int):
            return ModInt(x, self.p)
        if isinstance(x, Fraction):
            raise FieldMismatchError("cannot use a rational scalar in F_p")
        _reject_float(x)
        raise TypeError(f"cannot interpret {x!r} as an F_{self.p} scalar")

    def from_str(self, s: str) -> ModInt:
        if not _FP_SCALAR.match(s):
            raise ValueError(f"malformed F_{self.p} scalar {s!r}")
        return ModInt(int(s), self.p)

    def to_str(self, x: ModInt) -> str:
        return str(self.coerce(x).v)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


Field = Union[RationalField, PrimeField]


def field_from_descriptor(desc: str) -> Field:
    """Parse a field descriptor: "Q" or "Fp:<prime>"."""
    if desc == "Q":
        return QQ
    if desc.startswith("Fp:"):
        tail = desc[3:]
        if not tail.isdigit():
            raise ValueError(f"malformed field descriptor {desc!r}")
        return PrimeField(int(tail))
    raise ValueError(f"unknown field descriptor {desc!r}")


def _same_field(a: Field, b: Field, what: str) -> None:
    if a is not b:
        raise FieldMismatchError(
            f"{what} over different fields: {a.descriptor} vs {b.descriptor}"
        )


class Vector:
    """Immutable dense vector over a fixed field."""

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: Iterable[object]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(
            self, "entries", tuple(field.coerce(x) for x in entries)
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Vector is immutable")

    @classmethod
    def zero(cls, field: Field, n: int) -> "Vector":
        return cls(field, [field.zero] * n)

    @classmethod
    def basis(cls, field: Field, n: int, i: int) -> "Vector":
        if not 0 <= i < n:
            raise IndexError(f"basis index {i} out of range for dimension {n}")
        entries = [field.zero] * n
        entries[i] = field.one
        return cls(field, entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Scalar]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Scalar:
        return self.entries[i]

    def __add__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        _same_field(self.field, other.field, "vectors")
        if len(self) != len(other):
            raise ValueError(f"vector lengths differ: {len(self)} vs {len(other)}")
        return Vector(self.field, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        _same_field(self.field, other.field, "vectors")
        if len(self) != len(other):
            raise ValueError(f"vector lengths differ: {len(self)} vs {len(other)}")
        return Vector(self.field, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Vector":
        return Vector(self.field, [-a for a in self.entries])

    def scale(self, c: object) -> "Vector":
        c = self.field.coerce(c)
        return Vector(self.field, [c * a for a in self.entries])

    def dot(self, other: "Vector") -> Scalar:
        _same_field(self.field, other.field, "vectors")
        if len(self) != len(other):
            raise ValueError(f"vector lengths differ: {len(self)} vs {len(other)}")
        acc = self.field.zero
        for a, b in zip(self.entries, other.entries):
            acc = acc + a * b
        return acc

    def tensor(self, other: "Vector") -> "Vector":
        """Kronecker product; index (i, j) maps to i*len(other) + j."""
        _same_field(self.field, other.field, "vectors")
        return Vector(
            self.field, [a * b for a in self.entries for b in other.entries]
        )

    def is_zero(self) -> bool:
        return not any(self.entries)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.entries) if a)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.field is other.field and self.entries == other.entries

    def __repr__(self) -> str:
        body = ", ".join(self.field.to_str(a) for a in self.entries)
        return f"Vector({self.field.descriptor}; [{body}])"


class Matrix:
    """Immutable dense matrix over a fixed field, stored row-major."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(
        self, field: Field, rows: Iterable[Iterable[object]], ncols: int | None = None
    ) -> None:
        coerced = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        if coerced:
            width = len(coerced[0])
            if any(len(r) != width for r in coerced):
                raise ValueError("matrix rows have unequal lengths")
        else:
            if ncols is None:
                raise ValueError("an empty matrix needs an explicit column count")
            width = ncols
        if ncols is not None and ncols != width:
            raise ValueError(f"expected {ncols} columns, rows have {width}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", coerced)
        object.__setattr__(self, "nrows", len(coerced))
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, [[field.zero] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(
            field,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
            ncols=n,
        )

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Vector], nrows: int | None = None) -> "Matrix":
        if columns:
            nrows = len(columns[0])
            for c in columns:
                _same_field(field, c.field, "matrix columns")
                if len(c) != nrows:
                    raise ValueError("columns have unequal lengths")
        elif nrows is None:
            raise ValueError("an empty column list needs an explicit row count")
        return cls(
            field,
            [[c[i] for c in columns] for i in range(nrows)],
            ncols=len(columns),
        )

    def row(self, i: int) -> Vector:
        return Vector(self.field, self.rows[i])

    def column(self, j: int) -> Vector:
        return Vector(self.field, [r[j] for r in self.rows])

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        _same_field(self.field, other.field, "matrices")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shapes differ")
        return Matrix(
            self.field,
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        _same_field(self.field, other.field, "matrices")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shapes differ")
        return Matrix(
            self.field,
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def scale(self, c: object) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, [[c * a for a in r] for r in self.rows], ncols=self.ncols)

    def __matmul__(self, other: object) -> "Matrix | Vector":
        if isinstance(other, Vector):
            _same_field(self.field, other.field, "matrix and vector")
            if self.ncols != len(other):
                raise ValueError(
                    f"cannot apply {self.nrows}x{self.ncols} matrix to length-{len(other)} vector"
                )
            zero = self.field.zero
            out = []
            for r in self.rows:
                acc = zero
                for a, b in zip(r, other.entries):
                    if a and b:
                        acc = acc + a * b
                out.append(acc)
            return Vector(self.field, out)
        if isinstance(other, Matrix):
            _same_field(self.field, other.field, "matrices")
            if self.ncols != other.nrows:
                raise ValueError(
                    f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
                )
            cols = list(zip(*other.rows)) if other.rows else []
            zero = self.field.zero
            out = []
            for r in self.rows:
                new_row = []
                for c in cols:
                    acc = zero
                    for a, b in zip(r, c):
                        if a and b:
                            acc = acc + a * b
                    new_row.append(acc)
                out.append(new_row)
            return Matrix(self.field, out, ncols=other.ncols)
        return NotImplemented

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def hstack(self, other: "Matrix") -> "Matrix":
        _same_field(self.field, other.field, "matrices")
        if self.nrows != other.nrows:
            raise ValueError("row counts differ")
        return Matrix(
            self.field,
            [list(r) + list(s) for r, s in zip(self.rows, other.rows)],
            ncols=self.ncols + other.ncols,
        )

    def rank(self) -> int:
        return len(rref(self)[1])

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be inverted")
        n = self.nrows
        aug, pivots = rref(self.hstack(Matrix.identity(self.field, n)))
        if pivots != tuple(range(n)):
            raise ValueError("matrix is not invertible")
        return Matrix(self.field, [r[n:] for r in aug.rows], ncols=n)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field is other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"Matrix({self.field.descriptor}; {self.nrows}x{self.ncols})"


class Tensor3:
    """Immutable rank-3 tensor, dense, indexed as T[i, j, k]."""

    __slots__ = ("field", "dims", "data")

    def __init__(
        self, field: Field, data: Sequence[Sequence[Sequence[object]]],
        dims: tuple[int, int, int] | None = None,
    ) -> None:
        coerced = tuple(
            tuple(tuple(field.coerce(x) for x in row) for row in plane)
            for plane in data
        )
        if coerced:
            d1 = len(coerced[0])
            d2 = len(coerced[0][0]) if d1 else 0
            if any(len(p) != d1 for p in coerced) or any(
                len(r) != d2 for p in coerced for r in p
            ):
                raise ValueError("ragged tensor data")
            shape = (len(coerced), d1, d2)
        else:
            if dims is None:
                raise ValueError("an empty tensor needs explicit dims")
            shape = dims
        if dims is not None and dims != shape:
            raise ValueError(f"expected dims {dims}, got {shape}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dims", shape)
        object.__setattr__(self, "data", coerced)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Tensor3 is immutable")

    @classmethod
    def zeros(cls, field: Field, dims: tuple[int, int, int]) -> "Tensor3":
        d0, d1, d2 = dims
        return cls(
            field,
            [[[field.zero] * d2 for _ in range(d1)] for _ in range(d0)],
            dims=dims,
        )

    @classmethod
    def from_entries(
        cls,
        field: Field,
        dims: tuple[int, int, int],
        entries: Iterable[tuple[tuple[int, int, int], object]],
    ) -> "Tensor3":
        d0, d1, d2 = dims
        data = [[[field.zero] * d2 for _ in range(d1)] for _ in range(d0)]
        for (i, j, k), x in entries:
            if not (0 <= i < d0 and 0 <= j < d1 and 0 <= k < d2):
                raise IndexError(f"tensor index ({i}, {j}, {k}) out of range for {dims}")
            data[i][j][k] = field.coerce(x)
        return cls(field, data, dims=dims)

    def __getitem__(self, ijk: tuple[int, int, int]) -> Scalar:
        i, j, k = ijk
        return self.data[i][j][k]

    def nonzero(self) -> Iterator[tuple[tuple[int, int, int], Scalar]]:
        for i, plane in enumerate(self.data):
            for j, row in enumerate(plane):
                for k, x in enumerate(row):
                    if x:
                        yield (i, j, k), x

    def flip01(self) -> "Tensor3":
        d0, d1, d2 = self.dims
        return Tensor3(
            self.field,
            [
                [[self.data[i][j][k] for k in range(d2)] for i in range(d0)]
                for j in range(d1)
            ],
            dims=(d1, d0, d2),
        )

    def flip12(self) -> "Tensor3":
        d0, d1, d2 = self.dims
        return Tensor3(
            self.field,
            [
                [[self.data[i][j][k] for j in range(d1)] for k in range(d2)]
                for i in range(d0)
            ],
            dims=(d0, d2, d1),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor3):
            return NotImplemented
        return (
            self.field is other.field
            and self.dims == other.dims
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"Tensor3({self.field.descriptor}; {self.dims[0]}x{self.dims[1]}x{self.dims[2]})"


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns.

    Column scan is left to right; within a column the topmost nonzero
    entry at or below the current row becomes the pivot.
    """
    rows = [list(r) for r in m.rows]
    pivots: list[int] = []
    lead = 0
    for col in range(m.ncols):
        pivot_row = None
        for r in range(lead, m.nrows):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        inv = m.field.one / rows[lead][col]
        rows[lead] = [inv * x for x in rows[lead]]
        for r in range(m.nrows):
            if r != lead and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == m.nrows:
            break
    return Matrix(m.field, rows, ncols=m.ncols), tuple(pivots)


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a @ x = b, or None when the system is inconsistent.

    Free variables are set to zero, which makes the returned solution
    canonical.
    """
    _same_field(a.field, b.field, "matrix and vector")
    if a.nrows != len(b):
        raise ValueError(f"matrix has {a.nrows} rows but vector has length {len(b)}")
    aug = a.hstack(Matrix(a.field, [[x] for x in b], ncols=1))
    reduced, pivots = rref(aug)
    if a.ncols in pivots:
        return None
    entries = [a.field.zero] * a.ncols
    for r, col in enumerate(pivots):
        entries[col] = reduced.rows[r][a.ncols]
    return Vector(a.field, entries)


def nullspace(a: Matrix) -> Matrix:
    """Canonical basis of the right kernel of a, one vector per row.

    Each free column contributes the vector with 1 there and the negated
    reduced-form column entries at the pivot positions.
    """
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    free = [j for j in range(a.ncols) if j not in pivot_set]
    rows = []
    for j in free:
        v = [a.field.zero] * a.ncols
        v[j] = a.field.one
        for r, col in enumerate(pivots):
            v[col] = -reduced.rows[r][j]
        rows.append(v)
    return Matrix(a.field, rows, ncols=a.ncols)


def subspace_basis(
    vectors: Iterable[Vector], field: Field | None = None, length: int | None = None
) -> Matrix:
    """Canonical basis of the span of the given vectors, one per row.

    The basis is the set of nonzero rows of the reduced row echelon form
    of the stacked input, so it depends only on the span.  An empty
    input needs field and length to fix the ambient space, and yields a
    0 x length matrix.
    """
    vecs = list(vectors)
    if vecs:
        field = vecs[0].field
        length = len(vecs[0])
        for v in vecs:
            _same_field(field, v.field, "spanning vectors")
            if len(v) != length:
                raise ValueError("spanning vectors have unequal lengths")
    elif field is None or length is None:
        raise ValueError("an empty spanning set needs explicit field and length")
    stacked = Matrix(field, [list(v) for v in vecs], ncols=length)
    reduced, pivots = rref(stacked)
    return Matrix(field, [reduced.rows[r] for r in range(len(pivots))], ncols=length)


def contract(t: Tensor3, axis: int, v: Vector) -> Matrix:
    """Contract one axis of a rank-3 tensor with a vector.

    The result keeps the remaining two axes in their original order:
    axis 0 gives R[j, k] = sum_i v_i T[i, j, k], and so on.
    """
    _same_field(t.field, v.field, "tensor and vector")
    d0, d1, d2 = t.dims
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    if len(v) != t.dims[axis]:
        raise ValueError(
            f"vector length {len(v)} does not match axis {axis} of size {t.dims[axis]}"
        )
    zero = t.field.zero
    if axis == 0:
        out = [[zero] * d2 for _ in range(d1)]
        for i, c in enumerate(v):
            if not c:
                continue
            plane = t.data[i]
            for j in range(d1):
                row = plane[j]
                for k in range(d2):
                    if row[k]:
                        out[j][k] = out[j][k] + c * row[k]
        return Matrix(t.field, out, ncols=d2)
    if axis == 1:
        out = [[zero] * d2 for _ in range(d0)]
        for j, c in enumerate(v):
            if not c:
                continue
            for i in range(d0):
                row = t.data[i][j]
                for k in range(d2):
                    if row[k]:
                        out[i][k] = out[i][k] + c * row[k]
        return Matrix(t.field, out, ncols=d2)
    out = [[zero] * d1 for _ in range(d0)]
    for k, c in enumerate(v):
        if not c:
            continue
        for i in range(d0):
            plane = t.data[i]
            for j in range(d1):
                if plane[j][k]:
                    out[i][j] = out[i][j] + c * plane[j][k]
    return Matrix(t.field, out, ncols=d1)
