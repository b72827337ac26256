"""Exact linear algebra over Q and prime fields.

Scalars are `fractions.Fraction` over Q and `ModInt` residues over F_p;
floating point is rejected outright.  Vectors, matrices and rank-3
tensors are stored dense; structure constants are not: an algebra or a
coalgebra of `hopf` holds one sparse integer table, described below, and
builds a `Tensor3` from it only as a view.

Scalars are coerced once, at the boundary.  The public constructors
`Vector(...)`, `Matrix(...)` and `Tensor3(...)` coerce and validate
every entry; parsing, the examples and the command line build their
vectors and matrices through them, tests and user code their tensors
too.  Outside this module no package code builds a `Tensor3` but the
dense views, through `hopf._tensor3`.  A result computed from
containers already over the field holds field scalars by construction,
since arithmetic among a field's scalars stays in the field, so every
kernel output is built by the private trusted constructors
`Vector._of`, `Matrix._of` and `Tensor3._of`, which store their entries
as given.  Kernel code
therefore starts every accumulator from `field.zero`, never from a bare
int, so that no `int` reaches a trusted constructor, and a copy of
another container's entries is built over that container's field, so
that data over a different field still meets a field check.  The
tensor-power kernels of `hopf` compute on the sparse form (support, den)
of a flat tensor instead, a coordinate being support[index] / den: a
field's `to_ints` gives ints over one denominator (residues over F_p,
numerators over the lcm of the denominators over Q), `reduce` reduces a
support (mod p) and drops its zeros, and `from_ints` builds a scalar per
nonzero result.  The helpers at the end of this module convert vectors,
matrices and groups of scalars to and from that form.  Only this module
reads what a scalar is made of.

Every linear system is solved by one sparse elimination, `Elimination`:
rows are {column: scalar} mappings, right-hand sides ride along beside
them, and an incremental Gauss-Jordan reduction brings the rows to the
fully reduced row echelon form once.  That form is unique for the row
space, whatever the row order or the choice of pivots, so the pivots,
the solution with every free unknown set to zero, the kernel basis read
off the free columns and the spanning-set bases are canonical functions
of the input.  `rref`, `solve`, `nullspace`, `subspace_basis`,
`Matrix.rank` and `Matrix.inverse` are thin wrappers that hand a dense
matrix to it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from math import isqrt, lcm
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
    "Elimination",
    "rref",
    "solve",
    "nullspace",
    "subspace_basis",
    "contract",
    "tensor_of",
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

    # Fraction is immutable, so one instance of each serves every caller
    zero = Fraction(0)
    one = Fraction(1)

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

    def to_ints(self, xs: Sequence[Fraction]) -> tuple[list[int], int]:
        """(ints, den) with xs[i] = ints[i] / den, den the lcm of the denominators."""
        den = lcm(*{x.denominator for x in xs})
        return [x.numerator * (den // x.denominator) for x in xs], den

    def from_ints(self, ints: Sequence[int], den: int) -> list[Fraction]:
        """The scalars ints[i] / den, the shared zero for every 0."""
        zero = self.zero
        if den == 1:
            return [Fraction(x) if x else zero for x in ints]
        return [Fraction(x, den) if x else zero for x in ints]

    def reduce(self, support: dict[int, int]) -> dict[int, int]:
        """The support without its zero ints."""
        return {i: x for i, x in support.items() if x}

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
            inst.p, inst.characteristic, inst.descriptor = p, p, f"Fp:{p}"
            # residues are never changed in place, so one of each serves every caller
            inst.zero, inst.one = ModInt(0, p), ModInt(1, p)
            cls._cache[p] = inst
        return inst

    p: int
    characteristic: int
    descriptor: str
    zero: ModInt
    one: ModInt

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

    def to_ints(self, xs: Sequence[ModInt]) -> tuple[list[int], int]:
        """(ints, 1): the residues themselves."""
        return [x.v for x in xs], 1

    def from_ints(self, ints: Sequence[int], den: int) -> list[ModInt]:
        """The scalars ints[i] / den mod p, the shared zero for every 0."""
        p, zero = self.p, self.zero
        inv = pow(den, -1, p)
        return [ModInt(x * inv, p) if x % p else zero for x in ints]

    def reduce(self, support: dict[int, int]) -> dict[int, int]:
        """The support with its ints reduced mod p and the zeros dropped."""
        return {i: r for i, x in support.items() if (r := x % self.p)}

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


_set = object.__setattr__


class _Immutable:
    """A base that refuses attribute assignment: its subclasses set their slots through object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class Vector(_Immutable):
    """Immutable dense vector over a fixed field.

    `Vector(field, entries)` coerces every entry into the field: external
    input enters through it.  Operations build their results with the
    trusted `Vector._of`, which stores entries that are already scalars
    of the field as given.
    """

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: Iterable[object]) -> None:
        _set(self, "field", field)
        _set(self, "entries", tuple(field.coerce(x) for x in entries))

    @classmethod
    def _of(cls, field: Field, entries: Iterable[Scalar]) -> "Vector":
        """The vector of `entries`, which must already be scalars of
        `field`: stored without coercion, for kernel outputs only."""
        v = object.__new__(cls)
        _set(v, "field", field)
        _set(v, "entries", tuple(entries))
        return v

    @classmethod
    def zero(cls, field: Field, n: int) -> "Vector":
        return cls._of(field, [field.zero] * n)

    @classmethod
    def basis(cls, field: Field, n: int, i: int) -> "Vector":
        if not 0 <= i < n:
            raise IndexError(f"basis index {i} out of range for dimension {n}")
        entries = [field.zero] * n
        entries[i] = field.one
        return cls._of(field, entries)

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
        return Vector._of(self.field, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        _same_field(self.field, other.field, "vectors")
        if len(self) != len(other):
            raise ValueError(f"vector lengths differ: {len(self)} vs {len(other)}")
        return Vector._of(self.field, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Vector":
        return Vector._of(self.field, [-a for a in self.entries])

    def scale(self, c: object) -> "Vector":
        c = self.field.coerce(c)
        return Vector._of(self.field, [c * a for a in self.entries])

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
        zero = self.field.zero
        return Vector._of(self.field, [a * b if a and b else zero for a in self.entries for b in other.entries])

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.field is other.field and self.entries == other.entries

    def __repr__(self) -> str:
        body = ", ".join(self.field.to_str(a) for a in self.entries)
        return f"Vector({self.field.descriptor}; [{body}])"


class Matrix(_Immutable):
    """Immutable dense matrix over a fixed field, stored row-major.

    `Matrix(field, rows)` coerces every entry and checks that the rows
    are equally long: external input enters through it.  Operations
    build their results with the trusted `Matrix._of`, which stores
    rows of scalars of the field as given.
    """

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
        _set(self, "field", field)
        _set(self, "rows", coerced)
        _set(self, "nrows", len(coerced))
        _set(self, "ncols", width)

    @classmethod
    def _of(cls, field: Field, rows: Iterable[Iterable[Scalar]], ncols: int) -> "Matrix":
        """The matrix of `rows`, each `ncols` scalars of `field` long:
        stored without coercion or shape check, for kernel outputs only."""
        m = object.__new__(cls)
        rows = tuple(map(tuple, rows))
        _set(m, "field", field)
        _set(m, "rows", rows)
        _set(m, "nrows", len(rows))
        _set(m, "ncols", ncols)
        return m

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls._of(field, [[field.zero] * ncols] * nrows, ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        zero, one = field.zero, field.one
        return cls._of(
            field, [[one if i == j else zero for j in range(n)] for i in range(n)], n
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
        if not columns:
            return cls._of(field, [()] * nrows, 0)
        return cls._of(field, zip(*(c.entries for c in columns)), len(columns))

    def row(self, i: int) -> Vector:
        return Vector._of(self.field, self.rows[i])

    def column(self, j: int) -> Vector:
        return Vector._of(self.field, [r[j] for r in self.rows])

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
        return Matrix._of(
            self.field,
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        _same_field(self.field, other.field, "matrices")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shapes differ")
        return Matrix._of(
            self.field,
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            self.ncols,
        )

    def scale(self, c: object) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix._of(self.field, [[c * a for a in r] for r in self.rows], self.ncols)

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
            return Vector._of(self.field, out)
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
            return Matrix._of(self.field, out, other.ncols)
        return NotImplemented

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix._of(self.field, [()] * self.ncols, 0)
        return Matrix._of(self.field, zip(*self.rows), self.nrows)

    def rank(self) -> int:
        return Elimination.of_matrix(self).rank

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be inverted")
        n = self.nrows
        e = Elimination.of_matrix(self, Matrix.identity(self.field, n).rows)
        if e.rank != n:
            raise ValueError("matrix is not invertible")
        return Matrix.from_columns(self.field, [e.solution(k) for k in range(n)], nrows=n)

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


class Tensor3(_Immutable):
    """Immutable rank-3 tensor, dense, indexed as T[i, j, k].

    Like `Vector` and `Matrix`: the public constructor coerces and checks
    the shape, the trusted `Tensor3._of` stores kernel outputs as given.
    """

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
        _set(self, "field", field)
        _set(self, "dims", shape)
        _set(self, "data", coerced)

    @classmethod
    def _of(
        cls, field: Field, data: Iterable[Iterable[Iterable[Scalar]]],
        dims: tuple[int, int, int],
    ) -> "Tensor3":
        """The tensor of `data`, of shape `dims`, whose entries must already
        be scalars of `field`: stored without coercion or shape check, for
        kernel outputs only."""
        t = object.__new__(cls)
        _set(t, "field", field)
        _set(t, "dims", dims)
        _set(t, "data", tuple(tuple(map(tuple, plane)) for plane in data))
        return t

    @classmethod
    def zeros(cls, field: Field, dims: tuple[int, int, int]) -> "Tensor3":
        d0, d1, d2 = dims
        return cls._of(field, [[[field.zero] * d2] * d1] * d0, dims)

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
        return cls._of(field, data, dims)

    def __getitem__(self, ijk: tuple[int, int, int]) -> Scalar:
        i, j, k = ijk
        return self.data[i][j][k]

    def nonzero(self) -> Iterator[tuple[tuple[int, int, int], Scalar]]:
        for i, plane in enumerate(self.data):
            for j, row in enumerate(plane):
                for k, x in enumerate(row):
                    if x:
                        yield (i, j, k), x

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


class Elimination:
    """The reduced row echelon form of one sparse linear system.

    `rows` are mappings {column: scalar} over `ncols` unknowns; zero
    entries may be left out.  Each right-hand side in `rhs` holds one
    scalar per row and is carried through the row operations beside the
    rows, never pivoted on, so one reduction answers every right-hand
    side.  The reduction runs once, in the constructor, and the object
    then exposes `rank`, `pivots`, `solution(k)` and `kernel()`.

    Rows are reduced one at a time (Gauss-Jordan): a new row is reduced
    against the pivot rows found so far, its leftmost remaining column
    becomes a new pivot, the row is scaled to 1 there and that column is
    cleared from every earlier pivot row.  A pivot row never gains an
    entry left of its pivot, so the pivot rows end up as the nonzero rows
    of the reduced row echelon form, which is unique; the results do not
    depend on the row order or the pivoting.
    """

    __slots__ = ("field", "ncols", "nrhs", "pivots", "rank", "_rows", "_inconsistent")

    def __init__(
        self,
        field: Field,
        ncols: int,
        rows: Iterable[dict[int, object]],
        rhs: Sequence[Sequence[object]] = (),
    ) -> None:
        rows = list(rows)
        for b in rhs:
            if len(b) != len(rows):
                raise ValueError(
                    f"right-hand side has length {len(b)}, the system has {len(rows)} rows"
                )
        coerce = field.coerce
        one = field.one
        pivot_rows: dict[int, dict[int, Scalar]] = {}
        inconsistent: set[int] = set()
        # right-hand side k rides along as column ncols + k
        for i, row in enumerate(rows):
            r = {}
            for j, x in row.items():
                if x:
                    if not 0 <= j < ncols:
                        raise IndexError(f"column {j} out of range for {ncols} unknowns")
                    r[j] = coerce(x)
            for k, b in enumerate(rhs):
                if b[i]:
                    r[ncols + k] = coerce(b[i])
            # pivot rows vanish on the other pivot columns, so one pass clears them all
            for c in [c for c in r if c in pivot_rows]:
                _add_multiple(r, -r.pop(c), pivot_rows[c])
            lead = min((c for c in r if c < ncols), default=None)
            if lead is None:
                inconsistent.update(c - ncols for c in r)
                continue
            inv = one / r.pop(lead)
            if inv != one:
                r = {j: inv * x for j, x in r.items()}
            for other in pivot_rows.values():
                f = other.pop(lead, None)
                if f is not None:
                    _add_multiple(other, -f, r)
            pivot_rows[lead] = r
        pivots = tuple(sorted(pivot_rows))
        self.field = field
        self.ncols = ncols
        self.nrhs = len(rhs)
        self.pivots = pivots
        self.rank = len(pivots)
        self._rows = [pivot_rows[c] for c in pivots]
        self._inconsistent = inconsistent

    @classmethod
    def of_matrix(cls, a: Matrix, rhs: Sequence[Sequence[object]] = ()) -> "Elimination":
        """The reduction of the rows of a dense matrix."""
        rows = [{j: x for j, x in enumerate(row) if x} for row in a.rows]
        return cls(a.field, a.ncols, rows, rhs)

    def solution(self, k: int = 0) -> Vector | None:
        """The solution of right-hand side k with every free unknown set
        to zero, or None when that right-hand side is inconsistent."""
        if not 0 <= k < self.nrhs:
            raise IndexError(f"no right-hand side {k}; the system has {self.nrhs}")
        if k in self._inconsistent:
            return None
        zero = self.field.zero
        key = self.ncols + k
        entries = [zero] * self.ncols
        for c, r in zip(self.pivots, self._rows):
            entries[c] = r.get(key, zero)
        return Vector._of(self.field, entries)

    def reduced_rows(self) -> Matrix:
        """The nonzero rows of the reduced row echelon form, in pivot order."""
        field, n = self.field, self.ncols
        zero, one = field.zero, field.one
        out = []
        for c, r in zip(self.pivots, self._rows):
            row = [zero] * n
            row[c] = one
            for j, x in r.items():
                if j < n:
                    row[j] = x
            out.append(row)
        return Matrix._of(field, out, n)

    def kernel(self) -> Matrix:
        """Canonical basis of the right kernel, one vector per row.

        Each free column contributes the vector with 1 there and the
        negated reduced-form column entries at the pivot positions.
        """
        field, n = self.field, self.ncols
        zero, one = field.zero, field.one
        pivot_set = set(self.pivots)
        free = [j for j in range(n) if j not in pivot_set]
        index = {j: t for t, j in enumerate(free)}
        out = [[zero] * n for _ in free]
        for t, j in enumerate(free):
            out[t][j] = one
        for c, r in zip(self.pivots, self._rows):
            for j, x in r.items():
                if j < n:
                    out[index[j]][c] = -x
        return Matrix._of(field, out, n)


def _add_multiple(r: dict, f: Scalar, s: dict) -> None:
    """r += f s on sparse rows, dropping entries that cancel; f is nonzero."""
    for j, y in s.items():
        v = r.get(j)
        if v is None:
            r[j] = f * y
        else:
            v = v + f * y
            if v:
                r[j] = v
            else:
                del r[j]


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form, zero rows last, and the tuple of pivot columns."""
    e = Elimination.of_matrix(m)
    zero = m.field.zero
    rows = list(e.reduced_rows().rows) + [[zero] * m.ncols] * (m.nrows - e.rank)
    return Matrix._of(m.field, rows, m.ncols), e.pivots


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a @ x = b, or None when the system is inconsistent.

    Free variables are set to zero, which makes the returned solution
    canonical.
    """
    _same_field(a.field, b.field, "matrix and vector")
    if a.nrows != len(b):
        raise ValueError(f"matrix has {a.nrows} rows but vector has length {len(b)}")
    return Elimination.of_matrix(a, [b.entries]).solution()


def nullspace(a: Matrix) -> Matrix:
    """Canonical basis of the right kernel of a, one vector per row."""
    return Elimination.of_matrix(a).kernel()


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
    rows = [{j: x for j, x in enumerate(v.entries) if x} for v in vecs]
    return Elimination(field, length, rows).reduced_rows()


def contract(t: Tensor3, axis: int, v: Vector) -> Matrix:
    """Contract one axis of a rank-3 tensor with a vector.

    The result keeps the remaining two axes in their original order:
    axis 0 gives R[j, k] = sum_i v_i T[i, j, k], and so on.
    """
    _same_field(t.field, v.field, "tensor and vector")
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    if len(v) != t.dims[axis]:
        raise ValueError(
            f"vector length {len(v)} does not match axis {axis} of size {t.dims[axis]}"
        )
    rows, cols = (d for a, d in enumerate(t.dims) if a != axis)
    out = [[t.field.zero] * cols for _ in range(rows)]
    for index, x in t.nonzero():
        c = v[index[axis]]
        if c:
            i, j = index[:axis] + index[axis + 1 :]
            out[i][j] = out[i][j] + c * x
    return Matrix._of(t.field, out, cols)


def tensor_of(vectors: Sequence[Vector]) -> Vector:
    """The Kronecker product of the vectors, in order."""
    return reduce(Vector.tensor, vectors)


# --- the sparse integer form ----------------------------------------------------
#
# A flat tensor in (support, den) form maps the flat index of each nonzero
# coordinate to an int, the coordinate being that int over `den`.  These
# helpers convert vectors, matrices and groups of scalars to and from it;
# hopf's kernels compute on it.

Sparse = tuple[dict[int, int], int]


def _int_supports(field: Field, groups: Sequence[Sequence[tuple[int, Scalar]]]) -> tuple[tuple, int]:
    """(supports, den): each group of (index, x) becomes {index: x den}, ints over one denominator."""
    ints, den = field.to_ints([x for group in groups for _, x in group])
    it = iter(ints)
    return tuple({i: next(it) for i, _ in group} for group in groups), den


def _sparse(v: Vector) -> Sparse:
    """The (support, den) form of a flat tensor, converting only its nonzeros."""
    nonzeros = [i for i, x in enumerate(v.entries) if x]
    ints, den = v.field.to_ints([v.entries[i] for i in nonzeros])
    return dict(zip(nonzeros, ints)), den


def _dense(field: Field, size: int, s: Sparse) -> Vector:
    """The flat tensor of length `size` whose (support, den) form is s: zeros but for its nonzeros."""
    entries = [field.zero] * size
    for i, x in _scalars(field, s).items():
        entries[i] = x
    return Vector._of(field, entries)


def _scalars(field: Field, s: Sparse) -> dict[int, Scalar]:
    """The nonzero coordinates of a (support, den) form as field scalars: a row of an Elimination."""
    return {i: x for i, x in zip(s[0], field.from_ints(list(s[0].values()), s[1])) if x}


def _comparable(field: Field, lhs: Sparse, rhs: Sparse) -> tuple[Sparse, Sparse]:
    """lhs and rhs over one denominator and reduced by the field: equal exactly when their
    values are.  Equal dens d need no rescaling, since d is nonzero (a unit mod p): both
    sides are only reduced and keep d, not d d, so the returned den changes, no value does."""
    (sl, dl), (sr, dr) = lhs, rhs
    if dl == dr:
        return (field.reduce(sl), dl), (field.reduce(sr), dr)
    return tuple((field.reduce({i: x * d for i, x in s.items()}), dl * dr) for s, d in ((sl, dr), (sr, dl)))


def _columns(m: Matrix) -> tuple[tuple, int]:
    """The columns of m as leg images: (table, den) with table[d] = {r: m[r,d] den}."""
    return _int_supports(m.field, [[(r, row[d]) for r, row in enumerate(m.rows) if row[d]] for d in range(m.ncols)])


def _matrix(field: Field, nrows: int, ncols: int, cols: Sparse) -> Matrix:
    """The matrix whose entry (r, c) is at c nrows + r of the (support, den) form cols."""
    flat = _dense(field, nrows * ncols, cols).entries
    return Matrix._of(field, zip(*(flat[c * nrows : (c + 1) * nrows] for c in range(ncols))), ncols)


def _functional(phi: Vector) -> tuple[tuple, int]:
    """A functional as leg images of width 1: table[d] = {0: phi_d den}."""
    return _int_supports(phi.field, [[(0, w)] if w else [] for w in phi.entries])
