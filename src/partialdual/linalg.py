"""Exact linear algebra over Q and prime fields.

Scalars are `fractions.Fraction` over Q and `ModInt` residues over F_p;
floating point is rejected outright.  Vectors, matrices and rank-3
tensors are stored dense.  `_kron_acc` adds a scaled Kronecker product
into a flat list over the nonzeros of each factor; `tensor_of` and
`Vector.tensor` are built on it.

Scalars are coerced once, at the boundary.  The public constructors
`Vector(...)`, `Matrix(...)` and `Tensor3(...)` coerce and validate
every entry; parsing, the examples, the command line, tests and user
code build through them.  A result computed from containers already
over the field holds field scalars by construction, since arithmetic
among a field's scalars stays in the field, so every kernel output is
built by the private trusted constructors `Vector._of`, `Matrix._of` and
`Tensor3._of`, which store their entries as given.  Kernel code
therefore starts every accumulator from `field.zero`, never from a bare
int, so that no `int` reaches a trusted constructor, and a copy of
another container's entries is built over that container's field, so
that data over a different field still meets a field check.

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
from math import isqrt, prod
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


_set = object.__setattr__


class Vector:
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

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Vector is immutable")

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
        out = [self.field.zero] * (len(self) * len(other))
        _kron_acc(out, self.field.one, self.entries, other.entries)
        return Vector._of(self.field, out)

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

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Matrix is immutable")

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


class Tensor3:
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

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Tensor3 is immutable")

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

    def flip01(self) -> "Tensor3":
        d0, d1, d2 = self.dims
        return Tensor3._of(
            self.field,
            [[self.data[i][j] for i in range(d0)] for j in range(d1)],
            (d1, d0, d2),
        )

    def flip12(self) -> "Tensor3":
        d0, d1, d2 = self.dims
        return Tensor3._of(
            self.field,
            [list(zip(*plane)) if plane else [()] * d2 for plane in self.data],
            (d0, d2, d1),
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
        return Matrix._of(t.field, out, d2)
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
        return Matrix._of(t.field, out, d2)
    out = [[zero] * d1 for _ in range(d0)]
    for k, c in enumerate(v):
        if not c:
            continue
        for i in range(d0):
            plane = t.data[i]
            for j in range(d1):
                if plane[j][k]:
                    out[i][j] = out[i][j] + c * plane[j][k]
    return Matrix._of(t.field, out, d1)


def _kron_acc(out: list, c: Scalar, *legs: Sequence[Scalar]) -> None:
    """Add c (legs[0] (x) legs[1] (x) ...) into the flat list `out`, row-major
    over the leg lengths, visiting only the nonzero coordinates of each leg."""
    if not c:
        return
    partial = [(0, c)]
    for leg in legs:
        n = len(leg)
        nonzeros = [(i, x) for i, x in enumerate(leg) if x]
        partial = [(base * n + i, w * x) for base, w in partial for i, x in nonzeros]
    for idx, w in partial:
        out[idx] = out[idx] + w


def tensor_of(vectors: Sequence[Vector]) -> Vector:
    """The Kronecker product of the vectors, in order."""
    field = vectors[0].field
    for v in vectors[1:]:
        _same_field(field, v.field, "vectors")
    out = [field.zero] * prod(len(v) for v in vectors)
    _kron_acc(out, field.one, *(v.entries for v in vectors))
    return Vector._of(field, out)
