"""Exact linear algebra: frozen examples and algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partialdual.linalg import (
    QQ,
    FieldMismatchError,
    Matrix,
    ModInt,
    PrimeField,
    Tensor3,
    Vector,
    contract,
    field_from_descriptor,
    nullspace,
    rref,
    solve,
    subspace_basis,
)

F5 = PrimeField(5)


def qmat(rows):
    return Matrix(QQ, rows)


def qvec(entries):
    return Vector(QQ, entries)


# --- frozen reference values -------------------------------------------------


def test_rref_rank_deficient():
    reduced, pivots = rref(qmat([[1, 2], [2, 4]]))
    assert reduced == qmat([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_identity_fixed_point():
    eye = Matrix.identity(QQ, 3)
    reduced, pivots = rref(eye)
    assert reduced == eye
    assert pivots == (0, 1, 2)


def test_solve_underdetermined_sets_free_vars_to_zero():
    x = solve(qmat([[1, 1]]), qvec([2]))
    assert x == qvec([2, 0])


def test_solve_inconsistent_returns_none():
    assert solve(qmat([[1, 1], [1, 1]]), qvec([0, 1])) is None


def test_subspace_basis_collapses_dependent_spanning_set():
    basis = subspace_basis([qvec([1, 1]), qvec([2, 2])])
    assert basis == qmat([[1, 1]])


def test_subspace_basis_empty_input():
    basis = subspace_basis([], field=QQ, length=3)
    assert basis.nrows == 0
    assert basis.ncols == 3


def c2_mult_tensor():
    # group algebra kC2: e_i e_j = e_{i xor j}
    return Tensor3.from_entries(
        QQ, (2, 2, 2), [(((i, j, i ^ j)), 1) for i in range(2) for j in range(2)]
    )


def test_contract_group_algebra_axis0():
    result = contract(c2_mult_tensor(), 0, qvec([1, 1]))
    assert result == qmat([[1, 1], [1, 1]])


# --- scalars -----------------------------------------------------------------


def test_modint_arithmetic():
    a = ModInt(3, 5)
    b = ModInt(4, 5)
    assert a + b == ModInt(2, 5)
    assert a * b == ModInt(2, 5)
    assert a - b == ModInt(4, 5)
    assert a / b == ModInt(2, 5)
    assert -a == ModInt(2, 5)
    assert a**-1 == ModInt(2, 5)


@given(st.integers(-20, 20), st.sampled_from([2, 3, 5, 7]), st.integers(-20, 20))
@example(1, 5, 6)
def test_modint_equal_values_hash_equal(v, p, n):
    x = ModInt(v, p)
    if x == n:
        assert hash(x) == hash(n)
    assert (n in {x}) == (x == n)


def test_modint_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ModInt(1, 5) / ModInt(0, 5)


def test_mixing_fields_is_an_error():
    with pytest.raises(FieldMismatchError):
        ModInt(1, 5) + ModInt(1, 7)
    with pytest.raises(FieldMismatchError):
        ModInt(1, 5) + Fraction(1, 2)
    with pytest.raises(FieldMismatchError):
        Fraction(1, 2) + ModInt(1, 5)
    with pytest.raises(FieldMismatchError):
        Vector(QQ, [1]) + Vector(F5, [1])


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        QQ.coerce(0.5)
    with pytest.raises(TypeError):
        Vector(F5, [0.5])


def test_scalar_string_round_trip():
    assert QQ.to_str(QQ.from_str("-3/4")) == "-3/4"
    assert QQ.to_str(Fraction(2, 4)) == "1/2"
    assert F5.to_str(F5.from_str("-1")) == "4"
    with pytest.raises(ValueError):
        QQ.from_str("1.5")
    with pytest.raises(ValueError):
        QQ.from_str("1/0")
    with pytest.raises(ValueError):
        F5.from_str("1/2")


def test_field_descriptors():
    assert field_from_descriptor("Q") is QQ
    assert field_from_descriptor("Fp:5") is F5
    with pytest.raises(ValueError):
        field_from_descriptor("Fp:6")
    with pytest.raises(ValueError):
        field_from_descriptor("R")


def test_prime_field_instances_are_cached():
    assert PrimeField(5) is F5
    with pytest.raises(ValueError):
        PrimeField(4)


# --- containers --------------------------------------------------------------


def test_matrix_inverse_round_trip():
    m = qmat([[1, 2], [3, 5]])
    assert m @ m.inverse() == Matrix.identity(QQ, 2)
    assert m.inverse() @ m == Matrix.identity(QQ, 2)


def test_singular_matrix_has_no_inverse():
    with pytest.raises(ValueError):
        qmat([[1, 2], [2, 4]]).inverse()


def test_matrix_vector_application():
    m = qmat([[1, 2], [0, 1]])
    assert m @ qvec([1, 1]) == qvec([3, 1])


def test_vector_tensor_index_convention():
    v = qvec([1, 2])
    w = qvec([3, 5, 7])
    assert v.tensor(w) == qvec([3, 5, 7, 6, 10, 14])


def test_tensor_flips():
    t = Tensor3.from_entries(QQ, (2, 3, 4), [((1, 2, 3), 7)])
    assert t.flip01()[2, 1, 3] == 7
    assert t.flip12()[1, 3, 2] == 7
    assert t.flip01().flip01() == t


def test_nullspace_canonical_form():
    ns = nullspace(qmat([[1, 2, 3]]))
    assert ns == qmat([[-2, 1, 0], [-3, 0, 1]])


# --- properties --------------------------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9
)


@st.composite
def q_matrices(draw, max_dim=4):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(
            st.lists(rationals, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return Matrix(QQ, rows)


@settings(max_examples=40, deadline=None)
@given(a=rationals, b=rationals, c=rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + QQ.zero == a
    assert a * QQ.one == a
    if b != 0:
        assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    xs=st.tuples(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48)),
)
def test_prime_field_axioms(p, xs):
    f = PrimeField(p)
    a, b, c = (f.coerce(x) for x in xs)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + f.zero == a
    assert a * f.one == a
    if b:
        assert (a / b) * b == a


@settings(max_examples=30, deadline=None)
@given(m=q_matrices())
def test_rref_is_idempotent(m):
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots


@settings(max_examples=30, deadline=None)
@given(m=q_matrices(), data=st.data())
def test_solve_returns_actual_solutions(m, data):
    x = Vector(
        QQ, data.draw(st.lists(rationals, min_size=m.ncols, max_size=m.ncols))
    )
    b = m @ x
    found = solve(m, b)
    assert found is not None
    assert m @ found == b


@settings(max_examples=30, deadline=None)
@given(m=q_matrices())
def test_rank_nullity(m):
    ns = nullspace(m)
    assert m.rank() + ns.nrows == m.ncols
    for i in range(ns.nrows):
        assert (m @ ns.row(i)).is_zero()


@settings(max_examples=30, deadline=None)
@given(m=q_matrices(), data=st.data())
def test_subspace_basis_depends_only_on_span(m, data):
    vectors = [m.row(i) for i in range(m.nrows)]
    perm = data.draw(st.permutations(range(len(vectors))))
    scales = data.draw(
        st.lists(
            rationals.filter(lambda x: x != 0),
            min_size=len(vectors),
            max_size=len(vectors),
        )
    )
    shuffled = [vectors[i].scale(c) for i, c in zip(perm, scales)]
    assert subspace_basis(vectors) == subspace_basis(shuffled)
