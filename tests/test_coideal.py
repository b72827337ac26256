"""Coideal subalgebra certification and the quotient module coalgebra."""

import collections
import itertools

import pytest

from partialdual.coideal import (
    _CERTIFIED,
    CoidealQuotient,
    CoidealSubalgebra,
    build_quotient,
    certify_coideal,
    dual_coideal,
)
from partialdual.examples import cyclic, group_algebra, symmetric, taft4
from partialdual.hopf import Algebra, CertificationError, Coalgebra, HopfAlgebra, LinMap, _by, _stacked, coopposite, dual
from partialdual.linalg import QQ, Matrix, Tensor3, Vector


@pytest.fixture(scope="module")
def taft():
    h, b, zeta = taft4(QQ, 1)
    return h, b, zeta


def test_taft_coideal_structure(taft):
    h, b, _ = taft
    assert b.dim == 2
    assert b.report.ok
    assert b.unit == Vector(QQ, [1, 0])
    assert b.counit == Vector(QQ, [1, 0])
    # x * x = 0 inside B
    assert b.algebra.multiply(b.basis(1), b.basis(1)) == Vector.zero(QQ, 2)
    # Delta(x) = x (x) 1 + g (x) x in coaction coordinates
    assert b.coaction[1, 2, 0] == 1
    assert b.coaction[1, 1, 1] == 1
    assert b.coaction[0, 0, 0] == 1


def test_taft_quotient_is_group_like(taft):
    h, b, _ = taft
    q = build_quotient(b)
    assert q.dim == 2
    assert q.report.ok
    assert q.canonical
    assert q.pi.matrix == Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]])
    # both residue classes are group-like
    for r in range(2):
        flat = q.coalgebra.comultiply_flat(q.basis(r))
        assert flat == q.basis(r).tensor(q.basis(r))
    assert q.coalgebra.counit == Vector(QQ, [1, 1])


def test_taft_quotient_action(taft):
    h, b, _ = taft
    q = build_quotient(b)
    # q.action[r, i, t]: the x_t coordinate of x_r <| e_i; g = e_1 swaps the
    # two classes and x = e_2 kills the class of 1
    assert [[q.action[r, 1, t] for t in range(2)] for r in range(2)] == [[0, 1], [1, 0]]
    assert [q.action[0, 2, t] for t in range(2)] == [0, 0]


def test_group_case_quotient_dimensions():
    h = group_algebra(symmetric(3), QQ)
    # subgroup generated by the transposition (01): identity is index 0,
    # (01) swaps letters 0 and 1, which is permutation (1,0,2), index 2
    iota = LinMap(
        Matrix.from_columns(
            QQ, [Vector.basis(QQ, 6, 0), Vector.basis(QQ, 6, 2)], nrows=6
        )
    )
    b = certify_coideal(h, iota)
    q = build_quotient(b)
    assert (b.dim, q.dim) == (2, 3)
    assert q.report.ok


def test_rejects_non_coideal():
    h, _, _ = taft4(QQ, 0)
    # span{1, xg} is closed under products but not a left coideal
    iota = LinMap(Matrix(QQ, [[1, 0], [0, 0], [0, 0], [0, 1]]))
    with pytest.raises(CertificationError) as err:
        certify_coideal(h, iota)
    assert err.value.kind == "left-coideal"
    assert err.value.report is not None


def test_rejects_non_subalgebra():
    h = group_algebra(cyclic(4), QQ)
    # span{1, g} contains 1 and is a coideal, but g*g = g^2 escapes
    iota = LinMap(
        Matrix.from_columns(
            QQ, [Vector.basis(QQ, 4, 0), Vector.basis(QQ, 4, 1)], nrows=4
        )
    )
    with pytest.raises(CertificationError) as err:
        certify_coideal(h, iota)
    assert err.value.kind == "closed-under-multiplication"


def test_rejects_non_injective_inclusion():
    h, _, _ = taft4(QQ, 0)
    iota = LinMap(Matrix(QQ, [[1, 1], [0, 0], [0, 0], [0, 0]]))
    with pytest.raises(CertificationError) as err:
        certify_coideal(h, iota)
    assert err.value.kind == "iota-injective"


def test_rejects_missing_unit():
    h, _, _ = taft4(QQ, 0)
    iota = LinMap(Matrix(QQ, [[0], [0], [1], [0]]))
    with pytest.raises(CertificationError) as err:
        certify_coideal(h, iota)
    assert err.value.kind == "contains-unit"


def test_dimension_law_abort_on_corrupt_data(taft):
    h, b, _ = taft
    # only certify_coideal holds the token, so corrupt data has to forge it
    corrupt = CoidealSubalgebra(
        _CERTIFIED, h, b.iota, b.algebra, Vector.zero(QQ, 2), b.int_coaction, b.report
    )
    with pytest.raises(CertificationError) as err:
        build_quotient(corrupt)
    assert err.value.kind == "dim-product-law"


def test_certified_types_are_built_only_by_their_certifiers(taft):
    h, b, _ = taft
    q = build_quotient(b)
    with pytest.raises(TypeError, match="built only by certify_coideal"):
        CoidealSubalgebra(object(), h, b.iota, b.algebra, b.counit, b.int_coaction, b.report)
    with pytest.raises(TypeError, match="built only by build_quotient"):
        CoidealQuotient(
            object(), b, q.pi, q.lift, q.coalgebra, q.int_action, q.ideal_basis, q.canonical, q.report
        )


def test_supplied_presentation_round_trip(taft):
    h, b, _ = taft
    q = build_quotient(b)
    again = build_quotient(b, pi=q.pi, lift=q.lift)
    assert not again.canonical
    assert again.pi == q.pi
    assert again.coalgebra == q.coalgebra
    assert again.action == q.action


def test_supplied_presentation_must_split(taft):
    h, b, _ = taft
    q = build_quotient(b)
    bad_lift = LinMap(Matrix.zeros(QQ, 4, 2))
    with pytest.raises(CertificationError) as err:
        build_quotient(b, pi=q.pi, lift=bad_lift)
    assert err.value.kind == "pi-splits-lift"


def test_dual_coideal_certifies(taft):
    h, b, _ = taft
    q = build_quotient(b)
    cstar = dual_coideal(q)
    assert cstar.dim == 2
    assert cstar.parent == coopposite(dual(h))
    assert cstar.report.ok


def test_btr_action_values(taft):
    h, b, _ = taft
    # dual basis: p_1, p_g, p_x, p_xg on (1, g, x, xg); B* basis (1*, x*); the
    # v*-coordinate of p_i |> j* is coaction[v, i, j], which right_partial_dual
    # reads regrouped by i, at j dim(B) + v
    table, den = _by(_stacked(b.int_coaction, 4 * 2), (2, 4, 2), (1, 2, 0))
    btr = [[QQ.from_ints([table[i].get(j * 2 + v, 0) for v in range(2)], den) for j in range(2)] for i in range(4)]
    assert btr[0][0] == [1, 0]
    assert btr[1][0] == [0, 0]
    # <p_x |> 1*, b> = <1*, b <- p_x>: only b = x has x in a left coaction leg
    assert btr[2][0] == [0, 1]
    assert btr == [[[b.coaction[v, i, j] for v in range(2)] for j in range(2)] for i in range(4)]


HOPF_AXIOMS = {
    "associativity", "unit-law", "coassociativity", "counit-law", "comult-algebra-map",
    "comult-unital", "counit-algebra-map", "counit-unital", "antipode-left", "antipode-right",
}


def _taft_parent_perturbations():
    """Every one-entry +1 perturbation of Taft-4's (lambda = 1) mult,
    comult and antipode, as (label, perturbed parent)."""
    h, _, _ = taft4(QQ, 1)

    def bumped(t, i, j, k):
        data = [[list(row) for row in plane] for plane in t.data]
        data[i][j][k] = data[i][j][k] + QQ.one
        return Tensor3(QQ, data, dims=t.dims)

    for i, j, k in itertools.product(range(4), repeat=3):
        algebra = Algebra(QQ, bumped(h.mult, i, j, k), h.unit)
        yield f"mult[{i},{j},{k}]+1", HopfAlgebra(algebra, h.coalgebra, h.antipode)
    for i, j, k in itertools.product(range(4), repeat=3):
        coalgebra = Coalgebra(QQ, bumped(h.comult, i, j, k), h.counit)
        yield f"comult[{i},{j},{k}]+1", HopfAlgebra(h.algebra, coalgebra, h.antipode)
    for i, j in itertools.product(range(4), repeat=2):
        rows = [list(row) for row in h.antipode.rows]
        rows[i][j] = rows[i][j] + QQ.one
        yield f"S[{i},{j}]+1", HopfAlgebra(h.algebra, h.coalgebra, Matrix(QQ, rows, ncols=4))


def _parent_failure(label):
    h = dict(_taft_parent_perturbations())[label]
    with pytest.raises(CertificationError) as err:
        certify_coideal(h, taft4(QQ, 1)[1].iota)
    return err.value.kind


def test_certify_coideal_rejects_a_singular_antipode():
    # S[2,3]+1 makes S singular; certify_pams used to stop on a bare
    # ValueError when it inverted S
    assert _parent_failure("S[2,3]+1") == "antipode-left"


@pytest.mark.parametrize("label", ["comult[1,2,3]+1", "comult[1,3,3]+1"])
def test_certify_coideal_rejects_a_non_coassociative_parent(label):
    # these passed certify_coideal, build_quotient and certify_pams, and
    # only the quasi-Hopf verifier of the left partial dual caught them
    assert _parent_failure(label) == "coassociativity"


def test_every_parent_perturbation_fails_a_hopf_axiom_at_the_entry():
    iota = taft4(QQ, 1)[1].iota
    kinds = collections.Counter()
    for label, h in _taft_parent_perturbations():
        with pytest.raises(CertificationError) as err:
            certify_coideal(h, iota)
        assert err.value.kind in HOPF_AXIOMS, label
        kinds[err.value.kind] += 1
    assert kinds == {"associativity": 64, "coassociativity": 62, "antipode-left": 16, "counit-law": 2}
