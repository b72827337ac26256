"""Builders: groups, group algebras, Taft algebra, and their golden values."""

from itertools import permutations

import pytest

from partialdual import hopf
from partialdual.examples import (
    FiniteGroup,
    MatchedPair,
    bismash_product,
    cyclic,
    direct_product_pair,
    group_algebra,
    matched_pair_hopf,
    pams_from_split_projection,
    s3_pair,
    symmetric,
    taft4,
)
from partialdual.hopf import (
    Algebra,
    CertificationError,
    Coalgebra,
    LinMap,
    convolution_inverse,
    dual,
    verify_hopf,
)
from partialdual.linalg import QQ, Matrix, PrimeField, Tensor3, Vector

F5 = PrimeField(5)


def test_cyclic_and_symmetric_groups():
    c6 = cyclic(6)
    assert c6.order == 6
    assert c6.identity == 0
    assert c6.inverse(1) == 5
    s3 = symmetric(3)
    assert s3.order == 6
    assert any(
        s3.mul(i, j) != s3.mul(j, i) for i in range(6) for j in range(6)
    )


def test_direct_product_group():
    g = cyclic(2).direct_product(cyclic(3))
    assert g.order == 6
    assert g.identity == 0
    # (1, 1) has order 6: it generates
    seen = set()
    x = g.mul(0, 4)  # element (1, 1) = 1*3 + 1
    acc = g.identity
    for _ in range(6):
        acc = g.mul(acc, 4)
        seen.add(acc)
    assert len(seen) == 6


def test_bad_group_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [0, 1]])  # no identity


def test_group_algebras_are_hopf():
    for g in (cyclic(2), symmetric(3)):
        for field in (QQ, F5):
            h = group_algebra(g, field)
            report = verify_hopf(h)
            assert report.ok, report.render()
            assert verify_hopf(dual(h)).ok


def test_taft4_is_hopf_over_q_and_f5():
    for field, lam in [(QQ, 0), (QQ, 1), (QQ, -1), (QQ, 2), (F5, 0), (F5, 3)]:
        h, b, zeta = taft4(field, lam)
        assert verify_hopf(h).ok
        assert b.report.ok
        assert zeta.source == 4 and zeta.target == 2


def test_taft4_rejects_characteristic_two():
    with pytest.raises(ValueError):
        taft4(PrimeField(2), 0)


def test_taft4_zeta_convolution_inverse_golden():
    h, b, zeta = taft4(QQ, 1)
    zbar = convolution_inverse(zeta, h.coalgebra, b.algebra)
    assert zbar.matrix == Matrix(QQ, [[1, 1, 0, 0], [0, -1, -1, -1]])


def test_taft4_antipode_via_convolution():
    h, _, _ = taft4(QQ, 1)
    s = convolution_inverse(LinMap.identity(QQ, 4), h.coalgebra, h.algebra)
    assert s.matrix == h.antipode


def test_s3_pair_builds_the_symmetric_group():
    m = s3_pair()
    bow = m.group
    assert bow.order == 6
    assert any(
        bow.mul(i, j) != bow.mul(j, i) for i in range(6) for j in range(6)
    )


def test_matched_pair_rejects_bad_tables():
    f, g = cyclic(2), cyclic(3)
    with pytest.raises(ValueError, match="table"):
        MatchedPair(f, g, [[0, 1]], [[x] * 2 for x in range(3)])
    # identity of G no longer acting trivially
    with pytest.raises(ValueError):
        MatchedPair(f, g, [[1, 0], [0, 1], [0, 1]], [[x] * 2 for x in range(3)])
    # one corrupted entry breaks a compatibility law
    act_on_g = [[x if b == 0 else (-x) % 3 for b in range(2)] for x in range(3)]
    act_on_g[1][1] = 1
    with pytest.raises(ValueError):
        MatchedPair(f, g, [[b for b in range(2)] for _ in range(3)], act_on_g)


def test_matched_pair_hopf_certifies():
    h, bsub, p = matched_pair_hopf(s3_pair(), QQ)
    assert h.dim == 6
    assert bsub.dim == 2
    assert p.quotient.dim == 3
    assert p.report.ok


def test_bismash_products_are_hopf():
    for pair in (s3_pair(), direct_product_pair(cyclic(2), cyclic(3))):
        bp = bismash_product(pair, QQ)
        assert bp.dim == 6
        assert verify_hopf(bp).ok


BUILDERS = {
    "kS4 over F7": lambda: group_algebra(symmetric(4), PrimeField(7)),
    "taft4 over Q": lambda: taft4(QQ, 1)[0],
    "bismash S3 over Q": lambda: bismash_product(s3_pair(), QQ),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_builders_decode_no_dense_tensor(name, monkeypatch):
    """The builders hand integer tables to Algebra._of and Coalgebra._of:
    they neither decode a dense tensor (hopf._flat) nor build one
    (Tensor3._of).  The public constructors, fed the dense views, are the
    oracle for the tables."""
    counts = {"_flat": 0, "Tensor3._of": 0}
    flat, of = hopf._flat, Tensor3.__dict__["_of"].__func__

    def counting_flat(t):
        counts["_flat"] += 1
        return flat(t)

    def counting_of(klass, *args):
        counts["Tensor3._of"] += 1
        return of(klass, *args)

    monkeypatch.setattr(hopf, "_flat", counting_flat)
    monkeypatch.setattr(Tensor3, "_of", classmethod(counting_of))
    h = BUILDERS[name]()
    assert counts == {"_flat": 0, "Tensor3._of": 0}
    assert Algebra(h.field, h.mult, h.unit) == h.algebra
    assert Coalgebra(h.field, h.comult, h.counit) == h.coalgebra
    assert counts == {"_flat": 2, "Tensor3._of": 2}


def sign_projection_s3():
    perms = sorted(permutations(range(3)))
    parity = [
        sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j]) % 2
        for p in perms
    ]
    h = group_algebra(symmetric(3), QQ)
    a = group_algebra(cyclic(2), QQ)
    pi = LinMap(Matrix(QQ, [[1 if parity[i] == y else 0 for i in range(6)] for y in range(2)]))
    gamma = LinMap(
        Matrix.from_columns(
            QQ, [Vector.basis(QQ, 6, 0), Vector.basis(QQ, 6, perms.index((1, 0, 2)))], nrows=6
        )
    )
    return h, a, pi, gamma


def test_split_projection_sign_of_s3():
    h, a, pi, gamma = sign_projection_s3()
    p = pams_from_split_projection(h, a, pi, gamma)
    # coinvariants of the sign projection form the alternating subalgebra
    assert p.quotient.coideal.dim == 3
    assert p.quotient.dim == 2
    assert p.report.ok


def test_split_projection_on_taft():
    h, _, _ = taft4(QQ, 1)
    a = group_algebra(cyclic(2), QQ)
    pi = LinMap(Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    gamma = LinMap(
        Matrix.from_columns(QQ, [Vector.basis(QQ, 4, 0), Vector.basis(QQ, 4, 1)], nrows=4)
    )
    p = pams_from_split_projection(h, a, pi, gamma)
    assert p.quotient.coideal.dim == 2
    assert p.report.ok


def test_split_projection_on_direct_product():
    h = group_algebra(direct_product_pair(cyclic(2), cyclic(3)).group, QQ)
    a = group_algebra(cyclic(3), QQ)
    pi = LinMap(Matrix(QQ, [[1 if i % 3 == y else 0 for i in range(6)] for y in range(3)]))
    gamma = LinMap(
        Matrix.from_columns(QQ, [Vector.basis(QQ, 6, y) for y in range(3)], nrows=6)
    )
    p = pams_from_split_projection(h, a, pi, gamma)
    assert p.quotient.coideal.dim == 2
    assert p.report.ok


def test_split_projection_rejects_non_maps():
    h, _, _ = taft4(QQ, 1)
    a = group_algebra(cyclic(2), QQ)
    gamma = LinMap(
        Matrix.from_columns(QQ, [Vector.basis(QQ, 4, 0), Vector.basis(QQ, 4, 1)], nrows=4)
    )
    with pytest.raises(CertificationError) as exc:
        pams_from_split_projection(h, a, LinMap(Matrix.zeros(QQ, 2, 4)), gamma)
    assert exc.value.kind == "not-hopf-maps"


def test_split_projection_rejects_non_section():
    h, _, _ = taft4(QQ, 1)
    a = group_algebra(cyclic(2), QQ)
    pi = LinMap(Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    gamma = LinMap(
        Matrix.from_columns(QQ, [Vector.basis(QQ, 4, 0), Vector.basis(QQ, 4, 0)], nrows=4)
    )
    with pytest.raises(CertificationError, match="identity"):
        pams_from_split_projection(h, a, pi, gamma)
