"""Cointegral search, the derived splitting gamma, and PAMS certification."""

import random
import sys

import pytest

from partialdual import pams
from partialdual.coideal import CoidealQuotient, build_quotient, certify_coideal, dual_coideal
from partialdual.examples import cyclic, group_algebra, pams_from_split_projection, symmetric, taft4
from partialdual.hopf import (
    CertificationError,
    LinMap,
    Report,
    biopposite,
    convolution_inverse,
    convolution_product,
    coopposite,
    dual,
    opposite,
    verify_hopf,
)
from partialdual.linalg import QQ, Matrix, PrimeField, Vector
from partialdual.pams import (
    INDUCED_KINDS,
    _check_primal,
    _module_map_witness,
    biunitarize,
    certify_pams,
    cointegral_space,
    find_cointegral,
    gamma_from_zeta,
    induced_pams,
)
from partialdual.partial_dual import left_partial_dual, right_partial_dual

F5 = PrimeField(5)
F7 = PrimeField(7)


def taft_quotient(field, lam):
    h, b, zeta = taft4(field, lam)
    return h, build_quotient(b), zeta


@pytest.fixture(scope="module")
def taft_pams():
    h, q, zeta = taft_quotient(QQ, 1)
    return h, q, certify_pams(q, zeta)


@pytest.fixture(scope="module")
def s3_pams():
    h = group_algebra(symmetric(3), QQ)
    # subgroup generated by the transposition (01), indices {0, 2}
    iota = LinMap(
        Matrix.from_columns(
            QQ, [Vector.basis(QQ, 6, 0), Vector.basis(QQ, 6, 2)], nrows=6
        )
    )
    q = build_quotient(certify_coideal(h, iota))
    return h, q, certify_pams(q, find_cointegral(q))


@pytest.mark.parametrize(
    "field, lam",
    [(QQ, 0), (QQ, 1), (QQ, -1), (QQ, 2), (F5, 0), (F5, 3)],
    ids=["q0", "q1", "q-1", "q2", "f5-0", "f5-3"],
)
def test_taft_family_certifies(field, lam):
    h, q, zeta = taft_quotient(field, lam)
    p = certify_pams(q, zeta)
    assert p.report.ok
    # gamma sends the class of 1 to 1 and the class of g to g - lam * xg
    assert p.gamma.column(0) == h.unit
    expected = Vector.basis(field, 4, 1) - Vector.basis(field, 4, 3).scale(
        field.coerce(lam)
    )
    assert p.gamma.column(1) == expected


def test_taft_zeta_bar_golden(taft_pams):
    _, _, p = taft_pams
    assert p.zeta_bar.matrix == Matrix(QQ, [[1, 1, 0, 0], [0, -1, -1, -1]])


def test_gamma_from_zeta_matches_certified(taft_pams):
    _, q, p = taft_pams
    assert gamma_from_zeta(q, p.zeta) == p.gamma


def test_taft_solution_space_is_a_line():
    _, q, _ = taft_quotient(QQ, 1)
    particular, homogeneous = cointegral_space(q)
    assert particular is not None
    assert homogeneous.nrows == 1
    # flattened as z[t * 4 + m]: the canonical solution is the lam = 0
    # cointegral and the free direction adds x to zeta(g)
    assert particular == Vector(QQ, [1, 1, 0, 0, 0, 0, 1, 1])
    assert homogeneous.row(0) == Vector.basis(QQ, 8, 5)


def test_solution_space_dimension_group_case(s3_pams):
    _, q, _ = s3_pams
    particular, homogeneous = cointegral_space(q)
    # one affine line of zeta(r) in B per non-identity coset of <(01)>
    assert particular is not None
    assert homogeneous.nrows == 2


def test_find_cointegral_full_coideal_is_identity():
    h = group_algebra(cyclic(2), QQ)
    q = build_quotient(certify_coideal(h, LinMap(Matrix.identity(QQ, 2))))
    particular, homogeneous = cointegral_space(q)
    assert homogeneous.nrows == 0
    assert find_cointegral(q) == LinMap.identity(QQ, 2)
    p = certify_pams(q, find_cointegral(q))
    assert q.dim == 1
    assert p.gamma(q.pi(h.unit)) == h.unit


def test_find_cointegral_unit_coideal_is_counit():
    h, _, _ = taft4(QQ, 1)
    q = build_quotient(certify_coideal(h, LinMap(Matrix(QQ, [[1], [0], [0], [0]]))))
    zeta = find_cointegral(q)
    assert zeta.matrix == Matrix(QQ, [[1, 1, 0, 0]])
    p = certify_pams(q, zeta)
    assert p.gamma == LinMap.identity(QQ, 4)


def test_find_cointegral_is_deterministic():
    _, q, _ = taft_quotient(QQ, 1)
    found = find_cointegral(q, {"seed": 3, "bound": 2})
    assert found == find_cointegral(q, {"seed": 3, "bound": 2})
    # the canonical particular solution is already invertible, so the
    # seed never comes into play here
    assert found == find_cointegral(q, {"seed": 11})
    assert found.matrix == Matrix(QQ, [[1, 1, 0, 0], [0, 0, 1, 1]])


def test_find_cointegral_user_supplied(taft_pams):
    _, q, p = taft_pams
    strategy = {"kind": "user-supplied", "zeta": p.zeta}
    assert find_cointegral(q, strategy) == p.zeta
    bad = LinMap(Matrix(QQ, [[1, 1, 0, 0], [0, 1, 0, 1]]))
    with pytest.raises(CertificationError) as err:
        find_cointegral(q, {"kind": "user-supplied", "zeta": bad})
    assert err.value.kind == "zeta-not-module-map"


def test_find_cointegral_attempt_cap():
    _, q, _ = taft_quotient(QQ, 1)
    with pytest.raises(CertificationError) as err:
        find_cointegral(q, {"max_attempts": 0})
    assert err.value.kind == "search-exhausted"


def test_find_cointegral_rejects_unknown_strategy():
    _, q, _ = taft_quotient(QQ, 1)
    with pytest.raises(ValueError):
        find_cointegral(q, {"kind": "exhaustive"})
    with pytest.raises(ValueError):
        find_cointegral(q, {"bond": 2})


def test_biunitarize_repairs_unit_translation():
    _, q, zeta0 = taft_quotient(QQ, 0)
    shifted = LinMap(
        q.coideal.algebra.right_mult_matrix(Vector(QQ, [1, 1])) @ zeta0.matrix
    )
    assert shifted(q.parent.unit) != q.coideal.unit
    assert biunitarize(q, shifted) == zeta0


def test_biunitarize_repairs_counit_defect():
    _, q, zeta0 = taft_quotient(QQ, 0)
    # unit is fine but eps_B(zeta(g)) = 2
    skew = LinMap(Matrix(QQ, [[1, 2, 0, 0], [0, 0, 1, 2]]))
    assert biunitarize(q, skew) == zeta0
    scaled = LinMap(zeta0.matrix.scale(QQ.coerce(2)))
    assert biunitarize(q, scaled) == zeta0


def test_biunitarize_is_idempotent(taft_pams):
    _, q, p = taft_pams
    assert biunitarize(q, p.zeta) == p.zeta
    h = group_algebra(cyclic(2), QQ)
    q2 = build_quotient(certify_coideal(h, LinMap(Matrix.identity(QQ, 2))))
    assert biunitarize(q2, LinMap.identity(QQ, 2)) == LinMap.identity(QQ, 2)


def test_biunitarize_rejects_non_invertible():
    _, q, _ = taft_quotient(QQ, 0)
    with pytest.raises(CertificationError) as err:
        biunitarize(q, LinMap(Matrix.zeros(QQ, 2, 4)))
    assert err.value.kind == "not-invertible"


def test_gamma_from_zeta_rejects_broken_inputs(taft_pams):
    _, q, _ = taft_pams
    not_module = LinMap(Matrix(QQ, [[1, 1, 0, 0], [0, 1, 0, 1]]))
    with pytest.raises(CertificationError) as err:
        gamma_from_zeta(q, not_module)
    assert err.value.kind == "zeta-not-module-map"
    not_biunitary = LinMap(Matrix(QQ, [[1, 2, 0, 0], [0, 0, 1, 2]]))
    with pytest.raises(CertificationError) as err:
        gamma_from_zeta(q, not_biunitary)
    assert err.value.kind == "zeta-not-biunitary"


def test_certify_rejects_broken_zeta(taft_pams):
    _, q, _ = taft_pams
    with pytest.raises(CertificationError) as err:
        certify_pams(q, LinMap(Matrix(QQ, [[1, 1, 0, 0], [0, 1, 0, 1]])))
    assert err.value.kind == "zeta-module-map"
    assert err.value.report is not None


def test_certify_rejects_perturbed_gamma(taft_pams):
    _, q, p = taft_pams
    off_by_x = Matrix(QQ, [[1, 0], [0, 1], [0, 1], [0, -1]])
    with pytest.raises(CertificationError) as err:
        certify_pams(q, p.zeta, LinMap(off_by_x))
    assert err.value.kind == "gamma-comodule-map"
    with pytest.raises(CertificationError) as err:
        certify_pams(q, p.zeta, LinMap(Matrix(QQ, [[1], [0], [0], [0]])))
    assert err.value.kind == "gamma-shape"


def test_pams_is_built_only_by_certify_pams(taft_pams):
    """Every Pams in hand passed certify_pams: the constructor asks for a
    token that only the certifier holds."""
    _, q, p = taft_pams
    maps = (p.zeta, p.gamma, p.zeta_bar, p.gamma_bar)
    with pytest.raises(TypeError):
        pams.Pams(q, *maps, p.report)
    with pytest.raises(TypeError, match="built only by certify_pams"):
        pams.Pams(object(), q, *maps, p.report)


def test_certify_accepts_explicit_gamma(taft_pams):
    _, q, p = taft_pams
    again = certify_pams(q, p.zeta, p.gamma)
    assert again.gamma == p.gamma
    assert again.zeta_bar == p.zeta_bar
    assert again.gamma_bar == p.gamma_bar


def test_group_pams_certifies(s3_pams):
    h, q, p = s3_pams
    assert p.report.ok
    assert p.coideal.dim * p.quotient.dim == h.dim
    # the canonical zeta collapses each coset to its representative image
    assert p.zeta.matrix @ p.coideal.iota.matrix == Matrix.identity(QQ, 2)


def test_induced_rows_all_certify(taft_pams):
    h, _, p = taft_pams
    expected_parent = {
        "identity": h,
        "op": opposite(h),
        "cop": coopposite(h),
        "biop-dual": biopposite(dual(h)),
        "cop-dual": coopposite(dual(h)),
        "op-dual": opposite(dual(h)),
    }
    for kind in INDUCED_KINDS:
        induced = induced_pams(p, kind)
        assert induced.report.ok, kind
        assert induced.parent == expected_parent[kind], kind


def test_induced_pams_derives_no_gamma(taft_pams, monkeypatch):
    """certify_pams, given the induced gamma, already checks what
    _gamma_pair would derive from zeta (see induced_pams), so no induced
    row runs it."""
    _, _, p = taft_pams

    def refuse(*args):
        raise AssertionError("induced_pams derived gamma again")

    monkeypatch.setattr(pams, "_gamma_pair", refuse)
    for kind in INDUCED_KINDS:
        assert induced_pams(p, kind).report.ok, kind


def test_induced_identity_row_preserves_maps(taft_pams):
    _, q, p = taft_pams
    same = induced_pams(p, "identity")
    assert same.zeta == p.zeta
    assert same.gamma == p.gamma
    assert same.quotient.pi == q.pi


def test_induced_biop_dual_is_involutive(taft_pams):
    h, q, p = taft_pams
    once = induced_pams(p, "biop-dual")
    assert (once.coideal.dim, once.quotient.dim) == (q.dim, q.coideal.dim)
    twice = induced_pams(once, "biop-dual")
    assert twice.parent == h
    assert twice.zeta == p.zeta
    assert twice.gamma == p.gamma
    assert twice.coideal.iota == q.coideal.iota
    assert twice.coideal.mult == q.coideal.mult
    assert twice.quotient.pi == q.pi
    assert twice.quotient.action == q.action


def test_induced_dimension_swap_group_case(s3_pams):
    h, q, p = s3_pams
    flipped = induced_pams(p, "biop-dual")
    assert (flipped.coideal.dim, flipped.quotient.dim) == (3, 2)
    assert flipped.parent == biopposite(dual(h))


def test_induced_op_of_full_coideal_is_trivial():
    h = group_algebra(cyclic(2), QQ)
    q = build_quotient(certify_coideal(h, LinMap(Matrix.identity(QQ, 2))))
    p = certify_pams(q, LinMap.identity(QQ, 2))
    flipped = induced_pams(p, "op")
    assert flipped.zeta == LinMap.identity(QQ, 2)
    assert flipped.gamma.matrix == Matrix(QQ, [[1], [0]])


def test_induced_rows_certify_mod_p():
    _, q, zeta = taft_quotient(F5, 3)
    p = certify_pams(q, zeta)
    for kind in INDUCED_KINDS:
        assert induced_pams(p, kind).report.ok, kind


def test_induced_rejects_unknown_kind(taft_pams):
    _, _, p = taft_pams
    with pytest.raises(ValueError):
        induced_pams(p, "sideways")


def _count_calls(monkeypatch, fn):
    """Route every partialdual module's reference to fn through a counter;
    returns the list of argument tuples of the calls made."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("partialdual") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_pipeline_builds_the_dual_of_the_parent_once(monkeypatch):
    h, q, zeta = taft_quotient(QQ, 1)
    calls = _count_calls(monkeypatch, dual)
    p = certify_pams(q, zeta)
    right_partial_dual(p, left_partial_dual(p))
    assert calls == [(h,)]
    assert q.dual_parent == coopposite(q.hstar)


def test_pipeline_verifies_the_parent_once(monkeypatch):
    h, b, zeta = taft4(QQ, 1)
    calls = _count_calls(monkeypatch, verify_hopf)
    p = certify_pams(build_quotient(certify_coideal(h, b.iota)), zeta)
    right_partial_dual(p, left_partial_dual(p))
    assert calls == [(h,)]


def test_transports_of_the_certified_parent_are_not_verified_again(monkeypatch, taft_pams):
    """The six induced systems and the dual coideal live on the certified
    parent or on its transports, which are Hopf by construction."""
    _, _, p = taft_pams
    calls = _count_calls(monkeypatch, verify_hopf)
    for kind in INDUCED_KINDS:
        induced_pams(p, kind)
    dual_coideal(build_quotient(p.quotient.coideal))
    assert calls == []


def test_split_projection_verifies_its_parent_once(monkeypatch):
    h = taft4(QQ, 1)[0]
    a = group_algebra(cyclic(2), QQ)
    pi = LinMap(Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    gamma = LinMap(Matrix.from_columns(QQ, [h.basis(0), h.basis(1)], nrows=4))
    calls = _count_calls(monkeypatch, verify_hopf)
    pams_from_split_projection(h, a, pi, gamma)
    assert calls == [(h,)]


def test_certify_pams_builds_no_dual(monkeypatch):
    """Certification reads H, B and C only: no identity on H* or C* is checked."""
    _, q, zeta = taft_quotient(QQ, 1)
    calls = _count_calls(monkeypatch, dual)
    touched = []
    for name in ("hstar", "cstar"):
        read = getattr(CoidealQuotient, name).fget
        monkeypatch.setattr(
            CoidealQuotient, name, property(lambda q, name=name, read=read: touched.append(name) or read(q))
        )
    certify_pams(q, zeta)
    assert calls == []
    assert touched == []


def test_certify_pams_derives_each_inverse_once(monkeypatch):
    _, q, zeta = taft_quotient(QQ, 1)
    inverses = _count_calls(monkeypatch, convolution_inverse)
    witnesses = _count_calls(monkeypatch, _module_map_witness)
    p = certify_pams(q, zeta)
    assert [args[0] for args in inverses] == [zeta, p.gamma]
    assert witnesses == [(q, zeta)]


def test_induced_pams_reuses_the_certified_zeta_bar(monkeypatch, taft_pams):
    _, _, p = taft_pams
    witnesses = _count_calls(monkeypatch, _module_map_witness)
    derived = _count_calls(monkeypatch, gamma_from_zeta)
    for kind in INDUCED_KINDS:
        induced_pams(p, kind)
    # one module-map witness per certify_pams, none for re-deriving gamma
    assert len(witnesses) == len(INDUCED_KINDS)
    assert derived == []


def _bumped(m, i, j):
    rows = [list(r) for r in m.matrix.rows]
    rows[i][j] = rows[i][j] + m.field.one
    return LinMap(Matrix(m.field, rows, ncols=m.source))


def _perturbed(p):
    """(the certified maps, label -> the maps that replace them)."""
    clean = {"zeta": p.zeta, "gamma": p.gamma, "zeta_bar": p.zeta_bar, "gamma_bar": p.gamma_bar}
    return clean, {
        "zeta_bar=zeta": {"zeta_bar": p.zeta},
        "gamma[0,0]+1": {"gamma": _bumped(p.gamma, 0, 0)},
        "zeta[0,1]+1": {"zeta": _bumped(p.zeta, 0, 1)},
        "zeta[1,0]+1": {"zeta": _bumped(p.zeta, 1, 0)},
        "gamma[1,0]+1": {"gamma": _bumped(p.gamma, 1, 0)},
        "gamma_bar[1,0]+1": {"gamma_bar": _bumped(p.gamma_bar, 1, 0)},
    }


@pytest.fixture(scope="module")
def c4_f7_pams():
    h = group_algebra(cyclic(4), F7)
    iota = LinMap(Matrix(F7, [[1, 0], [0, 0], [0, 1], [0, 0]]))
    q = build_quotient(certify_coideal(h, iota))
    return h, q, certify_pams(q, find_cointegral(q))


def test_convolution_transposes_into_the_dual():
    """dual(H) multiplies by Delta^T and comultiplies by m^T, so
    (f * g)^T = f^T * g^T in End(H*), and its antipode is S^T: the
    convention the deleted dual-side checks are proved under."""
    rng = random.Random(0)
    for h in (taft4(QQ, 1)[0], group_algebra(symmetric(3), QQ), group_algebra(cyclic(4), F7)):
        hs, n = dual(h), h.dim
        maps = [LinMap.identity(h.field, n), LinMap(h.antipode)] + [
            LinMap(Matrix(h.field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]))
            for _ in range(3)
        ]
        assert hs.antipode == h.antipode.transpose()
        for f in maps:
            for g in maps:
                fg = convolution_product(f, g, h.coalgebra, h.algebra)
                ft, gt = LinMap(f.matrix.transpose()), LinMap(g.matrix.transpose())
                assert fg.matrix.transpose() == convolution_product(ft, gt, hs.coalgebra, hs.algebra).matrix


# dual-side checks deleted as transposes or corollaries of primal
# identities (the proofs are in the docstring of certify_pams), and for
# each perturbation of _perturbed that failed one of them when they were
# checked, the primal check it rests on with that check's witness
TRIVIALITY = ("zeta-gamma-triviality", "zeta gamma != eps_C(-) 1_B")
ZETA_SPLITS = ("zeta-splits-iota", "zeta iota != id_B")
GAMMA_SPLITS = ("gamma-splits-pi", "pi gamma != id_C")
CONV_UNIT = ("conv-unit", "(iota zeta) * (gamma pi) != id")
GAMMA_PI = ("gamma-pi-convolution", "gamma pi != (iota zeta_bar) * id")
GAMMABAR = ("gammabar-formula", "gamma_bar pi != S * (iota zeta)")
GAMMA_COMODULE = (
    "gamma-comodule-map", "(id (x) pi) Delta(gamma(x0)) != (gamma (x) id) Delta_C(x0)"
)
FUSION = {f"fusion-{x}": CONV_UNIT for x in "abcde"}
FAILED_TRANSPOSES = {
    "taft": {
        "zeta_bar=zeta": {
            "bar-identity-middle": GAMMA_PI,
            "bar-identity-antipode": GAMMA_PI,
            "zetabar-star-coaction-law": GAMMA_PI,
            "zetabar-star-antipode-law": GAMMA_PI,
        },
        "gamma[0,0]+1": {
            "gamma-star-zeta-star": TRIVIALITY,
            "gamma-star-splits": GAMMA_SPLITS,
            "conv-unit-dual": CONV_UNIT,
            "bar-identity-middle": GAMMA_PI,
            **FUSION,
        },
        "zeta[0,1]+1": {
            "gamma-star-zeta-star": TRIVIALITY,
            "zeta-star-comodule-law": ("zeta-module-map", "zeta(iota(b1) e1) != b1 zeta(e1)"),
            "conv-unit-dual": CONV_UNIT,
            "bar-identity-left": GAMMABAR,
            "bar-identity-right": GAMMABAR,
            **FUSION,
        },
        "zeta[1,0]+1": {
            "gamma-star-zeta-star": TRIVIALITY,
            "zeta-star-splits": ZETA_SPLITS,
            "conv-unit-dual": CONV_UNIT,
            "bar-identity-left": GAMMABAR,
            "bar-identity-right": GAMMABAR,
            "btr-zeta-star-form": ZETA_SPLITS,
            **FUSION,
        },
        "gamma[1,0]+1": {
            "gamma-star-zeta-star": TRIVIALITY,
            "gamma-star-splits": GAMMA_SPLITS,
            "gamma-star-module-law": GAMMA_COMODULE,
            "conv-unit-dual": CONV_UNIT,
            "bar-identity-middle": GAMMA_PI,
            **FUSION,
        },
        "gamma_bar[1,0]+1": {
            "bar-identity-left": GAMMABAR,
            "bar-identity-right": GAMMABAR,
            "bar-identity-antipode": GAMMABAR,
            "gammabar-star-mult-law": GAMMABAR,
            "gammabar-star-shift": GAMMABAR,
        },
    },
    "c4": {
        "gamma[0,0]+1": {
            "gamma-star-zeta-star": TRIVIALITY,
            "gamma-star-splits": GAMMA_SPLITS,
            "conv-unit-dual": CONV_UNIT,
            "bar-identity-middle": GAMMA_PI,
            **FUSION,
        },
        "zeta[0,1]+1": {
            "zeta-star-comodule-law": ("zeta-module-map", "zeta(iota(b1) e1) != b1 zeta(e1)"),
            "conv-unit-dual": CONV_UNIT,
            "bar-identity-left": GAMMABAR,
            "bar-identity-right": GAMMABAR,
            "fusion-a": CONV_UNIT,
            "fusion-b": CONV_UNIT,
            "fusion-c": CONV_UNIT,
        },
        "zeta[1,0]+1": {
            "gamma-star-zeta-star": TRIVIALITY,
            "zeta-star-splits": ZETA_SPLITS,
            "zeta-star-comodule-law": ("zeta-module-map", "zeta(iota(b1) e0) != b1 zeta(e0)"),
            "conv-unit-dual": CONV_UNIT,
            "bar-identity-left": GAMMABAR,
            "bar-identity-right": GAMMABAR,
            "btr-zeta-star-form": ZETA_SPLITS,
            **FUSION,
        },
        "gamma[1,0]+1": {
            "gamma-star-zeta-star": TRIVIALITY,
            "gamma-star-splits": GAMMA_SPLITS,
            "gamma-star-module-law": GAMMA_COMODULE,
            "conv-unit-dual": CONV_UNIT,
            "bar-identity-middle": GAMMA_PI,
            **FUSION,
        },
        "gamma_bar[1,0]+1": {
            "bar-identity-left": GAMMABAR,
            "bar-identity-right": GAMMABAR,
            "bar-identity-antipode": GAMMABAR,
            "gammabar-star-mult-law": GAMMABAR,
            "gammabar-star-shift": GAMMABAR,
        },
    },
}


@pytest.mark.parametrize("system", ["taft", "c4"])
def test_deleted_transposes_fail_their_primal_counterparts(system, taft_pams, c4_f7_pams):
    """certify_pams raises after zeta-module-map and the primal checks,
    before the dual side: every perturbation that failed a deleted
    dual-side check fails the primal check it rests on, with the primal
    witness."""
    _, q, p = taft_pams if system == "taft" else c4_f7_pams
    clean, perturbed = _perturbed(p)
    for label, deleted in FAILED_TRANSPOSES[system].items():
        maps = dict(clean, **perturbed[label])
        report = Report("primal")
        w = _module_map_witness(q, maps["zeta"])
        report.add("zeta-module-map", not w, w)
        _check_primal(q, report=report, **maps)
        failures = dict(report.failures())
        for check, (counterpart, witness) in deleted.items():
            assert failures.get(counterpart) == witness, (label, check)
