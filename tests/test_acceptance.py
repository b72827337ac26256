"""Acceptance gate: ten end-to-end criteria, one test (and one line) each.

Everything here is bit-exact; the two timed criteria assert wall-clock
bounds on top.  The corpus deliberately reuses the library's own entry
points rather than test-local shortcuts, so a regression anywhere in
the pipeline surfaces as a failed criterion.
"""

import hashlib
import time
from itertools import permutations
from pathlib import Path

import pytest

from partialdual.coideal import build_quotient, certify_coideal
from partialdual.examples import (
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
    CertificationError,
    Coalgebra,
    LinMap,
    convolution_inverse,
    dual,
    power_unit,
)
from partialdual.linalg import QQ, Matrix, PrimeField, Vector
from partialdual.pams import INDUCED_KINDS, certify_pams, find_cointegral, induced_pams
from partialdual.partial_dual import (
    QuasiHopfAlgebra,
    biop_iso_check,
    detect_hopf,
    left_partial_dual,
    op_iso_check,
    right_partial_dual,
    verify_quasi_hopf,
)
from partialdual.serialize import parse, serialize

GOLDEN = Path(__file__).parent / "golden"


def taft_pipeline(field, lam):
    h, b, zeta = taft4(field, lam)
    p = certify_pams(build_quotient(b), zeta)
    return h, p, left_partial_dual(p)


def whole_algebra_pams(h):
    ident = LinMap.identity(h.field, h.dim)
    q = build_quotient(certify_coideal(h, ident))
    return certify_pams(q, ident)


def trivial_coideal_pams(h):
    iota = LinMap(Matrix.from_columns(h.field, [h.unit], nrows=h.dim))
    q = build_quotient(certify_coideal(h, iota))
    return certify_pams(q, LinMap(Matrix(h.field, [list(h.counit.entries)])))


def split_projection_cases():
    s3 = group_algebra(symmetric(3), QQ)
    perms = sorted(permutations(range(3)))
    parity = lambda p: sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j]) % 2
    pi = LinMap(Matrix(QQ, [[1 if parity(p) == y else 0 for p in perms] for y in range(2)]))
    gamma = LinMap(Matrix.from_columns(QQ, [s3.basis(0), s3.basis(2)], nrows=6))
    sign_case = pams_from_split_projection(s3, group_algebra(cyclic(2), QQ), pi, gamma)

    taft = taft4(QQ, 1)[0]
    pi_t = LinMap(Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    gamma_t = LinMap(Matrix.from_columns(QQ, [taft.basis(0), taft.basis(1)], nrows=4))
    taft_case = pams_from_split_projection(taft, group_algebra(cyclic(2), QQ), pi_t, gamma_t)
    return [sign_case, taft_case]


@pytest.fixture(scope="module")
def four_hopf():
    s3 = group_algebra(symmetric(3), QQ)
    return [taft4(QQ, 1)[0], group_algebra(cyclic(2), QQ), s3, dual(s3)]


@pytest.fixture(scope="module")
def corpus_pams(four_hopf):
    """Every certified mapping system the acceptance criteria quantify over."""
    systems = [taft_pipeline(QQ, lam)[1] for lam in (0, 1, -1, 2)]
    systems += [taft_pipeline(PrimeField(5), lam)[1] for lam in (0, 3)]
    for h in four_hopf:
        systems.append(whole_algebra_pams(h))
        systems.append(trivial_coideal_pams(h))
    systems.append(matched_pair_hopf(s3_pair(), QQ)[2])
    systems.append(matched_pair_hopf(direct_product_pair(cyclic(2), cyclic(3)), QQ)[2])
    systems += split_projection_cases()
    return systems


def test_criterion_1_taft_golden_family():
    for field, lams in ((QQ, (0, 1, -1, 2)), (PrimeField(5), (0, 3))):
        for lam_raw in lams:
            start = time.perf_counter()
            h, p, qh = taft_pipeline(field, lam_raw)
            lam = field.coerce(lam_raw)
            one = field.one

            # the section sends the class of g to (1 - lam x) g = g - lam xg
            assert p.gamma.matrix.column(0) == h.basis(0)
            assert p.gamma.matrix.column(1) == Vector(field, [0, 1, 0, -lam])

            e = Vector(field, [1, 0, 1, 0])
            f = Vector(field, [1, 0, -1, 0])
            x = Vector(field, [0, 1, 0, 1])
            fx = Vector(field, [0, 1, 0, -1])
            assert qh.algebra.unit == e
            assert qh.multiply(f, f) == e
            assert qh.multiply(x, x).is_zero()
            assert qh.multiply(x, f) == fx.scale(field.coerce(-1))
            assert qh.comultiply(f) == f.tensor(f) + fx.tensor(e + f.scale(field.coerce(-1))).scale(-lam)
            assert qh.comultiply(x) == x.tensor(f) + e.tensor(x) + x.tensor(fx).scale(lam)
            assert qh.phi == power_unit(qh.algebra, 3)
            assert qh.upsilon == e

            s1 = qh.antipodes[0][0]
            assert s1 @ f == f + (x + fx).scale(lam)
            assert s1 @ x == fx
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"Taft item over {field.descriptor}, lambda={lam_raw}: {elapsed:.2f} s"


# SHA-256 of the list of detect_hopf diagnostics over the corpus, in order
CORPUS_DIAGNOSTICS = "71c2c102ffcbaf8afe2c4c580af7815c48692744fb89df6c7ac65dc0df4d5678"
# SHA-256 of the PAMS, left and right documents of every corpus item, concatenated in order
CORPUS_DOCUMENTS = "4ce9393a2a82873a2ec90272640e85e2ca329ddd1f31375cce0e3361f9673f61"


def test_criterion_2_quasi_hopf_axiom_suite(corpus_pams):
    diagnostics, documents = [], hashlib.sha256()
    for i, p in enumerate(corpus_pams):
        start = time.perf_counter()
        qh = left_partial_dual(p)
        report = verify_quasi_hopf(qh)
        assert report.ok, report.render()
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"corpus item {i} {p!r}: {elapsed:.2f} s"
        diagnostics.append(detect_hopf(qh).diagnostics)
        for doc in (serialize(p), serialize(qh), serialize(right_partial_dual(p, qh))):
            documents.update(doc.encode())
    assert hashlib.sha256(repr(diagnostics).encode()).hexdigest() == CORPUS_DIAGNOSTICS
    assert documents.hexdigest() == CORPUS_DOCUMENTS


def test_criterion_3_trivial_coideals(four_hopf):
    for h in four_hopf:
        back = left_partial_dual(whole_algebra_pams(h))
        assert back.algebra.mult == h.mult
        assert back.algebra.unit == h.unit
        assert back.coalgebra.comult == h.comult
        assert back.coalgebra.counit == h.counit
        assert back.t_map == h.antipode

        hs = dual(h)
        flip = left_partial_dual(trivial_coideal_pams(h))
        assert flip.algebra.mult == hs.mult
        assert flip.algebra.unit == hs.unit
        assert flip.coalgebra.comult == hs.comult
        assert flip.coalgebra.counit == hs.counit
        assert flip.t_map == hs.antipode


def test_criterion_4_dimension_law(corpus_pams):
    for p in corpus_pams:
        q = p.quotient
        assert q.parent.dim == q.coideal.dim * q.dim


def test_criterion_5_bismash_equality():
    for m in (s3_pair(), direct_product_pair(cyclic(2), cyclic(3))):
        _, _, p = matched_pair_hopf(m, QQ)
        det = detect_hopf(left_partial_dual(p))
        assert det.kind == "hopf"
        assert det.hopf == bismash_product(m, QQ)
        assert dual(det.hopf) == right_partial_dual(p).hopf_view()


def test_criterion_6_left_right_duality():
    cases = [taft_pipeline(QQ, 0)[1:], taft_pipeline(QQ, 1)[1:]]
    p_s3 = matched_pair_hopf(s3_pair(), QQ)[2]
    cases.append((p_s3, left_partial_dual(p_s3)))
    for p, qh in cases:
        paired = dual(right_partial_dual(p, qh).hopf_view())
        assert paired.mult == qh.algebra.mult
        assert paired.unit == qh.algebra.unit
        assert paired.comult == qh.coalgebra.comult
        assert paired.counit == qh.coalgebra.counit
        assert paired.antipode == qh.t_map


def test_criterion_7_transport_isomorphisms():
    for lam in (0, 1):
        _, p, qh = taft_pipeline(QQ, lam)
        assert biop_iso_check(qh, left_partial_dual(induced_pams(p, "biop-dual"))).ok
        qo = left_partial_dual(induced_pams(p, "op"))
        assert op_iso_check(qh, qo).ok
        assert qo == left_partial_dual(induced_pams(p, "cop"))

    # negative controls: one perturbed entry must be caught with a witness
    _, p, qh = taft_pipeline(QQ, 1)
    target = left_partial_dual(induced_pams(p, "biop-dual"))
    bent = list(target.phi.entries)
    bent[0] = bent[0] + QQ.one
    broken = QuasiHopfAlgebra(
        target.algebra, target.coalgebra, Vector(QQ, bent), target.phi_inv,
        target.t_map, target.upsilon, target.antipodes, target.pams, target.report,
    )
    with pytest.raises(CertificationError) as err:
        biop_iso_check(qh, broken)
    assert err.value.witness

    q_op = left_partial_dual(induced_pams(p, "op"))
    tilted = list(q_op.phi.entries)
    tilted[0] = tilted[0] + QQ.one
    broken_op = QuasiHopfAlgebra(
        q_op.algebra, q_op.coalgebra, Vector(QQ, tilted), q_op.phi_inv,
        q_op.t_map, q_op.upsilon, q_op.antipodes, q_op.pams, q_op.report,
    )
    with pytest.raises(CertificationError) as err:
        op_iso_check(qh, broken_op)
    assert err.value.witness


PAMS_CHECKS = [
    # zeta, gamma and their inverses
    "zeta-module-map", "zeta-biunitary", "zeta-invertible", "gamma-invertible",
    # the primal identities
    "gamma-comodule-map", "gamma-biunitary", "zetabar-biunitary", "gammabar-biunitary",
    "conv-unit", "zeta-splits-iota", "gamma-splits-pi", "gamma-pi-convolution",
    "gammabar-formula", "zeta-gamma-triviality", "pi-s-inv-iota-trivial",
]


def test_criterion_8_pams_identity_suite(corpus_pams):
    for p in corpus_pams:
        assert p.report.ok, p.report.render()
        assert [name for name, _, _ in p.report.checks] == PAMS_CHECKS
    _, p, _ = taft_pipeline(QQ, 1)
    for kind in INDUCED_KINDS:
        assert induced_pams(p, kind).report.ok, kind


def test_criterion_9_convolution_oracle(four_hopf):
    h, b, zeta = taft4(QQ, 1)
    hc = Coalgebra(QQ, h.comult, h.counit)
    zbar = convolution_inverse(zeta, hc, b.algebra)
    one_b = Vector(QQ, [1, 0])
    x_b = Vector(QQ, [0, 1])
    assert zbar(h.basis(0)) == one_b
    assert zbar(h.basis(1)) == one_b + x_b.scale(QQ.coerce(-1))
    assert zbar(h.basis(2)) == x_b.scale(QQ.coerce(-1))
    assert zbar(h.basis(3)) == x_b.scale(QQ.coerce(-1))

    for hopf in four_hopf:
        ident = LinMap.identity(hopf.field, hopf.dim)
        alg = left_partial_dual(whole_algebra_pams(hopf)).algebra
        coalg = Coalgebra(hopf.field, hopf.comult, hopf.counit)
        assert convolution_inverse(ident, coalg, alg).matrix == hopf.antipode


def test_criterion_10_serialization(four_hopf, corpus_pams):
    h, b, zeta = taft4(QQ, 1)
    p = certify_pams(build_quotient(b), zeta)
    qh = left_partial_dual(p)
    objects = [h, b, p, qh, right_partial_dual(p, qh), s3_pair()]
    for obj in objects:
        text = serialize(obj)
        assert serialize(parse(text)) == text

    assert serialize(p) == (GOLDEN / "taft4_lambda1_pams.json").read_text()
    assert serialize(qh) == (GOLDEN / "taft4_lambda1_quasihopf.json").read_text()

    # the search result for this coideal is seed-independent
    q = build_quotient(b)
    found = {serialize(certify_pams(q, find_cointegral(q, {"seed": s}))) for s in (0, 11, 202)}
    assert len(found) == 1
