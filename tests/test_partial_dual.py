"""Left and right partial duals: golden values, isomorphisms, detection."""

import hashlib
from fractions import Fraction
from itertools import permutations

import pytest

from partialdual import hopf
from partialdual.coideal import build_quotient, certify_coideal
from partialdual.examples import (
    MatchedPair,
    bismash_product,
    cyclic,
    direct_product_pair,
    group_algebra,
    matched_pair_hopf,
    s3_pair,
    symmetric,
    taft4,
)
from partialdual.hopf import (
    Algebra, CertificationError, Coalgebra, LinMap, Report, convolution_inverse, dual, power_unit, verify_hopf,
)
from partialdual.linalg import QQ, FieldMismatchError, Matrix, PrimeField, Tensor3, Vector
from partialdual.pams import certify_pams, find_cointegral, induced_pams
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

F5 = PrimeField(5)
F7 = PrimeField(7)


def taft_lpd(field, lam):
    h, bsub, zeta = taft4(field, lam)
    q = build_quotient(bsub)
    p = certify_pams(q, zeta)
    return h, p, left_partial_dual(p)


@pytest.fixture(scope="module")
def taft1():
    return taft_lpd(QQ, 1)


@pytest.fixture(scope="module")
def c4_strict():
    """kC4 over the order-two subgroup: the smallest strictly quasi case."""
    h = group_algebra(cyclic(4), QQ)
    iota = LinMap(Matrix(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]]))
    q = build_quotient(certify_coideal(h, iota))
    p = certify_pams(q, find_cointegral(q))
    return h, p, left_partial_dual(p)


@pytest.mark.parametrize(
    "field, lam",
    [(QQ, 0), (QQ, 1), (QQ, -1), (QQ, 2), (F5, 0), (F5, 3)],
    ids=["q0", "q1", "q-1", "q2", "f5-0", "f5-3"],
)
def test_taft_family_duals_certify(field, lam):
    h, p, qh = taft_lpd(field, lam)
    assert qh.report.ok
    assert qh.dim == 4
    r = right_partial_dual(p, qh)
    assert r.report.ok
    assert detect_hopf(qh).kind == "hopf"


@pytest.mark.parametrize("lam", [0, 1, -1, 2], ids=["0", "1", "-1", "2"])
def test_taft_dual_golden_structure(lam):
    """The lambda family on the basis (f0#1, f0#x, f1#1, f1#x)."""
    _, _, qh = taft_lpd(QQ, lam)
    lam = QQ.coerce(lam)
    e = Vector(QQ, [1, 0, 1, 0])
    f = Vector(QQ, [1, 0, -1, 0])
    x = Vector(QQ, [0, 1, 0, 1])
    fx = Vector(QQ, [0, 1, 0, -1])

    assert qh.algebra.unit == e
    assert qh.multiply(f, f) == e
    assert qh.multiply(x, x).is_zero()
    assert qh.multiply(x, f) == qh.multiply(f, x).scale(QQ.coerce(-1))
    assert qh.multiply(f, x) == fx

    assert qh.comultiply(f) == f.tensor(f) + fx.tensor(e + f.scale(QQ.coerce(-1))).scale(-lam)
    assert qh.comultiply(x) == x.tensor(f) + e.tensor(x) + x.tensor(fx).scale(lam)

    assert qh.coalgebra.counit.dot(e) == QQ.one
    assert qh.coalgebra.counit.dot(f) == QQ.one
    assert qh.coalgebra.counit.dot(x) == QQ.zero

    assert qh.phi == power_unit(qh.algebra, 3)
    assert qh.upsilon == e


@pytest.mark.parametrize("lam", [0, 1, 2], ids=["0", "1", "2"])
def test_taft_dual_golden_antipode(lam):
    _, _, qh = taft_lpd(QQ, lam)
    s1, alpha1, beta1 = qh.antipodes[0]
    s2, alpha2, beta2 = qh.antipodes[1]
    f = Vector(QQ, [1, 0, -1, 0])
    x = Vector(QQ, [0, 1, 0, 1])
    fx = Vector(QQ, [0, 1, 0, -1])

    assert s1 @ f == Vector(QQ, [1, 2 * lam, -1, 0])
    assert s1 @ x == fx
    assert s1 == s2
    # upsilon is the unit here, so both antipodes coincide with T
    assert s1 == qh.t_map
    assert alpha1 == qh.upsilon and beta2 == qh.upsilon
    assert beta1 == qh.algebra.unit and alpha2 == qh.algebra.unit


def four_hopf_algebras():
    return [
        taft4(QQ, 1)[0],
        group_algebra(cyclic(2), QQ),
        group_algebra(symmetric(3), QQ),
        dual(group_algebra(symmetric(3), QQ)),
    ]


@pytest.mark.parametrize("h", four_hopf_algebras(), ids=["taft", "kc2", "ks3", "ks3-dual"])
def test_whole_algebra_coideal_recovers_parent(h):
    """Taking B = H collapses the quotient; the dual must reproduce H."""
    n = h.dim
    q = build_quotient(certify_coideal(h, LinMap.identity(h.field, n)))
    p = certify_pams(q, LinMap.identity(h.field, n))
    qh = left_partial_dual(p)
    assert qh.algebra.mult == h.mult
    assert qh.algebra.unit == h.unit
    assert qh.coalgebra.comult == h.comult
    assert qh.coalgebra.counit == h.counit
    assert qh.t_map == h.antipode
    det = detect_hopf(qh)
    assert det.kind == "hopf" and det.hopf == h


@pytest.mark.parametrize("h", four_hopf_algebras(), ids=["taft", "kc2", "ks3", "ks3-dual"])
def test_trivial_coideal_recovers_dual(h):
    n = h.dim
    iota = LinMap(Matrix.from_columns(h.field, [h.unit], nrows=n))
    q = build_quotient(certify_coideal(h, iota))
    zeta = LinMap(Matrix(h.field, [list(h.counit.entries)]))
    p = certify_pams(q, zeta)
    qh = left_partial_dual(p)
    hs = dual(h)
    assert qh.algebra.mult == hs.mult
    assert qh.algebra.unit == hs.unit
    assert qh.coalgebra.comult == hs.comult
    assert qh.coalgebra.counit == hs.counit
    assert qh.t_map == hs.antipode
    assert detect_hopf(qh).hopf == hs


def test_right_dual_pairs_with_left(taft1):
    """The right dual is the transpose structure of the left dual."""
    _, p, qh = taft1
    r = right_partial_dual(p, qh)
    assert r.report.ok
    rh = dual(r.hopf_view())
    assert rh.mult == qh.algebra.mult
    assert rh.unit == qh.algebra.unit
    assert rh.comult == qh.coalgebra.comult
    assert rh.counit == qh.coalgebra.counit
    assert rh.antipode == qh.t_map


def test_equality_compares_the_tables_by_value():
    """== reads the stored tables by value, whatever their dens: the
    pipeline's duals of Taft-4 at lam = 1/2 and their parsed documents
    carry different dens and are equal; a one-entry bump of the product,
    Delta or phi, or the same system over F_5 (where 1/2 = 3), is not."""
    _, p, qh = taft_lpd(QQ, Fraction(1, 2))
    right = right_partial_dual(p, qh)
    qh2, right2 = parse(serialize(qh)), parse(serialize(right))
    assert qh.coalgebra.int_comult[1] != qh2.coalgebra.int_comult[1]
    assert (qh.int_phi[1], qh.int_phi_inv[1]) != (qh2.int_phi[1], qh2.int_phi_inv[1])
    assert right.algebra.int_terms[1] != right2.algebra.int_terms[1]
    assert qh == qh2 and right == right2
    assert qh.coalgebra == qh2.coalgebra and right.algebra == right2.algebra

    def bump(t):
        data = [[list(row) for row in plane] for plane in t.data]
        data[0][1][1] += 1
        return Tensor3(t.field, data)

    a, c = qh.algebra, qh.coalgebra
    assert Algebra(QQ, bump(a.mult), a.unit) != a
    assert Coalgebra(QQ, bump(c.comult), c.counit) != c
    phi = list(qh.phi.entries)
    phi[0] += 1
    parts = qh.t_map, qh.upsilon, qh.antipodes, qh.pams, qh.report
    assert QuasiHopfAlgebra(a, c, Vector(QQ, phi), qh.phi_inv, *parts) != qh
    assert QuasiHopfAlgebra(a, c, qh.phi, qh.phi_inv, *parts) == qh
    _, p5, qh5 = taft_lpd(F5, 3)
    assert qh5 != qh and qh5.algebra != a and qh5.coalgebra != c
    assert right_partial_dual(p5, qh5) != right


@pytest.mark.parametrize("lam", [0, 1], ids=["0", "1"])
def test_biop_isomorphism(lam):
    _, p, qh = taft_lpd(QQ, lam)
    qb = left_partial_dual(induced_pams(p, "biop-dual"))
    rep = biop_iso_check(qh, qb)
    assert rep.ok
    assert len(rep.checks) == 17


@pytest.mark.parametrize("lam", [0, 1], ids=["0", "1"])
def test_op_antiisomorphism_and_cop_coincidence(lam):
    _, p, qh = taft_lpd(QQ, lam)
    qo = left_partial_dual(induced_pams(p, "op"))
    rep = op_iso_check(qh, qo)
    assert rep.ok
    # both rows induce the very same quasi-Hopf algebra
    assert qo == left_partial_dual(induced_pams(p, "cop"))


def test_corrupted_biop_target_is_rejected(taft1):
    _, p, qh = taft1
    qb = left_partial_dual(induced_pams(p, "biop-dual"))
    bad_phi = list(qb.phi.entries)
    bad_phi[0] = bad_phi[0] + QQ.one
    corrupt = QuasiHopfAlgebra(
        qb.algebra,
        qb.coalgebra,
        Vector(QQ, bad_phi),
        qb.phi_inv,
        qb.t_map,
        qb.upsilon,
        qb.antipodes,
        qb.pams,
        qb.report,
    )
    with pytest.raises(CertificationError) as exc:
        biop_iso_check(qh, corrupt)
    assert exc.value.kind == "mismatch"
    assert "associator-transport" in exc.value.witness


def test_iso_checks_require_mapping_data(taft1):
    _, _, qh = taft1
    bare = QuasiHopfAlgebra(
        qh.algebra,
        qh.coalgebra,
        qh.phi,
        qh.phi_inv,
        qh.t_map,
        qh.upsilon,
        qh.antipodes,
        None,
        qh.report,
    )
    with pytest.raises(ValueError):
        biop_iso_check(bare, qh)
    with pytest.raises(ValueError):
        op_iso_check(bare, qh)


def test_verify_quasi_hopf_rejects_a_comultiplication_over_another_field(taft1):
    """Kernel outputs skip coercion, so a comultiplication over F_5 under
    an algebra over Q must still meet a field check."""
    _, _, qh = taft1
    mixed = QuasiHopfAlgebra(
        qh.algebra,
        taft_lpd(F5, 1)[2].coalgebra,
        qh.phi,
        qh.phi_inv,
        qh.t_map,
        qh.upsilon,
        qh.antipodes,
        qh.pams,
        qh.report,
    )
    with pytest.raises(FieldMismatchError):
        verify_quasi_hopf(mixed)


def _over(field, x):
    """A Vector or Matrix with the same integer entries over another field."""
    if isinstance(x, Vector):
        return Vector(field, [int(c) for c in x.entries])
    return Matrix(field, [[int(c) for c in row] for row in x.rows])


@pytest.mark.parametrize("part", ["t_map", "upsilon", "antipodes", "phi", "phi_inv"])
def test_verify_quasi_hopf_rejects_a_preantipode_over_another_field(part):
    """The preantipode, upsilon, both antipode triples and both associators
    meet the same field check as Delta: kC2 over Q with the integer entries
    of one of them over F_7 raises instead of passing.  phi and phi^-1 are
    checked by the constructor, which converts them to integer tables; the
    rest by verify_quasi_hopf."""
    h = group_algebra(cyclic(2), QQ)
    ident = LinMap.identity(QQ, 2)
    qh = left_partial_dual(certify_pams(build_quotient(certify_coideal(h, ident)), ident))
    parts = {name: getattr(qh, name) for name in ("phi", "phi_inv", "t_map", "upsilon", "antipodes")}
    if part == "antipodes":
        parts[part] = tuple(tuple(_over(F7, x) for x in triple) for triple in qh.antipodes)
    else:
        parts[part] = _over(F7, parts[part])
    with pytest.raises(FieldMismatchError):
        verify_quasi_hopf(QuasiHopfAlgebra(qh.algebra, qh.coalgebra, **parts, pams=qh.pams, report=qh.report))


def test_public_constructor_rejects_wrongly_shaped_associators_and_preantipode(taft1):
    """phi and phi^-1 of other than dim^3 entries, and a T that is not
    dim x dim, are refused as Algebra refuses a unit of the wrong length.
    They used to be accepted, and verify_quasi_hopf then passed Taft-4 with
    both associators padded by zeros, phi cut by its last (zero) entry, or T
    given an extra zero row or column."""
    _, _, qh = taft1
    n, zero = qh.dim, QQ.zero
    phi, bar, rows = list(qh.phi.entries), list(qh.phi_inv.entries), [list(row) for row in qh.t_map.rows]
    assert phi[-1] == zero
    shapes = [
        {"phi": phi + [zero], "phi_inv": bar + [zero]},
        {"phi": phi + [zero] * n**3, "phi_inv": bar + [zero] * n**3},
        {"phi": phi[:-1]},
        {"t_map": Matrix(QQ, rows + [[zero] * n])},
        {"t_map": Matrix(QQ, [row + [zero] for row in rows])},
    ]
    for changes in shapes:
        parts = {"phi": qh.phi, "phi_inv": qh.phi_inv, "t_map": qh.t_map}
        parts.update({k: Vector(QQ, v) if k != "t_map" else v for k, v in changes.items()})
        with pytest.raises(ValueError):
            QuasiHopfAlgebra(qh.algebra, qh.coalgebra, **parts, upsilon=qh.upsilon, antipodes=qh.antipodes,
                             pams=qh.pams, report=qh.report)


def _trivial_coideal_lpd(h):
    """The left partial dual of h over k1 with zeta = eps: its associator is dense."""
    q = build_quotient(certify_coideal(h, LinMap(Matrix.from_columns(h.field, [h.unit], nrows=h.dim))))
    return left_partial_dual(certify_pams(q, LinMap(Matrix(h.field, [list(h.counit.entries)]))))


@pytest.mark.parametrize("system", ["taft", "kc4-over-k1"])
def test_verify_quasi_hopf_builds_no_vector_of_four_legs(system, monkeypatch):
    """The pentagon and its operands 1 (x) phi and phi (x) 1 stay in sparse
    form: no Vector of length nd**4 is built."""
    qh = taft_lpd(QQ, 1)[2] if system == "taft" else _trivial_coideal_lpd(group_algebra(cyclic(4), QQ))
    nd = qh.dim
    assert system == "taft" or all(qh.phi), "phi is dense"
    lengths = []
    build = Vector.__dict__["_of"].__func__

    def counting(cls, field, entries):
        v = build(cls, field, entries)
        lengths.append(len(v))
        return v

    monkeypatch.setattr(Vector, "_of", classmethod(counting))
    report = verify_quasi_hopf(qh)
    monkeypatch.undo()
    assert report.ok and lengths
    assert nd**4 not in lengths


def test_unit_view_is_built_once_per_algebra(monkeypatch):
    """The pentagon's _with_unit view is held by the algebra: the build in
    left_partial_dual's verification serves verify_quasi_hopf on the same qh."""
    built = []
    with_unit = hopf._with_unit

    def counting(a):
        built.append(a)
        return with_unit(a)

    monkeypatch.setattr(hopf, "_with_unit", counting)
    qh = _trivial_coideal_lpd(group_algebra(cyclic(4), QQ))
    assert verify_quasi_hopf(qh).ok
    assert len(built) == 1 and built[0] is qh.algebra


def test_verify_quasi_hopf_applies_the_preantipode_once(monkeypatch):
    """T is read once, as the integer table of its columns: T(e_i e_j) and
    T(1) are summed from it over the nonzero products, so on kS3 over kC2
    no Matrix @ Vector product is left."""
    h = group_algebra(symmetric(3), QQ)
    iota = LinMap(Matrix.from_columns(QQ, [h.basis(0), h.basis(1)], nrows=6))
    q = build_quotient(certify_coideal(h, iota))
    qh = left_partial_dual(certify_pams(q, find_cointegral(q)))
    applied = []
    matmul = Matrix.__matmul__

    def counting(self, other):
        if isinstance(other, Vector):
            applied.append(len(other))
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    report = verify_quasi_hopf(qh)
    monkeypatch.undo()
    assert report.ok
    assert applied == []


def test_detection_reads_the_verifier_report(taft1):
    """detect_hopf verifies nothing again: verify_quasi_hopf's passed checks
    at phi = 1 (x) 1 (x) 1 imply verify_hopf's and upsilon = 1, and a qh
    whose report is empty or failed is refused."""
    _, _, qh = taft1
    det = detect_hopf(qh)
    assert det.report.checks == [("associator-trivial", True, "")]
    assert verify_hopf(det.hopf).ok and qh.upsilon == qh.algebra.unit
    failed = Report("failed")
    failed.add("pentagon", False, "pentagon identity")
    parts = qh.algebra, qh.coalgebra, qh.phi, qh.phi_inv, qh.t_map, qh.upsilon, qh.antipodes, qh.pams
    for report in (Report("empty"), failed):
        with pytest.raises(ValueError, match="verify_quasi_hopf"):
            detect_hopf(QuasiHopfAlgebra(*parts, report))


def test_quasi_hopf_results_refuse_attribute_assignment():
    """detect_hopf trusts qh.report, so a verified qh must not take a new
    preantipode afterwards: on the whole kC3 over Q, T = id would pass as
    the antipode of a "hopf" detection that fails antipode-left.  Both
    partial duals refuse assignment, as Algebra and HopfAlgebra do."""
    h = group_algebra(cyclic(3), QQ)
    q = build_quotient(certify_coideal(h, LinMap.identity(QQ, 3)))
    p = certify_pams(q, LinMap.identity(QQ, 3))
    qh = left_partial_dual(p)
    with pytest.raises(AttributeError, match="QuasiHopfAlgebra is immutable"):
        qh.t_map = Matrix.identity(QQ, 3)
    assert qh.t_map == h.antipode and detect_hopf(qh).hopf == h
    right = right_partial_dual(p, qh)
    with pytest.raises(AttributeError, match="CoquasiHopfAlgebra is immutable"):
        right.algebra = qh.algebra
    assert right.report.ok


def test_strictly_quasi_detection(c4_strict):
    _, p, qh = c4_strict
    assert qh.report.ok
    assert qh.phi != power_unit(qh.algebra, 3)
    assert qh.upsilon == Vector(QQ, [1, 0, 0, 1])
    assert qh.upsilon != qh.algebra.unit
    # upsilon is still invertible, so antipodes exist even here
    assert qh.upsilon_invertible
    det = detect_hopf(qh)
    assert det.kind == "strictly-quasi"
    assert det.hopf is None
    assert det.diagnostics == {
        "zeta-bialgebra-map": False,
        "gamma-bialgebra-map": False,
        "zeta-algebra-gamma-coalgebra": False,
    }
    assert right_partial_dual(p, qh).report.ok


def test_left_report_is_the_verifiers(taft1, c4_strict):
    """The construction adds no check of its own: the left report is
    exactly the intrinsic verifier's checks, in order, under the
    constructor's title."""
    for _, _, qh in (taft1, c4_strict):
        verifier = [name for name, _, _ in verify_quasi_hopf(qh).checks]
        assert [name for name, _, _ in qh.report.checks] == verifier
        assert qh.report.title.startswith("left partial dual")


def test_every_reader_takes_delta_from_the_stored_coalgebra(taft1, monkeypatch):
    """A quasi-Hopf algebra holds its Delta as one Coalgebra: verifying it
    builds no second Coalgebra and decodes no dense tensor (_flat, the
    one decoder, is not called), and neither do verify_hopf and
    convolution_inverse on a built one."""
    h = group_algebra(cyclic(4), F7)
    q = build_quotient(certify_coideal(h, LinMap(Matrix(F7, [[1, 0], [0, 0], [0, 1], [0, 0]]))))
    built = [taft1[2], left_partial_dual(certify_pams(q, find_cointegral(q)))]
    counts = {"Coalgebra": 0, "_flat": 0}
    init, of, flat = Coalgebra.__init__, Coalgebra.__dict__["_of"].__func__, hopf._flat

    def counting_init(self, *args):
        counts["Coalgebra"] += 1
        init(self, *args)

    def counting_of(cls, *args):
        counts["Coalgebra"] += 1
        return of(cls, *args)

    def counting_flat(*args):
        counts["_flat"] += 1
        return flat(*args)

    monkeypatch.setattr(Coalgebra, "__init__", counting_init)
    monkeypatch.setattr(Coalgebra, "_of", classmethod(counting_of))
    monkeypatch.setattr(hopf, "_flat", counting_flat)
    for qh in built:
        assert verify_quasi_hopf(qh).ok
    assert counts == {"Coalgebra": 0, "_flat": 0}
    assert verify_hopf(h).ok
    convolution_inverse(LinMap.identity(F7, 4), h.coalgebra, h.algebra)
    assert counts == {"Coalgebra": 0, "_flat": 0}


def test_readers_and_transports_reuse_the_parts_they_hold(taft1, monkeypatch):
    """detect_hopf and hopf_view assemble their Hopf algebra from the
    Algebra and Coalgebra they hold; opposite keeps the parent's Coalgebra
    and coopposite its Algebra."""
    h, p, qh = taft1
    right = right_partial_dual(p, qh)
    built = []

    def counting(cls):  # both the public constructor and the trusted _of
        init, of = cls.__init__, cls.__dict__["_of"].__func__

        def counting_init(self, *args):
            built.append(cls.__name__)
            init(self, *args)

        def counting_of(klass, *args):
            built.append(cls.__name__)
            return of(klass, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
        monkeypatch.setattr(cls, "_of", classmethod(counting_of))

    counting(hopf.Algebra)
    counting(Coalgebra)
    detected = detect_hopf(qh).hopf
    assert detected.algebra is qh.algebra and detected.coalgebra is qh.coalgebra
    view = right.hopf_view()
    assert view.algebra is right.algebra and view.coalgebra is right.coalgebra
    assert built == []
    assert hopf.opposite(h).coalgebra is h.coalgebra
    assert built == ["Algebra"]
    assert hopf.coopposite(h).algebra is h.algebra
    assert built == ["Algebra", "Coalgebra"]


def test_strictly_quasi_transports(c4_strict):
    """The biop and op mappings hold with a nontrivial associator too."""
    _, p, qh = c4_strict
    qb = left_partial_dual(induced_pams(p, "biop-dual"))
    assert biop_iso_check(qh, qb).ok
    qo = left_partial_dual(induced_pams(p, "op"))
    assert op_iso_check(qh, qo).ok
    assert qo == left_partial_dual(induced_pams(p, "cop"))


def test_coset_retraction_gives_same_dual(c4_strict):
    h, _, qh = c4_strict
    iota = LinMap(Matrix(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]]))
    q = build_quotient(certify_coideal(h, iota))
    zeta = LinMap(Matrix(QQ, [[1, 1, 0, 0], [0, 0, 1, 1]]))
    p = certify_pams(q, zeta)
    other = left_partial_dual(p)
    assert other.upsilon == qh.upsilon
    assert detect_hopf(other).kind == "strictly-quasi"


def test_preantipode_normalization_lands_on_beta_alpha():
    """Hand computation in the two-dimensional quasi group algebra.

    Basis (1, g) with g*g = 1, associator 1 - 2 p x p x p for the
    idempotent p = (1 - g)/2, antipode the identity with alpha = g and
    beta = 1.  The preantipode is T(u) = u g.  Contracting T against the
    associator legs gives the unit on one side but beta alpha = g on the
    other, which is what the engine asserts in general.
    """
    one, half = QQ.one, QQ.coerce(1) / QQ.coerce(2)

    def gmul(u, v):
        return (u[0] * v[0] + u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    def tmap(u):
        return gmul(u, (QQ.zero, one))

    basis = ((one, QQ.zero), (QQ.zero, one))
    p = (half, -half)
    phi = {}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                c = -2 * p[i] * p[j] * p[k]
                if (i, j, k) == (0, 0, 0):
                    c = c + one
                phi[(i, j, k)] = c

    # the associator squares to the unit, so it is its own inverse
    square = {}
    for (i, j, k), c in phi.items():
        for (a, b, d), c2 in phi.items():
            key = (i ^ a, j ^ b, k ^ d)
            square[key] = square.get(key, QQ.zero) + c * c2
    assert square[(0, 0, 0)] == one
    assert all(c == QQ.zero for key, c in square.items() if key != (0, 0, 0))

    first = (QQ.zero, QQ.zero)
    second = (QQ.zero, QQ.zero)
    for (i, j, k), c in phi.items():
        t1 = gmul(gmul(basis[i], tmap(basis[j])), basis[k])
        t2 = gmul(gmul(tmap(basis[i]), basis[j]), tmap(basis[k]))
        first = (first[0] + c * t1[0], first[1] + c * t1[1])
        second = (second[0] + c * t2[0], second[1] + c * t2[1])
    assert first == (one, QQ.zero)
    assert second == (QQ.zero, one)

    # T is the genuine preantipode: both one-sided module identities hold
    for i in range(2):
        for j in range(2):
            lhs = gmul(tmap(gmul(basis[i], basis[j])), basis[i])
            rhs = gmul(basis[i], tmap(gmul(basis[j], basis[i])))
            assert lhs == tmap(basis[j])
            assert rhs == tmap(basis[j])


def test_bialgebra_projection_diagnostics():
    h, _, zeta_full = taft4(QQ, 1)
    iota = LinMap(
        Matrix.from_columns(QQ, [Vector.basis(QQ, 4, 0), Vector.basis(QQ, 4, 1)], nrows=4)
    )
    q = build_quotient(certify_coideal(h, iota))
    p = certify_pams(q, find_cointegral(q))
    qh = left_partial_dual(p)
    det = detect_hopf(qh)
    assert det.kind == "hopf"
    assert det.diagnostics["zeta-bialgebra-map"] is True
    assert det.diagnostics["gamma-bialgebra-map"] is False
    assert qh.upsilon == qh.algebra.unit


@pytest.mark.parametrize("pair", [s3_pair(), direct_product_pair(cyclic(2), cyclic(3))], ids=["s3", "c2xc3"])
def test_bismash_matches_left_dual(pair):
    h, bsub, p = matched_pair_hopf(pair, QQ)
    qh = left_partial_dual(p)
    det = detect_hopf(qh)
    assert det.kind == "hopf"
    assert det.hopf == bismash_product(pair, QQ)
    r = right_partial_dual(p, qh)
    assert dual(bismash_product(pair, QQ)) == r.hopf_view()


def s4_pair() -> MatchedPair:
    """The exact factorization S4 = S3 C4, S3 fixing the letter 3 and C4
    generated by the 4-cycle 0 -> 1 -> 2 -> 3 -> 0: both actions come from
    factoring x c = (x |> c)(x <| c) in S4, and x |> c is not always c."""
    s4, f, g = symmetric(4), symmetric(3), cyclic(4)
    perms = sorted(permutations(range(4)))
    f_in = [perms.index(s + (3,)) for s in sorted(permutations(range(3)))]
    cycle = [perms.index(tuple((k + r) % 4 for k in range(4))) for r in range(4)]
    factor = {s4.mul(f_in[b], cycle[x]): (b, x) for b in range(f.order) for x in range(g.order)}
    pairs = [[factor[s4.mul(cycle[x], f_in[c])] for c in range(f.order)] for x in range(g.order)]
    return MatchedPair(f, g, [[b for b, _ in row] for row in pairs], [[y for _, y in row] for row in pairs])


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_matched_pair_with_nontrivial_action_on_f_certifies(field):
    """Regression: matched_pair_hopf's zeta must be a left kF-module map,
    so (b, y) = (b, 1)(1, y) goes to b.  Its F-component of the reverse
    factorization (b, y) = (1, y')(c, 1) is a right module map, which
    failed zeta-module-map on this pair."""
    m = s4_pair()
    assert any(m.act_on_f[x][c] != c for x in range(m.g.order) for c in range(m.f.order))
    _, _, p = matched_pair_hopf(m, field)
    det = detect_hopf(left_partial_dual(p))
    assert det.kind == "hopf"
    assert det.hopf == bismash_product(m, field)


def test_dim12_pipeline_documents_are_pinned():
    """Scale rung: k(S3 x C2) over kK for K = S3 x {e} (dim 12 over Q).

    Every stage runs, including the 3,468 x 144 preantipode system, and the
    PAMS, left and right documents hash to the digest recorded before
    elimination went sparse.
    """
    g = symmetric(3).direct_product(cyclic(2))
    h = group_algebra(g, QQ)
    k = [a * 2 for a in range(6)]  # (s, e) is indexed s * 2 + 0
    b = certify_coideal(h, LinMap(Matrix.from_columns(QQ, [h.basis(i) for i in k], nrows=h.dim)))
    q = build_quotient(b)
    p = certify_pams(q, find_cointegral(q))
    left = left_partial_dual(p)
    right = right_partial_dual(p, left)
    text = "".join(serialize(x) for x in (p, left, right))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e4ec5788c2554a71a449f935d0cf77e14fc0d76ad9d292b23e4109670e4947f9"
    )
