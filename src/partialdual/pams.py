"""Partially admissible mapping systems.

A PAMS on a left coideal subalgebra B of H couples a biunitary left
B-module map zeta : H -> B with a biunitary comodule splitting
gamma : C -> H of the quotient C = H / B+ H, tied together by the
convolution identity (iota zeta) * (gamma pi) = id_H.  This module
finds zeta by exact linear algebra, normalizes it, derives gamma and
both convolution inverses, certifies the identity suite on H, B and
C, and builds the six induced systems living on the opposite,
co-opposite and dual Hopf algebras.

Certification takes H, iota and pi as certified by certify_coideal and
build_quotient, which alone construct its input.  The identities on
H*, B* and C* that the partial dualization uses as lemmas follow from
the certified data; certify_pams proves them rather than checking them.
"""

from __future__ import annotations

import itertools
import random

from .coideal import (
    CoidealQuotient,
    _certify_inclusion,
    _dual_section,
    build_quotient,
)
from .hopf import (
    INDUCED_KINDS,
    CertificationError,
    LinMap,
    Report,
    _cut,
    _flat_rows,
    _leg_map,
    _legs_product,
    _pairs,
    _slice_mismatch,
    _stacked,
    _then,
    _transposed,
    biopposite,
    convolution_inverse,
    convolution_product,
    convolution_unit,
    coopposite,
    flat_nonzeros,
    opposite,
)
from .linalg import (
    Elimination,
    Field,
    Matrix,
    Vector,
    _columns,
    _functional,
    _matrix,
    _scalars,
    _sparse,
)

__all__ = [
    "INDUCED_KINDS",
    "Pams",
    "biunitarize",
    "certify_pams",
    "cointegral_space",
    "find_cointegral",
    "gamma_from_zeta",
    "induced_pams",
]

# held only by certify_pams, the certifier
_CERTIFIED = object()


class Pams:
    """A certified partially admissible mapping system.

    Bundles the quotient data with zeta, gamma and their convolution
    inverses; `report` records every identity that was verified.  Only
    certify_pams holds the token the constructor asks for, so every Pams
    in hand passed its checks.
    """

    def __init__(
        self,
        token: object,
        quotient: CoidealQuotient,
        zeta: LinMap,
        gamma: LinMap,
        zeta_bar: LinMap,
        gamma_bar: LinMap,
        report: Report,
    ):
        if token is not _CERTIFIED:
            raise TypeError("Pams is built only by certify_pams")
        self.quotient = quotient
        self.coideal = quotient.coideal
        self.parent = quotient.parent
        self.zeta = zeta
        self.gamma = gamma
        self.zeta_bar = zeta_bar
        self.gamma_bar = gamma_bar
        self.report = report

    @property
    def field(self) -> Field:
        return self.parent.field

    def __repr__(self) -> str:
        return (
            f"Pams(dim B={self.coideal.dim}, dim C={self.quotient.dim},"
            f" dim H={self.parent.dim} over {self.field.descriptor})"
        )


def _shape_guard(q: CoidealQuotient, zeta: LinMap) -> None:
    if zeta.source != q.parent.dim or zeta.target != q.coideal.dim:
        raise CertificationError(
            "zeta-shape",
            f"zeta must be {q.coideal.dim} x {q.parent.dim},"
            f" got {zeta.target} x {zeta.source}",
        )


def _module_map(q: CoidealQuotient, zeta: LinMap) -> tuple[bool, str]:
    """(ok, witness) of zeta(iota(b_i) e_j) = b_i zeta(e_j): slice i at
    (j, t), the b_t coordinate of both sides for every e_j."""
    h, bsub = q.parent, q.coideal
    n, bdim = h.dim, bsub.dim
    (included, den), rows, z = _columns(bsub.iota.matrix), _flat_rows(h.algebra), _columns(zeta.matrix)
    zeta_t, (terms, tden) = _stacked(z, bdim), bsub.algebra.int_terms  # zeta[s, j] at (j, s)

    def sides(i):  # zeta applied to iota(b_i) e_j, against b_i b_s put on the leg s of zeta^T
        products = _leg_map((included[i], den), (n,), 0, n * n, rows)
        return _leg_map(products, (n, n), 1, bdim, z), _leg_map(zeta_t, (n, bdim), 1, bdim, (terms[i], tden))

    return _slice_mismatch(q.field, "zeta(iota(b{0}) e{1}) != b{0} zeta(e{1})".format, sides, bdim, (n, bdim))


def _biunitary(q: CoidealQuotient, m: LinMap, name: str = "zeta", from_c: bool = False) -> tuple[bool, str]:
    """(ok, witness) of m(1) = 1, slice 0, and eps m = eps, slice 1, at
    the first failing basis index, for the map m : H -> B called `name`,
    or with from_c for m : C -> H, whose source has the unit pi(1)."""
    h, bsub = q.parent, q.coideal
    if from_c:
        source, target = (q.pi(h.unit), q.coalgebra.counit), (h.unit, h.counit)
        texts = f"{name}(pi(1)) != 1", f"eps({name}(x{{0}})) != eps_C(x{{0}})"
    else:
        source, target = (h.unit, h.counit), (bsub.unit, bsub.counit)
        texts = f"{name}(1) != 1_B", f"eps_B({name}(e{{0}})) != eps(e{{0}})"
    cols = _columns(m.matrix)
    sides = (
        (_leg_map(_sparse(source[0]), (m.source,), 0, m.target, cols), _sparse(target[0])),
        (_leg_map(_stacked(cols, m.target), (m.source, m.target), 1, 1, _functional(target[1])), _sparse(source[1])),
    )
    return _slice_mismatch(q.field, lambda s, *at: texts[s].format(*at), sides.__getitem__, 2, (m.source,))


def gamma_from_zeta(q: CoidealQuotient, zeta: LinMap) -> LinMap:
    """Derive the comodule splitting gamma : C -> H from a cointegral.

    zeta is checked to be a biunitary, convolution-invertible module map
    first; the derivation itself is _gamma's.
    """
    _shape_guard(q, zeta)
    h = q.parent
    ok, w = _module_map(q, zeta)
    if not ok:
        raise CertificationError("zeta-not-module-map", w)
    ok, w = _biunitary(q, zeta)
    if not ok:
        raise CertificationError("zeta-not-biunitary", w)
    try:
        zeta_bar = convolution_inverse(zeta, h.coalgebra, q.coideal.algebra)
    except CertificationError as e:
        raise CertificationError("zeta-not-invertible", e.kind) from e
    return _gamma(q, zeta_bar)


def _gamma(q: CoidealQuotient, zeta_bar: LinMap) -> LinMap:
    """gamma from zeta's convolution inverse zeta_bar.

    gamma is pinned down by pi(h) -> sum iota[zeta_bar(h_1)] h_2, read on
    lift.  That map factors through pi, as it kills B+ H: for b in B+,
    sum iota zeta_bar((iota(b) h)_1) (iota(b) h)_2 = iota(zeta_bar(b_-1
    h_1) b_0) h_2 = eps(b) (...) = 0 by zetabar-star-coaction-law, which
    certify_pams derives from zeta-module-map and the invertibility of
    zeta, both checked before every call; gamma-pi-convolution then
    certifies gamma pi = (iota zeta_bar) * id on the result.  Its
    convolution inverse gamma_bar is certify_pams's, and gammabar-formula
    compares it with gamma_bar(pi(h)) = sum S(h_1) iota[zeta(h_2)].
    """
    h = q.parent
    ident = LinMap.identity(q.field, h.dim)
    through_pi = convolution_product(
        LinMap(q.coideal.iota.matrix @ zeta_bar.matrix), ident, h.coalgebra, h.algebra
    )
    return LinMap(through_pi.matrix @ q.lift.matrix)


def biunitarize(q: CoidealQuotient, zeta0: LinMap) -> LinMap:
    """Normalize a convolution-invertible module map to a biunitary one.

    Two steps: right-translate by zeta0_bar(1) to fix the unit, then
    convolve with eps_B of the translated inverse to repair the counit.
    Idempotent on inputs that are already biunitary.

    The translated pair z1 = zeta0(-) zeta0_bar(1), zb1 = zeta0(1)
    zeta0_bar(-) is a convolution-inverse pair without a check: Delta(1)
    = 1 (x) 1 turns zeta0 * zeta0_bar = eps 1 at 1 into zeta0(1)
    zeta0_bar(1) = 1, so in the finite-dimensional B, zeta0_bar(1)
    zeta0(1) = 1 too, and z1 * zb1 = zeta0 * zeta0_bar, zb1 * z1 =
    zeta0(1) (zeta0_bar * zeta0) zeta0_bar(1) are eps 1.
    """
    _shape_guard(q, zeta0)
    h, bsub, field, n = q.parent, q.coideal, q.field, q.parent.dim
    ok, w = _module_map(q, zeta0)
    if not ok:
        raise CertificationError("zeta-not-module-map", w)
    try:
        zbar0 = convolution_inverse(zeta0, h.coalgebra, bsub.algebra)
    except CertificationError as e:
        raise CertificationError("not-invertible", e.kind) from e

    z1 = LinMap(bsub.algebra.right_mult_matrix(zbar0(h.unit)) @ zeta0.matrix)
    zb1 = LinMap(bsub.algebra.left_mult_matrix(zeta0(h.unit)) @ zbar0.matrix)
    phi = Vector._of(field, [bsub.counit.dot(zb1.column(j)) for j in range(n)])
    # h -> sum h_1 phi(h_2): phi on the second leg of each Delta(e_i), column i
    delta = _stacked(h.coalgebra.int_comult, n * n)
    zeta2 = LinMap(z1.matrix @ _matrix(field, n, n, _leg_map(delta, (n, n, n), 2, 1, _functional(phi))))
    for ok, w in (_module_map(q, zeta2), _biunitary(q, zeta2)):
        if not ok:
            raise CertificationError("biunitarize-failed", w)
    convolution_inverse(zeta2, h.coalgebra, bsub.algebra)
    return zeta2


def cointegral_space(q: CoidealQuotient) -> tuple[Vector | None, Matrix]:
    """The affine space of biunitary module-map candidates for zeta.

    Flattens zeta as z[t * dim H + m] = <b*_t, zeta(e_m)> and imposes
    the left B-module law together with zeta(1) = 1_B and
    eps_B zeta = eps as a single exact linear system.  Returns the
    canonical particular solution (None if the system is inconsistent)
    and the homogeneous solution basis as matrix rows.
    """
    h = q.parent
    bsub = q.coideal
    field = q.field
    n = h.dim
    bdim = bsub.dim
    zero = field.zero
    (included, iden), rows_h, (terms, bden) = _columns(bsub.iota.matrix), _flat_rows(h.algebra), bsub.algebra.int_terms
    rows: list[dict] = []
    rhs = []
    for beta, col in enumerate(included):
        # <e*_m, iota(b_beta) e_j> at [j][m] and <b*_t, b_beta b_s> at [t][s], over one den
        left_h, hden = _cut(_leg_map((col, iden), (n,), 0, n * n, rows_h), n, n)
        left_b = _transposed((terms[beta], bden), bdim)[0]
        for t in range(bdim):
            for j in range(n):
                row = {t * n + m: x * bden for m, x in left_h[j].items()}
                for s, x in left_b[t].items():
                    row[s * n + j] = row.get(s * n + j, 0) - x * hden
                rows.append(_scalars(field, (row, hden * bden)))
                rhs.append(zero)
    for t in range(bdim):
        rows.append({t * n + m: x for m, x in flat_nonzeros(h.unit)})
        rhs.append(bsub.unit[t])
    for j in range(n):
        rows.append({t * n + j: x for t, x in flat_nonzeros(bsub.counit)})
        rhs.append(h.counit[j])

    system = Elimination(field, bdim * n, rows, [rhs])
    return system.solution(), system.kernel()


def _zeta_from_flat(field: Field, z: Vector, bdim: int, n: int) -> LinMap:
    return LinMap(Matrix._of(field, [z.entries[t * n : (t + 1) * n] for t in range(bdim)], n))


def _coefficient_tuples(k: int, bound: int, seed: int):
    """Zero tuple, then integer shells of growing sup-norm, then seeded draws."""
    yield (0,) * k
    if k == 0:
        return
    if (2 * bound + 1) ** k <= 20000:
        for m in range(1, bound + 1):
            for tup in itertools.product(range(-m, m + 1), repeat=k):
                if max(abs(x) for x in tup) == m:
                    yield tup
    rng = random.Random(seed)
    while True:
        yield tuple(rng.randint(-4 * bound, 4 * bound) for _ in range(k))


def find_cointegral(q: CoidealQuotient, strategy: dict | None = None) -> LinMap:
    """Find a biunitary convolution-invertible left B-module map zeta.

    The linear constraints are solved exactly; candidates from the
    affine solution space are tested for convolution invertibility in a
    fixed order (canonical solution first, then small-coefficient
    combinations, then seeded pseudorandom draws), so the outcome is a
    deterministic function of the strategy.
    """
    h = q.parent
    bsub = q.coideal
    field = q.field
    options = dict(strategy or {})
    kind = options.pop("kind", "deterministic-search")

    if kind == "user-supplied":
        zeta = options.pop("zeta")
        if options:
            raise ValueError(f"unknown strategy keys {sorted(options)}")
        _shape_guard(q, zeta)
        ok, w = _module_map(q, zeta)
        if not ok:
            raise CertificationError("zeta-not-module-map", w)
        try:
            convolution_inverse(zeta, h.coalgebra, bsub.algebra)
        except CertificationError as e:
            raise CertificationError("zeta-not-invertible", e.kind) from e
        if not _biunitary(q, zeta)[0]:
            zeta = biunitarize(q, zeta)
        return zeta
    if kind != "deterministic-search":
        raise ValueError(f"unknown search strategy {kind!r}")

    seed = options.pop("seed", 0)
    bound = options.pop("bound", 2)
    max_attempts = options.pop("max_attempts", 200)
    if options:
        raise ValueError(f"unknown strategy keys {sorted(options)}")

    particular, homogeneous = cointegral_space(q)
    if particular is None:
        raise CertificationError(
            "no-cointegral",
            "module-map and biunitarity constraints are inconsistent",
        )
    attempts = 0
    for coeffs in _coefficient_tuples(homogeneous.nrows, bound, seed):
        if attempts >= max_attempts:
            break
        attempts += 1
        z = particular
        for i, cval in enumerate(coeffs):
            if cval:
                z = z + homogeneous.row(i).scale(field.coerce(cval))
        zeta = _zeta_from_flat(field, z, bsub.dim, h.dim)
        try:
            convolution_inverse(zeta, h.coalgebra, bsub.algebra)
        except CertificationError:
            continue
        # biunitary already: cointegral_space imposes zeta(1) = 1_B and eps_B zeta = eps on the whole affine space
        return zeta
    raise CertificationError(
        "search-exhausted",
        f"no convolution-invertible candidate among {attempts} tried",
    )


# --- certification ----------------------------------------------------------------


def _check_primal(
    q: CoidealQuotient,
    zeta: LinMap,
    gamma: LinMap,
    zeta_bar: LinMap,
    gamma_bar: LinMap,
    report: Report,
) -> None:
    h = q.parent
    bsub = q.coideal
    field = q.field
    n, bdim, cdim = h.dim, bsub.dim, q.dim
    iota, pi = bsub.iota, q.pi
    one_c = pi(h.unit)
    (images, den), pairs = h.coalgebra.int_comult, _pairs(h.algebra)
    iotas, pis, gammas = _columns(iota.matrix), _columns(pi.matrix), _columns(gamma.matrix)
    c_images, c_den = q.coalgebra.int_comult

    def comodule(t):  # both sides at (e_j, x_c)
        pushed = _leg_map((gammas[0][t], gammas[1]), (n,), 0, n * n, h.coalgebra.int_comult)
        return _leg_map(pushed, (n, n), 1, cdim, pis), _leg_map((c_images[t], c_den), (cdim, cdim), 0, n, gammas)

    report.add("gamma-comodule-map", *_slice_mismatch(
        field, "(id (x) pi) Delta(gamma(x{0})) != (gamma (x) id) Delta_C(x{0})".format, comodule, cdim, (n, cdim)
    ))
    report.add("gamma-biunitary", *_biunitary(q, gamma, "gamma", from_c=True))
    report.add("zetabar-biunitary", *_biunitary(q, zeta_bar, "zeta_bar"))
    report.add("gammabar-biunitary", *_biunitary(q, gamma_bar, "gamma_bar", from_c=True))

    def convolution(text, maps, against):  # slice i: e_i under `against`, and sum f(e_j) g(e_k) over Delta(e_i)
        slices = lambda i: ((against[0][i], against[1]), _legs_product((images[i], den), n, maps, pairs))
        return _slice_mismatch(field, text.format, slices, n)

    iz, gp = _then(_columns(zeta.matrix), iotas), _then(pis, gammas)
    identity = [{i: 1} for i in range(n)], 1
    report.add("conv-unit", *convolution("(iota zeta) * (gamma pi) != id", (iz, gp), identity))
    report.add(
        "zeta-splits-iota",
        zeta.matrix @ iota.matrix == Matrix.identity(field, bdim),
        "zeta iota != id_B",
    )
    report.add(
        "gamma-splits-pi",
        pi.matrix @ gamma.matrix == Matrix.identity(field, cdim),
        "pi gamma != id_C",
    )
    izb = _then(_columns(zeta_bar.matrix), iotas)
    report.add("gamma-pi-convolution", *convolution("gamma pi != (iota zeta_bar) * id", (izb, None), gp))
    gbp = _then(pis, _columns(gamma_bar.matrix))
    report.add("gammabar-formula", *convolution("gamma_bar pi != S * (iota zeta)", (_columns(h.antipode), iz), gbp))
    report.add(
        "zeta-gamma-triviality",
        zeta.matrix @ gamma.matrix == convolution_unit(q.coalgebra, bsub.algebra).matrix,
        "zeta gamma != eps_C(-) 1_B",
    )
    trivial_cb = Matrix._of(
        field,
        [[x * e for e in bsub.counit.entries] for x in one_c.entries],
        bdim,
    )
    report.add(
        "pi-s-inv-iota-trivial",
        pi.matrix @ h.antipode_inverse() @ iota.matrix == trivial_cb,
        "pi S^-1 iota != eps_B(-) pi(1)",
    )


def certify_pams(
    q: CoidealQuotient, zeta: LinMap, gamma: LinMap | None = None
) -> Pams:
    """Certify (zeta, gamma) as a PAMS on the quotient.

    The report has 15 checks in a fixed order: zeta-module-map,
    zeta-biunitary, zeta-invertible and gamma-invertible, then the 11
    identities of _check_primal.  Each is verified on the full basis
    (pairs of basis elements for two-argument identities); the first
    failure is raised as a CertificationError carrying the whole report.
    With gamma omitted it is derived from zeta.  zeta_bar and gamma_bar
    are computed once here, by one convolution inverse each, whether
    gamma is supplied or derived.

    q comes from build_quotient, whose input came from certify_coideal
    (or _certify_inclusion, on a transport of a certified parent):
    the Hopf axioms of H, iota as an injective algebra and comodule map
    (its structure constants are solved through iota), pi as a
    surjective coalgebra and module map (build_quotient proves both from
    its checks) and B as the coinvariants of (id (x) pi) Delta are
    certified there and not re-derived here.

    No identity on H*, B* or C* is checked.  Those the construction of
    C* # B uses as lemmas follow from the checks made, as proved below,
    and the final object is verified anyway: verify_quasi_hopf checks the
    left partial dual, the duality checks the right one.  Notation: a is
    in H*, u in B*, x* in C*; H* and B* multiply by Delta^T and
    comultiply by m^T, so <a_1 (x) a_2, h (x) h'> = <a, h h'>, and C*
    multiplies by Delta_C^T; delta(b) = b_-1 (x) b_0 is the certified
    coaction, so Delta iota = (id (x) iota) delta; a |> u = iota*(a
    varsigma(u)) for any section varsigma of iota*, well defined as
    <f_i |> b*_j, b_t> = coaction[t, i, j], which is how right_partial_dual
    reads it off int_coaction.  The transposes of f, g in End(H)
    convolve in End(H*) in the same order, (f * g)^T = f^T * g^T, since
    <phi, f(h_1) g(h_2)> = <f^T(phi_1) g^T(phi_2), h>, and S* = S^T.  H is a Hopf algebra, so
    id * S = eps 1 = S * id, S is a coalgebra anti-map and x_2 S^-1(x_1)
    = eps(x) 1; zeta_bar is the two-sided convolution inverse of zeta.

    - zeta-star-splits, gamma-star-splits, gamma-star-zeta-star (zeta*
      iota* = id, gamma* pi* = id, gamma* zeta* = <-, 1_B> eps_C): the
      transposes of zeta-splits-iota, gamma-splits-pi and
      zeta-gamma-triviality.
    - conv-unit-dual, (zeta* iota*) * (pi* gamma*) = id: the transpose
      of conv-unit.
    - bar-identity-right, S* * (zeta* iota*) = pi* gammabar*: the
      transpose of gammabar-formula, gamma_bar pi = S * (iota zeta).
    - bar-identity-left, id * (pi* gammabar*) = zeta* iota*: by
      gammabar-formula, the transpose of id * S * (iota zeta) = eps 1 *
      (iota zeta).
    - bar-identity-middle, (pi* gamma*) * S* = zetabar* iota*: by
      gamma-pi-convolution, gamma pi = (iota zeta_bar) * id, the
      transpose of (iota zeta_bar) * id * S = (iota zeta_bar) * eps 1.
    - bar-identity-antipode, (pi* gammabar*) * (zetabar* iota*) = S*: by
      gammabar-formula, the transpose of S * (iota zeta) * (iota
      zeta_bar), and as iota is an algebra map, (iota zeta) * (iota
      zeta_bar) = iota (zeta * zeta_bar) = eps 1.
    - zeta-star-comodule-law, (iota* (x) id) Delta zeta* = (id (x)
      zeta*) Delta_B*: the transpose of zeta-module-map.
    - pi-star-comodule-law, Delta pi*(x*) = sum pi*(x* <- e_i) (x) f_i:
      the transpose of pi(h h') = pi(h) <| h', which build_quotient
      proves from its checks.
    - gamma-star-module-law, gamma*(a pi*(x*)) = gamma*(a) x*: the
      transpose of gamma-comodule-map, (id (x) pi) Delta gamma = (gamma
      (x) id) Delta_C.
    - iota-star-module-law, iota*(a a') = a |> iota*(a'): <a a', iota(b)>
      = <a (x) a', (id (x) iota) delta(b)> is how the coaction defines |>.
    - btr-zeta-star-form, a |> u = iota*(a zeta*(u)): by
      iota-star-module-law the right side is a |> (zeta iota)*(u), and
      zeta iota = id by zeta-splits-iota.
    - fusion-a, sum zeta*(a_1 |> u_1) pi* gamma*(a_2 zeta*(u_2)_1) (x)
      zeta*(u_2)_2 = (a (x) 1) Delta zeta*(u): at h (x) h' each side is
      <a, X_1> <u, zeta(X_2 h')>.  On the right X = h; on the left X =
      sum iota zeta(h_1) gamma pi(h_2), by b zeta(y) = zeta(iota(b) y)
      (zeta-module-map), Delta being an algebra map and Delta iota =
      (id (x) iota) delta.  Then X = h by conv-unit.
    - fusion-b, sum zeta*(u_1) pi* gamma*(zeta*(u_2)_1) (x) zeta*(u_2)_2
      = Delta zeta*(u): fusion-a at a = eps.
    - fusion-c, sum zeta*(a_1 |> u_1) pi* gamma*(a_2 zeta*(u_2)) =
      a zeta*(u): fusion-a at h' = 1.
    - fusion-d, sum gamma*(a zeta*(u_1)) gamma*(zeta*(u_2)_1) (x)
      zeta*(u_2)_2 = sum gamma*(a zeta*(u)_1) (x) zeta*(u)_2: at c (x) h'
      the right side is <a, gamma(c)_1> <u, zeta(gamma(c)_2 h')>.
      gamma-comodule-map turns gamma(c_1) (x) c_2 into gamma(c)_1 (x)
      pi(gamma(c)_2); then zeta-module-map and conv-unit, applied to
      gamma(c)_2, collapse the left side to the right one.
    - fusion-e, sum gamma*(a' zeta*(a_1 |> u_1)) gamma*(a_2 zeta*(u_2))
      = gamma*(a' a zeta*(u)): at c the same two steps, with X = sum
      iota zeta(gamma(c)_2) gamma pi(gamma(c)_3), which is gamma(c)_2.
    - gammabar-star-mult-law, sum (x* <- e_i) gammabar*(a f_i) =
      <x*, pi(1)> gammabar*(a), that is sum gamma_bar(c_2)_1 (x) c_1 <|
      gamma_bar(c_2)_2 = gamma_bar(c) (x) pi(1): take c = pi(h), so
      gamma_bar(c) = S(h_1) iota zeta(h_2) by gammabar-formula; then
      pi(iota(b) y) = eps(b) pi(y), as ker pi = B+ H, and h_1 S(h_2) =
      eps(h) 1.
    - zetabar-star-coaction-law, sum (zetabar*(u_1)_1 |> u_2) (x)
      zetabar*(u_1)_2 = eps_B (x) zetabar*(u), that is zeta_bar(b_-1 h)
      b_0 = eps(b) zeta_bar(h): convolved with zeta, the left side gives
      (zeta_bar * zeta)(iota(b) h) = eps(b) eps(h) 1 by zeta-module-map
      and Delta(iota(b) h) = b_-1 h_1 (x) iota(b_0) h_2, and so does the
      right side; zeta is convolution-invertible.
    - zetabar-star-antipode-law, zetabar*(u_1) (x) u_2 = sum
      zetabar*(u)_2 (x) iota* S*^-1(zetabar*(u)_1), that is
      zeta_bar(h) b = zeta_bar(S^-1(b) h): apply the coaction law to b_0
      and S^-1(b_-1) h, then x_2 S^-1(x_1) = eps(x) 1.
    - gammabar-star-shift, x* gammabar*(a) = gammabar*(a S*^-1 pi*(x*)),
      that is c_1 (x) gamma_bar(c_2) = pi S^-1(gamma_bar(c)_2) (x)
      gamma_bar(c)_1: take c = pi(h) and use gammabar-formula, then
      pi(S^-1(iota(b)) y) = eps(b) pi(y) by pi-s-inv-iota-trivial and
      the right H-action on C.
    """
    _shape_guard(q, zeta)
    h = q.parent
    bsub = q.coideal
    report = Report(f"pams on {h.name or 'H'}")

    report.add("zeta-module-map", *_module_map(q, zeta))
    report.add("zeta-biunitary", *_biunitary(q, zeta))
    report.raise_if_failed()
    try:
        zeta_bar = convolution_inverse(zeta, h.coalgebra, bsub.algebra)
    except CertificationError as e:
        report.add("zeta-invertible", False, e.kind)
        report.raise_if_failed()
        raise
    report.add("zeta-invertible", True)

    if gamma is None:
        gamma = _gamma(q, zeta_bar)
    elif gamma.source != q.dim or gamma.target != h.dim:
        raise CertificationError(
            "gamma-shape",
            f"gamma must be {h.dim} x {q.dim}, got {gamma.target} x {gamma.source}",
        )
    try:
        gamma_bar = convolution_inverse(gamma, q.coalgebra, h.algebra)
    except CertificationError as e:
        report.add("gamma-invertible", False, e.kind)
        report.raise_if_failed()
        raise
    report.add("gamma-invertible", True)

    _check_primal(q, zeta, gamma, zeta_bar, gamma_bar, report)
    report.raise_if_failed()
    return Pams(_CERTIFIED, q, zeta, gamma, zeta_bar, gamma_bar, report)


# --- induced systems ----------------------------------------------------------------


def induced_pams(p: Pams, kind: str) -> Pams:
    """Build one of the six induced systems on op/cop/dual Hopf algebras.

    Each row supplies its parent h2, inclusion iota2, projection pi2,
    section lift2 and maps zeta2, gamma2, and nothing else: the induced
    subalgebra, quotient coalgebra and actions are what
    _certify_inclusion and build_quotient solve for, and certify_pams
    certifies (zeta2, gamma2) from scratch.  verify_hopf is not run
    again: the new parent is p's certified parent or a transport of it,
    Hopf by construction, so its coideal goes through _certify_inclusion.

    gamma2 is supplied, so certify_pams runs no _gamma: by
    gamma-pi-convolution and pi-splits-lift, _gamma's ((iota zeta2_bar)
    * id) lift2 is gamma2 pi2 lift2 = gamma2, and that map kills B+ H in
    ker pi2 (pi-kills-ideal).  gamma2_bar is one convolution inverse, as
    for every system.
    """
    q = p.quotient
    h = q.parent
    s_m = h.antipode
    sinv_m = h.antipode_inverse()
    iota_m, pi_m, lift_m = q.coideal.iota.matrix, q.pi.matrix, q.lift.matrix
    zeta_m, zbar_m = p.zeta.matrix, p.zeta_bar.matrix
    gamma_m, gbar_m = p.gamma.matrix, p.gamma_bar.matrix

    if kind == "identity":
        h2 = h
        iota2, pi2, lift2 = iota_m, pi_m, lift_m
        zeta2, gamma2 = zeta_m, gamma_m
    elif kind == "op":
        h2 = opposite(h)
        iota2 = iota_m
        pi2 = pi_m @ sinv_m
        lift2 = s_m @ lift_m
        zeta2 = zbar_m @ sinv_m
        gamma2 = gbar_m
    elif kind == "cop":
        h2 = coopposite(h)
        iota2 = sinv_m @ iota_m
        pi2, lift2 = pi_m, lift_m
        zeta2 = zbar_m
        gamma2 = sinv_m @ gbar_m
    elif kind in ("biop-dual", "cop-dual", "op-dual"):
        hs = q.hstar
        section = _dual_section(q)
        iota_t, pi_t = iota_m.transpose(), pi_m.transpose()
        sinv_t = sinv_m.transpose()
        if kind == "biop-dual":
            h2 = biopposite(hs)
            iota2, pi2, lift2 = pi_t, iota_t, section
            zeta2 = gamma_m.transpose()
            gamma2 = zeta_m.transpose()
        elif kind == "cop-dual":
            h2 = coopposite(hs)
            iota2 = pi_t
            pi2 = iota_t @ sinv_t
            lift2 = s_m.transpose() @ section
            zeta2 = gbar_m.transpose() @ sinv_t
            gamma2 = zbar_m.transpose()
        else:
            h2 = opposite(hs)
            iota2 = sinv_t @ pi_t
            pi2, lift2 = iota_t, section
            zeta2 = gbar_m.transpose()
            gamma2 = sinv_t @ zbar_m.transpose()
    else:
        raise ValueError(f"unknown induced kind {kind!r}; expected one of {INDUCED_KINDS}")

    b2 = _certify_inclusion(h2, LinMap(iota2))
    q2 = build_quotient(b2, pi=LinMap(pi2), lift=LinMap(lift2))
    return certify_pams(q2, LinMap(zeta2), LinMap(gamma2))
