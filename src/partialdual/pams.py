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
    _btr_tensor,
    _certify_inclusion,
    _dual_section,
    build_quotient,
)
from .hopf import (
    CertificationError,
    LinMap,
    Report,
    _first_mismatch,
    biopposite,
    convolution_inverse,
    convolution_product,
    coopposite,
    flat_nonzeros,
    opposite,
)
from .linalg import (
    Elimination,
    Field,
    Matrix,
    Tensor3,
    Vector,
    contract,
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

INDUCED_KINDS = ("identity", "op", "cop", "biop-dual", "cop-dual", "op-dual")


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


def _module_map_witness(q: CoidealQuotient, zeta: LinMap) -> str:
    """Empty string iff zeta(iota(b) h) = b zeta(h) on all basis pairs."""
    h = q.parent
    bsub = q.coideal
    for i in range(bsub.dim):
        included = bsub.iota.column(i)
        for j in range(h.dim):
            lhs = zeta(h.algebra.multiply(included, h.basis(j)))
            rhs = bsub.algebra.multiply(bsub.basis(i), zeta(h.basis(j)))
            if lhs != rhs:
                return f"zeta(iota(b{i}) e{j}) != b{i} zeta(e{j})"
    return ""


def _biunitary_witness(q: CoidealQuotient, zeta: LinMap, name: str = "zeta") -> str:
    """Empty string iff the map H -> B called `name` is biunitary."""
    h = q.parent
    bsub = q.coideal
    if zeta(h.unit) != bsub.unit:
        return f"{name}(1) != 1_B"
    for j in range(h.dim):
        if bsub.counit.dot(zeta.column(j)) != h.counit[j]:
            return f"eps_B({name}(e{j})) != eps(e{j})"
    return ""


def gamma_from_zeta(q: CoidealQuotient, zeta: LinMap) -> LinMap:
    """Derive the comodule splitting gamma : C -> H from a cointegral.

    zeta is checked to be a biunitary, convolution-invertible module map
    first; the derivation itself is _gamma_pair's.
    """
    _shape_guard(q, zeta)
    h = q.parent
    w = _module_map_witness(q, zeta)
    if w:
        raise CertificationError("zeta-not-module-map", w)
    w = _biunitary_witness(q, zeta)
    if w:
        raise CertificationError("zeta-not-biunitary", w)
    try:
        zeta_bar = convolution_inverse(zeta, h.coalgebra, q.coideal.algebra)
    except CertificationError as e:
        raise CertificationError("zeta-not-invertible", e.kind) from e
    return _gamma_pair(q, zeta, zeta_bar)[0]


def _gamma_pair(q: CoidealQuotient, zeta: LinMap, zeta_bar: LinMap) -> tuple[LinMap, LinMap]:
    """(gamma, gamma_bar) from zeta and its convolution inverse zeta_bar.

    gamma is pinned down by pi(h) -> sum iota[zeta_bar(h_1)] h_2; that
    assignment factoring through pi (the composite kills B+ H) is
    verified rather than assumed, as is the closed form for the
    convolution inverse, gamma_bar(pi(h)) = sum S(h_1) iota[zeta(h_2)].
    """
    h = q.parent
    bsub = q.coideal
    ident = LinMap.identity(q.field, h.dim)
    through_pi = convolution_product(
        LinMap(bsub.iota.matrix @ zeta_bar.matrix), ident, h.coalgebra, h.algebra
    )
    for r in range(q.ideal_basis.nrows):
        if not through_pi(q.ideal_basis.row(r)).is_zero():
            raise CertificationError(
                "gamma-not-well-defined",
                f"sum iota[zeta_bar(h_1)] h_2 does not kill B+ H at ideal row {r}",
            )
    gamma = LinMap(through_pi.matrix @ q.lift.matrix)

    bar_through_pi = convolution_product(
        LinMap(h.antipode),
        LinMap(bsub.iota.matrix @ zeta.matrix),
        h.coalgebra,
        h.algebra,
    )
    gamma_bar = LinMap(bar_through_pi.matrix @ q.lift.matrix)
    if gamma_bar != convolution_inverse(gamma, q.coalgebra, h.algebra):
        raise CertificationError(
            "gammabar-mismatch",
            "sum S(h_1) iota[zeta(h_2)] is not the convolution inverse of gamma",
        )
    return gamma, gamma_bar


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
    h = q.parent
    bsub = q.coideal
    field = q.field
    w = _module_map_witness(q, zeta0)
    if w:
        raise CertificationError("zeta-not-module-map", w)
    try:
        zbar0 = convolution_inverse(zeta0, h.coalgebra, bsub.algebra)
    except CertificationError as e:
        raise CertificationError("not-invertible", e.kind) from e

    z1 = LinMap(bsub.algebra.right_mult_matrix(zbar0(h.unit)) @ zeta0.matrix)
    zb1 = LinMap(bsub.algebra.left_mult_matrix(zeta0(h.unit)) @ zbar0.matrix)
    phi = Vector._of(field, [bsub.counit.dot(zb1.column(j)) for j in range(h.dim)])
    zeta2 = LinMap(z1.matrix @ contract(h.comult, 2, phi).transpose())
    w = _module_map_witness(q, zeta2) or _biunitary_witness(q, zeta2)
    if w:
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
    # <e*_m, iota(b_beta) e_j> at [beta][j] and <b*_t, b_beta b_s> at [beta][t]
    left_h = [
        [list(flat_nonzeros(h.algebra.multiply(bsub.iota.column(beta), h.basis(j)))) for j in range(n)]
        for beta in range(bdim)
    ]
    left_b: list[list[list]] = [[[] for _ in range(bdim)] for _ in range(bdim)]
    for beta in range(bdim):
        for s in range(bdim):
            for t, x in bsub.algebra.terms[beta][s]:
                left_b[beta][t].append((s, x))

    rows: list[dict] = []
    rhs = []
    for beta in range(bdim):
        for t in range(bdim):
            for j in range(n):
                row = {t * n + m: x for m, x in left_h[beta][j]}
                for s, x in left_b[beta][t]:
                    row[s * n + j] = row.get(s * n + j, zero) - x
                rows.append(row)
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
        w = _module_map_witness(q, zeta)
        if w:
            raise CertificationError("zeta-not-module-map", w)
        try:
            convolution_inverse(zeta, h.coalgebra, bsub.algebra)
        except CertificationError as e:
            raise CertificationError("zeta-not-invertible", e.kind) from e
        if _biunitary_witness(q, zeta):
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
        # affine solutions are biunitary by construction
        if _biunitary_witness(q, zeta):
            zeta = biunitarize(q, zeta)
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
    pi_t = pi.matrix.transpose()

    report.add("gamma-comodule-map", *_first_mismatch(
        "(id (x) pi) Delta(gamma(x{0})) != (gamma (x) id) Delta_C(x{0})".format,
        lambda t: (
            h.coalgebra.comultiply(gamma.column(t)) @ pi_t,
            gamma.matrix @ q.coalgebra.comultiply(q.basis(t)),
        ),
        cdim,
    ))

    def biunitary(m: LinMap, name: str) -> tuple[bool, str]:  # m(pi(1)) = 1, then eps m = eps_C
        ok, witness = _first_mismatch(f"{name}(pi(1)) != 1".format, lambda: (m(one_c), h.unit))
        if ok:
            ok, witness = _first_mismatch(
                f"eps({name}(x{{0}})) != eps_C(x{{0}})".format,
                lambda t: (h.counit.dot(m.column(t)), q.coalgebra.counit[t]),
                cdim,
            )
        return ok, witness

    report.add("gamma-biunitary", *biunitary(gamma, "gamma"))
    w = _biunitary_witness(q, zeta_bar, "zeta_bar")
    report.add("zetabar-biunitary", not w, w)
    report.add("gammabar-biunitary", *biunitary(gamma_bar, "gamma_bar"))

    ident = LinMap.identity(field, n)
    iz = LinMap(iota.matrix @ zeta.matrix)
    gp = LinMap(gamma.matrix @ pi.matrix)
    report.add(
        "conv-unit",
        convolution_product(iz, gp, h.coalgebra, h.algebra) == ident,
        "(iota zeta) * (gamma pi) != id",
    )
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
    report.add(
        "gamma-pi-convolution",
        gp
        == convolution_product(
            LinMap(iota.matrix @ zeta_bar.matrix), ident, h.coalgebra, h.algebra
        ),
        "gamma pi != (iota zeta_bar) * id",
    )
    report.add(
        "gammabar-formula",
        LinMap(gamma_bar.matrix @ pi.matrix)
        == convolution_product(LinMap(h.antipode), iz, h.coalgebra, h.algebra),
        "gamma_bar pi != S * (iota zeta)",
    )
    trivial_bc = Matrix._of(
        field,
        [[x * e for e in q.coalgebra.counit.entries] for x in bsub.unit.entries],
        cdim,
    )
    report.add(
        "zeta-gamma-triviality",
        zeta.matrix @ gamma.matrix == trivial_bc,
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
    are computed once here, by one convolution inverse each.

    q comes from build_quotient, whose input came from certify_coideal
    (or _certify_inclusion, on a transport of a certified parent):
    the Hopf axioms of H, iota as an injective algebra and comodule map
    (its structure constants are solved through iota), pi as a
    surjective coalgebra and module map and B as the coinvariants of
    (id (x) pi) Delta are certified there and not re-derived here.

    No identity on H*, B* or C* is checked.  Those the construction of
    C* # B uses as lemmas follow from the checks made, as proved below,
    and the final object is verified anyway: verify_quasi_hopf checks the
    left partial dual, the duality checks the right one.  Notation: a is
    in H*, u in B*, x* in C*; H* and B* multiply by Delta^T and
    comultiply by m^T, so <a_1 (x) a_2, h (x) h'> = <a, h h'>, and C*
    multiplies by Delta_C^T; delta(b) = b_-1 (x) b_0 is the certified
    coaction, so Delta iota = (id (x) iota) delta; a |> u is the action of
    _btr_tensor.  The transposes of f, g in End(H) convolve in End(H*) in
    the same order, (f * g)^T = f^T * g^T, since <phi, f(h_1) g(h_2)> =
    <f^T(phi_1) g^T(phi_2), h>, and S* = S^T.  H is a Hopf algebra, so
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
      = <a (x) a', (id (x) iota) delta(b)> is how _btr_tensor defines |>.
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

    w = _module_map_witness(q, zeta)
    report.add("zeta-module-map", not w, w)
    w = _biunitary_witness(q, zeta)
    report.add("zeta-biunitary", not w, w)
    report.raise_if_failed()
    try:
        zeta_bar = convolution_inverse(zeta, h.coalgebra, bsub.algebra)
    except CertificationError as e:
        report.add("zeta-invertible", False, e.kind)
        report.raise_if_failed()
        raise
    report.add("zeta-invertible", True)

    if gamma is None:
        gamma, gamma_bar = _gamma_pair(q, zeta, zeta_bar)
    else:
        if gamma.source != q.dim or gamma.target != h.dim:
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


def _tensor_from(field: Field, dims: tuple[int, int, int], fn) -> Tensor3:
    d0, d1, d2 = dims
    return Tensor3._of(
        field,
        [[[fn(i, j, k) for k in range(d2)] for j in range(d1)] for i in range(d0)],
        dims,
    )


def induced_pams(p: Pams, kind: str) -> Pams:
    """Build one of the six induced systems on op/cop/dual Hopf algebras.

    Each row supplies its own projection and section, predicts the whole
    induced structure (subalgebra multiplication, coaction, quotient
    coalgebra, quotient action), then certifies the result from scratch,
    except that verify_hopf is not run again: the new parent is p's
    certified parent or a transport of it, Hopf by construction, so its
    coideal goes through _certify_inclusion.  A failed prediction is
    induced-structure-mismatch.

    _gamma_pair would derive gamma2 again, so it is not run: by
    gamma-pi-convolution and pi-splits-lift its ((iota zeta2_bar) * id)
    lift2 is gamma2 pi2 lift2 = gamma2; that map kills B+ H in ker pi2
    (pi-kills-ideal), and by gammabar-formula its gamma_bar is gamma2_bar.
    """
    q = p.quotient
    h = q.parent
    bsub = q.coideal
    field = q.field
    n, bdim, cdim = h.dim, bsub.dim, q.dim
    s_m = h.antipode
    sinv_m = h.antipode_inverse()
    iota_m, pi_m, lift_m = bsub.iota.matrix, q.pi.matrix, q.lift.matrix
    zeta_m, zbar_m = p.zeta.matrix, p.zeta_bar.matrix
    gamma_m, gbar_m = p.gamma.matrix, p.gamma_bar.matrix
    comult_c = q.coalgebra.comult
    action = q.action
    zero = field.zero

    if kind == "identity":
        h2 = h
        iota2, pi2, lift2 = iota_m, pi_m, lift_m
        zeta2, gamma2 = zeta_m, gamma_m
        mult_b2 = bsub.mult
        coaction2 = bsub.coaction
        comult_c2 = comult_c
        counit_c2 = q.coalgebra.counit
        action2 = action
    elif kind == "op":
        h2 = opposite(h)
        iota2 = iota_m
        pi2 = pi_m @ sinv_m
        lift2 = s_m @ lift_m
        zeta2 = zbar_m @ sinv_m
        gamma2 = gbar_m
        mult_b2 = bsub.mult.flip01()
        coaction2 = bsub.coaction
        comult_c2 = comult_c.flip12()
        counit_c2 = q.coalgebra.counit
        action2 = _tensor_from(
            field,
            (cdim, n, cdim),
            lambda r, j, t: sum((action[r, m, t] * sinv_m[m, j] for m in range(n)), zero),
        )
    elif kind == "cop":
        h2 = coopposite(h)
        iota2 = sinv_m @ iota_m
        pi2, lift2 = pi_m, lift_m
        zeta2 = zbar_m
        gamma2 = sinv_m @ gbar_m
        mult_b2 = bsub.mult.flip01()
        coaction2 = _tensor_from(
            field,
            (bdim, n, bdim),
            lambda i, j, k: sum((sinv_m[j, m] * bsub.coaction[i, m, k] for m in range(n)), zero),
        )
        comult_c2 = comult_c.flip12()
        counit_c2 = q.coalgebra.counit
        action2 = action
    elif kind in ("biop-dual", "cop-dual", "op-dual"):
        hs = q.hstar
        section = _dual_section(q)
        btr = _btr_tensor(q)
        iota_t, pi_t = iota_m.transpose(), pi_m.transpose()
        sinv_t = sinv_m.transpose()
        counit_c2 = bsub.unit
        if kind == "biop-dual":
            h2 = biopposite(hs)
            iota2, pi2, lift2 = pi_t, iota_t, section
            zeta2 = gamma_m.transpose()
            gamma2 = zeta_m.transpose()
            mult_b2 = _tensor_from(field, (cdim,) * 3, lambda i, j, k: comult_c[k, j, i])
            coaction2 = _tensor_from(field, (cdim, n, cdim), lambda t, i, s: action[s, i, t])
            comult_c2 = _tensor_from(field, (bdim,) * 3, lambda i, j, k: bsub.mult[k, j, i])
            action2 = _tensor_from(field, (bdim, n, bdim), lambda r, i, t: btr[i, r, t])
        elif kind == "cop-dual":
            h2 = coopposite(hs)
            iota2 = pi_t
            pi2 = iota_t @ sinv_t
            lift2 = s_m.transpose() @ section
            zeta2 = gbar_m.transpose() @ sinv_t
            gamma2 = zbar_m.transpose()
            mult_b2 = _tensor_from(field, (cdim,) * 3, lambda i, j, k: comult_c[k, i, j])
            coaction2 = _tensor_from(field, (cdim, n, cdim), lambda t, i, s: action[s, i, t])
            comult_c2 = _tensor_from(field, (bdim,) * 3, lambda i, j, k: bsub.mult[j, k, i])
            action2 = _tensor_from(
                field,
                (bdim, n, bdim),
                lambda r, i, t: sum((sinv_m[i, m] * btr[m, r, t] for m in range(n)), zero),
            )
        else:
            h2 = opposite(hs)
            iota2 = sinv_t @ pi_t
            pi2, lift2 = iota_t, section
            zeta2 = gbar_m.transpose()
            gamma2 = sinv_t @ zbar_m.transpose()
            mult_b2 = _tensor_from(field, (cdim,) * 3, lambda i, j, k: comult_c[k, i, j])
            coaction2 = _tensor_from(
                field,
                (cdim, n, cdim),
                lambda t, j, s: sum((action[s, i, t] * sinv_m[i, j] for i in range(n)), zero),
            )
            comult_c2 = _tensor_from(field, (bdim,) * 3, lambda i, j, k: bsub.mult[j, k, i])
            action2 = _tensor_from(field, (bdim, n, bdim), lambda r, i, t: btr[i, r, t])
    else:
        raise ValueError(f"unknown induced kind {kind!r}; expected one of {INDUCED_KINDS}")

    b2 = _certify_inclusion(h2, LinMap(iota2))
    if b2.mult != mult_b2:
        raise CertificationError(
            "induced-structure-mismatch", f"{kind}: subalgebra multiplication"
        )
    if b2.coaction != coaction2:
        raise CertificationError("induced-structure-mismatch", f"{kind}: coaction")
    q2 = build_quotient(b2, pi=LinMap(pi2), lift=LinMap(lift2))
    if q2.coalgebra.comult != comult_c2:
        raise CertificationError(
            "induced-structure-mismatch", f"{kind}: quotient comultiplication"
        )
    if q2.coalgebra.counit != counit_c2:
        raise CertificationError(
            "induced-structure-mismatch", f"{kind}: quotient counit"
        )
    if q2.action != action2:
        raise CertificationError("induced-structure-mismatch", f"{kind}: quotient action")

    return certify_pams(q2, LinMap(zeta2), LinMap(gamma2))
