"""Partially admissible mapping systems.

A PAMS on a left coideal subalgebra B of H couples a biunitary left
B-module map zeta : H -> B with a biunitary comodule splitting
gamma : C -> H of the quotient C = H / B+ H, tied together by the
convolution identity (iota zeta) * (gamma pi) = id_H.  This module
finds zeta by exact linear algebra, normalizes it, derives gamma and
both convolution inverses, certifies the identity suite on the primal
and dual sides (including the fusion identities used downstream by the
partial dualization), and builds the six induced systems living on the
opposite, co-opposite and dual Hopf algebras.
"""

from __future__ import annotations

import itertools
import random

from .coideal import (
    CoidealQuotient,
    _btr_tensor,
    _dual_section,
    build_quotient,
    certify_coideal,
)
from .hopf import (
    Algebra,
    CertificationError,
    Coalgebra,
    LinMap,
    Report,
    biopposite,
    convolution_inverse,
    convolution_product,
    convolution_unit,
    coopposite,
    dual,
    opposite,
)
from .linalg import (
    Field,
    Matrix,
    Tensor3,
    Vector,
    contract,
    nullspace,
    solve,
    subspace_basis,
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


class Pams:
    """A certified partially admissible mapping system.

    Bundles the quotient data with zeta, gamma and their convolution
    inverses; `report` records every identity that was verified.
    """

    def __init__(
        self,
        quotient: CoidealQuotient,
        zeta: LinMap,
        gamma: LinMap,
        zeta_bar: LinMap,
        gamma_bar: LinMap,
        report: Report,
    ):
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


def _biunitary_witness(q: CoidealQuotient, zeta: LinMap) -> str:
    h = q.parent
    bsub = q.coideal
    if zeta(h.unit) != bsub.unit:
        return "zeta(1) != 1_B"
    for j in range(h.dim):
        if bsub.counit.dot(zeta.column(j)) != h.counit[j]:
            return f"eps_B(zeta(e{j})) != eps(e{j})"
    return ""


def gamma_from_zeta(q: CoidealQuotient, zeta: LinMap) -> LinMap:
    """Derive the comodule splitting gamma : C -> H from a cointegral.

    gamma is pinned down by pi(h) -> sum iota[zeta_bar(h_1)] h_2; that
    assignment factoring through pi (the composite kills B+ H) is
    verified rather than assumed, as is the closed form for the
    convolution inverse, gamma_bar(pi(h)) = sum S(h_1) iota[zeta(h_2)].
    """
    _shape_guard(q, zeta)
    h = q.parent
    bsub = q.coideal
    w = _module_map_witness(q, zeta)
    if w:
        raise CertificationError("zeta-not-module-map", w)
    w = _biunitary_witness(q, zeta)
    if w:
        raise CertificationError("zeta-not-biunitary", w)
    try:
        zeta_bar = convolution_inverse(zeta, h.coalgebra, bsub.algebra)
    except CertificationError as e:
        raise CertificationError("zeta-not-invertible", e.kind) from e

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
    return gamma


def biunitarize(q: CoidealQuotient, zeta0: LinMap) -> LinMap:
    """Normalize a convolution-invertible module map to a biunitary one.

    Two steps: right-translate by zeta0_bar(1) to fix the unit, then
    convolve with eps_B of the translated inverse to repair the counit.
    Idempotent on inputs that are already biunitary.
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
    unit_map = convolution_unit(h.coalgebra, bsub.algebra)
    if (
        convolution_product(z1, zb1, h.coalgebra, bsub.algebra) != unit_map
        or convolution_product(zb1, z1, h.coalgebra, bsub.algebra) != unit_map
    ):
        raise CertificationError(
            "not-invertible", "translated pair is not a convolution-inverse pair"
        )
    phi = Vector(field, [bsub.counit.dot(zb1.column(j)) for j in range(h.dim)])
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
    left_h = [h.algebra.left_mult_matrix(bsub.iota.column(i)) for i in range(bdim)]
    left_b = [bsub.algebra.left_mult_matrix(bsub.basis(i)) for i in range(bdim)]

    rows = []
    rhs = []
    for beta in range(bdim):
        lh, lb = left_h[beta], left_b[beta]
        for t in range(bdim):
            for j in range(n):
                row = [zero] * (bdim * n)
                for m in range(n):
                    x = lh[m, j]
                    if x:
                        row[t * n + m] = row[t * n + m] + x
                for s in range(bdim):
                    x = lb[t, s]
                    if x:
                        row[s * n + j] = row[s * n + j] - x
                rows.append(row)
                rhs.append(zero)
    for t in range(bdim):
        row = [zero] * (bdim * n)
        for m in range(n):
            row[t * n + m] = h.unit[m]
        rows.append(row)
        rhs.append(bsub.unit[t])
    for j in range(n):
        row = [zero] * (bdim * n)
        for t in range(bdim):
            row[t * n + j] = bsub.counit[t]
        rows.append(row)
        rhs.append(h.counit[j])

    system = Matrix(field, rows, ncols=bdim * n)
    return solve(system, Vector(field, rhs)), nullspace(system)


def _zeta_from_flat(field: Field, z: Vector, bdim: int, n: int) -> LinMap:
    return LinMap(
        Matrix(field, [list(z.entries[t * n : (t + 1) * n]) for t in range(bdim)], ncols=n)
    )


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


def _matrix_pairs(m: Matrix):
    for i, row in enumerate(m.rows):
        for j, x in enumerate(row):
            if x:
                yield i, j, x


def _check_inclusion_projection(q: CoidealQuotient, report: Report) -> None:
    """Re-derive that iota is an algebra and comodule map and pi a
    coalgebra and module map.

    A deliberate independent re-check of what certify_coideal and
    build_quotient certify: CoidealQuotient is a public constructor, so
    certify_pams cannot assume that its input came out of build_quotient.
    """
    h = q.parent
    bsub = q.coideal
    field = q.field
    n, bdim, cdim = h.dim, bsub.dim, q.dim
    iota, pi = bsub.iota, q.pi

    ok, witness = True, ""
    if iota(bsub.unit) != h.unit:
        ok, witness = False, "iota(1_B) != 1"
    else:
        for i in range(bdim):
            for j in range(bdim):
                lhs = iota(Vector(field, bsub.mult.data[i][j]))
                rhs = h.algebra.multiply(iota.column(i), iota.column(j))
                if lhs != rhs:
                    ok, witness = False, f"iota(b{i} b{j}) != iota(b{i}) iota(b{j})"
                    break
            if not ok:
                break
    report.add("iota-algebra-map", ok, witness)

    ok, witness = True, ""
    for i in range(bdim):
        lhs = h.coalgebra.comultiply(iota.column(i))
        rhs = Matrix(field, bsub.coaction.data[i], ncols=bdim) @ iota.matrix.transpose()
        if lhs != rhs:
            ok, witness = False, f"Delta(iota(b{i})) != (id (x) iota)(coaction of b{i})"
            break
    report.add("iota-comodule-map", ok, witness)
    report.add("iota-injective", iota.matrix.rank() == bdim, "iota has a kernel")

    ok, witness = True, ""
    for i in range(n):
        lhs = pi.matrix @ h.coalgebra.comultiply(h.basis(i)) @ pi.matrix.transpose()
        if lhs != q.coalgebra.comultiply(pi(h.basis(i))):
            ok, witness = False, f"(pi (x) pi) Delta(e{i}) != Delta_C(pi(e{i}))"
            break
    if ok:
        for i in range(n):
            if q.coalgebra.counit.dot(pi(h.basis(i))) != h.counit[i]:
                ok, witness = False, f"eps_C(pi(e{i})) != eps(e{i})"
                break
    report.add("pi-coalgebra-map", ok, witness)

    acted = [contract(q.action, 1, h.basis(j)).transpose() for j in range(n)]
    ok, witness = True, ""
    for i in range(n):
        projected = pi(h.basis(i))
        for j in range(n):
            lhs = pi(h.algebra.multiply(h.basis(i), h.basis(j)))
            if lhs != acted[j] @ projected:
                ok, witness = False, f"pi(e{i} e{j}) != pi(e{i}) <| e{j}"
                break
        if not ok:
            break
    report.add("pi-module-map", ok, witness)
    report.add("pi-surjective", pi.matrix.rank() == cdim, "pi is not onto")

    # coinvariants {h : sum h_1 (x) pi(h_2) = h (x) pi(1)} against iota(B)
    one_c = pi(h.unit)
    rows = []
    for a in range(n):
        for t in range(cdim):
            row = []
            for i in range(n):
                s = field.zero
                for j in range(n):
                    x = h.comult[i, a, j]
                    if x:
                        s = s + x * pi.matrix[t, j]
                if a == i:
                    s = s - one_c[t]
                row.append(s)
            rows.append(row)
    coinv = nullspace(Matrix(field, rows, ncols=n))
    report.add(
        "coinvariants-equal-image",
        subspace_basis([coinv.row(r) for r in range(coinv.nrows)], field=field, length=n)
        == subspace_basis([iota.column(j) for j in range(bdim)], field=field, length=n),
        "coinvariants of h -> sum h_1 (x) pi(h_2) differ from iota(B)",
    )


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

    ok, witness = True, ""
    for t in range(cdim):
        lhs = h.coalgebra.comultiply(gamma.column(t)) @ pi.matrix.transpose()
        rhs = gamma.matrix @ q.coalgebra.comultiply(q.basis(t))
        if lhs != rhs:
            ok, witness = False, f"(id (x) pi) Delta(gamma(x{t})) != (gamma (x) id) Delta_C(x{t})"
            break
    report.add("gamma-comodule-map", ok, witness)

    ok, witness = True, ""
    if gamma(one_c) != h.unit:
        ok, witness = False, "gamma(pi(1)) != 1"
    else:
        for t in range(cdim):
            if h.counit.dot(gamma.column(t)) != q.coalgebra.counit[t]:
                ok, witness = False, f"eps(gamma(x{t})) != eps_C(x{t})"
                break
    report.add("gamma-biunitary", ok, witness)

    w = _biunitary_witness(q, zeta_bar)
    report.add("zetabar-biunitary", not w, w)
    ok, witness = True, ""
    if gamma_bar(one_c) != h.unit:
        ok, witness = False, "gamma_bar(pi(1)) != 1"
    else:
        for t in range(cdim):
            if h.counit.dot(gamma_bar.column(t)) != q.coalgebra.counit[t]:
                ok, witness = False, f"eps(gamma_bar(x{t})) != eps_C(x{t})"
                break
    report.add("gammabar-biunitary", ok, witness)

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
    trivial_bc = Matrix(
        field,
        [[x * e for e in q.coalgebra.counit.entries] for x in bsub.unit.entries],
        ncols=cdim,
    )
    report.add(
        "zeta-gamma-triviality",
        zeta.matrix @ gamma.matrix == trivial_bc,
        "zeta gamma != eps_C(-) 1_B",
    )
    trivial_cb = Matrix(
        field,
        [[x * e for e in bsub.counit.entries] for x in one_c.entries],
        ncols=bdim,
    )
    report.add(
        "pi-s-inv-iota-trivial",
        pi.matrix @ h.antipode_inverse() @ iota.matrix == trivial_cb,
        "pi S^-1 iota != eps_B(-) pi(1)",
    )


def _check_dual_side(
    q: CoidealQuotient,
    zeta: LinMap,
    gamma: LinMap,
    zeta_bar: LinMap,
    gamma_bar: LinMap,
    report: Report,
) -> None:
    """The transposed identity family on H*, B* and C*.

    Elements of X* (x) Y* are handled as matrices with the first tensor
    leg on rows; every identity is evaluated on the full basis.
    """
    h = q.parent
    bsub = q.coideal
    field = q.field
    n, bdim, cdim = h.dim, bsub.dim, q.dim
    hs = dual(h)
    iostar = bsub.iota.transpose()
    pistar = q.pi.transpose()
    zetastar = zeta.transpose()
    gammastar = gamma.transpose()
    zetabarstar = zeta_bar.transpose()
    gammabarstar = gamma_bar.transpose()
    sstar = LinMap(hs.antipode)
    sstar_inv = hs.antipode_inverse()

    bstar = Coalgebra(
        field,
        Tensor3(
            field,
            [
                [[bsub.mult[j, k, i] for k in range(bdim)] for j in range(bdim)]
                for i in range(bdim)
            ],
        ),
        Vector(field, bsub.unit.entries),
    )
    cstar = Algebra(
        field,
        Tensor3(
            field,
            [
                [[q.coalgebra.comult[k, i, j] for k in range(cdim)] for j in range(cdim)]
                for i in range(cdim)
            ],
        ),
        Vector(field, q.coalgebra.counit.entries),
    )

    btr = _btr_tensor(q)
    btrm = [contract(btr, 0, hs.basis(i)).transpose() for i in range(n)]
    lh = [hs.algebra.left_mult_matrix(hs.basis(i)) for i in range(n)]

    ok, witness = True, ""
    for a in range(n):
        for b2 in range(n):
            if iostar.matrix @ lh[a].column(b2) != btrm[a] @ iostar.column(b2):
                ok, witness = False, f"iota*(f{a} f{b2}) != f{a} |> iota*(f{b2})"
                break
        if not ok:
            break
    report.add("iota-star-module-law", ok, witness)

    ok, witness = True, ""
    for a in range(n):
        for u in range(bdim):
            if btrm[a].column(u) != iostar.matrix @ (lh[a] @ zetastar.column(u)):
                ok, witness = False, f"f{a} |> b*{u} != iota*(f{a} zeta*(b*{u}))"
                break
        if not ok:
            break
    report.add("btr-zeta-star-form", ok, witness)

    dzs = [hs.coalgebra.comultiply(zetastar.column(v)) for v in range(bdim)]
    db = [bstar.comultiply(Vector.basis(field, bdim, beta)) for beta in range(bdim)]
    ok, witness = True, ""
    for beta in range(bdim):
        lhs = iostar.matrix @ dzs[beta]
        rhs = db[beta] @ zetastar.matrix.transpose()
        if lhs != rhs:
            ok, witness = False, f"left B*-colinearity of zeta* fails at b*{beta}"
            break
    report.add("zeta-star-comodule-law", ok, witness)

    ok, witness = True, ""
    for t in range(cdim):
        lhs = hs.coalgebra.comultiply(pistar.column(t))
        rhs = pistar.matrix @ contract(q.action, 2, Vector.basis(field, cdim, t))
        if lhs != rhs:
            ok, witness = False, f"Delta(pi*(x*{t})) != sum pi*(x*_s) (x) f_i"
            break
    report.add("pi-star-comodule-law", ok, witness)

    ok, witness = True, ""
    for a in range(n):
        for t in range(cdim):
            lhs = gammastar.matrix @ (lh[a] @ pistar.column(t))
            rhs = cstar.multiply(gammastar.column(a), Vector.basis(field, cdim, t))
            if lhs != rhs:
                ok, witness = False, f"gamma*(f{a} pi*(x*{t})) != gamma*(f{a}) x*{t}"
                break
        if not ok:
            break
    report.add("gamma-star-module-law", ok, witness)

    ident = LinMap.identity(field, n)
    zi = LinMap(zetastar.matrix @ iostar.matrix)
    zbi = LinMap(zetabarstar.matrix @ iostar.matrix)
    pg = LinMap(pistar.matrix @ gammastar.matrix)
    pgbar = LinMap(pistar.matrix @ gammabarstar.matrix)
    report.add(
        "conv-unit-dual",
        convolution_product(zi, pg, hs.coalgebra, hs.algebra) == ident,
        "(zeta* iota*) * (pi* gamma*) != id",
    )
    report.add(
        "gamma-star-zeta-star",
        gammastar.matrix @ zetastar.matrix
        == Matrix(
            field,
            [[e * x for x in bsub.unit.entries] for e in q.coalgebra.counit.entries],
            ncols=bdim,
        ),
        "gamma* zeta* != <-, 1_B> eps_C",
    )
    report.add(
        "zeta-star-splits",
        iostar.matrix @ zetastar.matrix == Matrix.identity(field, bdim),
        "iota* zeta* != id_B*",
    )
    report.add(
        "gamma-star-splits",
        gammastar.matrix @ pistar.matrix == Matrix.identity(field, cdim),
        "gamma* pi* != id_C*",
    )
    report.add(
        "bar-identity-left",
        convolution_product(ident, pgbar, hs.coalgebra, hs.algebra) == zi,
        "id * (pi* gammabar*) != zeta* iota*",
    )
    report.add(
        "bar-identity-right",
        convolution_product(sstar, zi, hs.coalgebra, hs.algebra) == pgbar,
        "S* * (zeta* iota*) != pi* gammabar*",
    )
    report.add(
        "bar-identity-middle",
        convolution_product(pg, sstar, hs.coalgebra, hs.algebra) == zbi,
        "(pi* gamma*) * S* != zetabar* iota*",
    )
    report.add(
        "bar-identity-antipode",
        convolution_product(pgbar, zbi, hs.coalgebra, hs.algebra) == sstar,
        "(pi* gammabar*) * (zetabar* iota*) != S*",
    )

    # the fusion family: products of zeta*, pi* gamma* and the |> action
    # recombine into plain multiplication by H* on the image of zeta*
    dh = [hs.coalgebra.comultiply(hs.basis(a)) for a in range(n)]
    prodz = [[lh[j] @ zetastar.column(v) for v in range(bdim)] for j in range(n)]
    zsb = [
        [zetastar.matrix @ btrm[i].column(u) for u in range(bdim)] for i in range(n)
    ]
    lz = [
        [hs.algebra.left_mult_matrix(zsb[i][u]) for u in range(bdim)] for i in range(n)
    ]
    lzs = [hs.algebra.left_mult_matrix(zetastar.column(u)) for u in range(bdim)]
    pgm = pg.matrix
    pgf = [[pgm @ lh[j].column(p) for p in range(n)] for j in range(n)]

    ok, witness = True, ""
    for alpha in range(n):
        for beta in range(bdim):
            acc = [[field.zero] * n for _ in range(n)]
            for i, j, xa in _matrix_pairs(dh[alpha]):
                for u, v, xb in _matrix_pairs(db[beta]):
                    xab = xa * xb
                    for p, qq, xz in _matrix_pairs(dzs[v]):
                        w = lz[i][u] @ pgf[j][p]
                        x = xab * xz
                        for m, wm in enumerate(w.entries):
                            if wm:
                                acc[m][qq] = acc[m][qq] + x * wm
            if Matrix(field, acc, ncols=n) != lh[alpha] @ dzs[beta]:
                ok, witness = False, f"at f{alpha}, b*{beta}"
                break
        if not ok:
            break
    report.add("fusion-a", ok, witness)

    ok, witness = True, ""
    for beta in range(bdim):
        acc = [[field.zero] * n for _ in range(n)]
        for u, v, xb in _matrix_pairs(db[beta]):
            for p, qq, xz in _matrix_pairs(dzs[v]):
                w = lzs[u] @ pgm.column(p)
                x = xb * xz
                for m, wm in enumerate(w.entries):
                    if wm:
                        acc[m][qq] = acc[m][qq] + x * wm
        if Matrix(field, acc, ncols=n) != dzs[beta]:
            ok, witness = False, f"at b*{beta}"
            break
    report.add("fusion-b", ok, witness)

    pgz = [[pgm @ prodz[j][v] for v in range(bdim)] for j in range(n)]
    ok, witness = True, ""
    for alpha in range(n):
        for beta in range(bdim):
            acc = Vector.zero(field, n)
            for i, j, xa in _matrix_pairs(dh[alpha]):
                for u, v, xb in _matrix_pairs(db[beta]):
                    acc = acc + (lz[i][u] @ pgz[j][v]).scale(xa * xb)
            if acc != lh[alpha] @ zetastar.column(beta):
                ok, witness = False, f"at f{alpha}, b*{beta}"
                break
        if not ok:
            break
    report.add("fusion-c", ok, witness)

    gz = [[gammastar.matrix @ prodz[a][u] for u in range(bdim)] for a in range(n)]
    lcz = [[cstar.left_mult_matrix(gz[a][u]) for u in range(bdim)] for a in range(n)]
    gff = [[gammastar.matrix @ lh[a].column(p) for p in range(n)] for a in range(n)]
    ok, witness = True, ""
    for alpha in range(n):
        for beta in range(bdim):
            acc = [[field.zero] * n for _ in range(cdim)]
            for u, v, xb in _matrix_pairs(db[beta]):
                for p, qq, xz in _matrix_pairs(dzs[v]):
                    w = lcz[alpha][u] @ gammastar.column(p)
                    x = xb * xz
                    for m, wm in enumerate(w.entries):
                        if wm:
                            acc[m][qq] = acc[m][qq] + x * wm
            expected = [[field.zero] * n for _ in range(cdim)]
            for p, qq, xz in _matrix_pairs(dzs[beta]):
                for m, wm in enumerate(gff[alpha][p].entries):
                    if wm:
                        expected[m][qq] = expected[m][qq] + xz * wm
            if Matrix(field, acc, ncols=n) != Matrix(field, expected, ncols=n):
                ok, witness = False, f"at f{alpha}, b*{beta}"
                break
        if not ok:
            break
    report.add("fusion-d", ok, witness)

    gkz = [
        [[gammastar.matrix @ (lh[k2] @ zsb[i][u]) for u in range(bdim)] for i in range(n)]
        for k2 in range(n)
    ]
    ok, witness = True, ""
    for k2 in range(n):
        for alpha in range(n):
            for beta in range(bdim):
                acc = Vector.zero(field, cdim)
                for i, j, xa in _matrix_pairs(dh[alpha]):
                    for u, v, xb in _matrix_pairs(db[beta]):
                        acc = acc + cstar.multiply(gkz[k2][i][u], gz[j][v]).scale(xa * xb)
                if acc != gammastar.matrix @ (lh[k2] @ prodz[alpha][beta]):
                    ok, witness = False, f"at f{k2}, f{alpha}, b*{beta}"
                    break
            if not ok:
                break
        if not ok:
            break
    report.add("fusion-e", ok, witness)

    # convolution-inverse side laws
    one_c = q.pi(h.unit)
    lcb = [cstar.left_mult_matrix(Vector.basis(field, cdim, s)) for s in range(cdim)]
    gbf = [[gammabarstar.matrix @ lh[a].column(i) for i in range(n)] for a in range(n)]
    ok, witness = True, ""
    for t in range(cdim):
        for alpha in range(n):
            acc = Vector.zero(field, cdim)
            for s in range(cdim):
                for i in range(n):
                    x = q.action[s, i, t]
                    if x:
                        acc = acc + (lcb[s] @ gbf[alpha][i]).scale(x)
            if acc != gammabarstar.column(alpha).scale(one_c[t]):
                ok, witness = False, f"at x*{t}, f{alpha}"
                break
        if not ok:
            break
    report.add("gammabar-star-mult-law", ok, witness)

    dzb = [hs.coalgebra.comultiply(zetabarstar.column(u)) for u in range(bdim)]
    ok, witness = True, ""
    for beta in range(bdim):
        acc = [[field.zero] * n for _ in range(bdim)]
        for u, v, xb in _matrix_pairs(db[beta]):
            for p, qq, xz in _matrix_pairs(dzb[u]):
                w = btrm[p].column(v)
                x = xb * xz
                for m, wm in enumerate(w.entries):
                    if wm:
                        acc[m][qq] = acc[m][qq] + x * wm
        expected = Matrix(
            field,
            [
                [bsub.counit[r] * zetabarstar.matrix[m2, beta] for m2 in range(n)]
                for r in range(bdim)
            ],
            ncols=n,
        )
        if Matrix(field, acc, ncols=n) != expected:
            ok, witness = False, f"at b*{beta}"
            break
    report.add("zetabar-star-coaction-law", ok, witness)

    spi = [sstar_inv @ pistar.column(t) for t in range(cdim)]
    ok, witness = True, ""
    for t in range(cdim):
        for alpha in range(n):
            lhs = lcb[t] @ gammabarstar.column(alpha)
            rhs = gammabarstar.matrix @ (lh[alpha] @ spi[t])
            if lhs != rhs:
                ok, witness = False, f"at x*{t}, f{alpha}"
                break
        if not ok:
            break
    report.add("gammabar-star-shift", ok, witness)

    isv = [iostar.matrix @ sstar_inv.column(p) for p in range(n)]
    ok, witness = True, ""
    for beta in range(bdim):
        acc = [[field.zero] * bdim for _ in range(n)]
        for p, qq, xz in _matrix_pairs(dzb[beta]):
            for v2, y in enumerate(isv[p].entries):
                if y:
                    acc[qq][v2] = acc[qq][v2] + xz * y
        if zetabarstar.matrix @ db[beta] != Matrix(field, acc, ncols=bdim):
            ok, witness = False, f"at b*{beta}"
            break
    report.add("zetabar-star-antipode-law", ok, witness)


def certify_pams(
    q: CoidealQuotient, zeta: LinMap, gamma: LinMap | None = None
) -> Pams:
    """Certify (zeta, gamma) as a PAMS on the quotient.

    Every defining axiom and derived identity is verified on the full
    basis (pairs of basis elements for two-argument identities); the
    first failure is raised as a CertificationError carrying the whole
    report.  With gamma omitted it is derived from zeta.
    """
    _shape_guard(q, zeta)
    h = q.parent
    bsub = q.coideal
    report = Report(f"pams on {h.name or 'H'}")

    _check_inclusion_projection(q, report)
    report.raise_if_failed()

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
        gamma = gamma_from_zeta(q, zeta)
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
    _check_dual_side(q, zeta, gamma, zeta_bar, gamma_bar, report)
    report.raise_if_failed()
    return Pams(q, zeta, gamma, zeta_bar, gamma_bar, report)


# --- induced systems ----------------------------------------------------------------


def _tensor_from(field: Field, dims: tuple[int, int, int], fn) -> Tensor3:
    d0, d1, d2 = dims
    return Tensor3(
        field,
        [[[fn(i, j, k) for k in range(d2)] for j in range(d1)] for i in range(d0)],
        dims=dims,
    )


def induced_pams(p: Pams, kind: str) -> Pams:
    """Build one of the six induced systems on op/cop/dual Hopf algebras.

    Each row supplies its own projection and section, predicts the whole
    induced structure (subalgebra multiplication, coaction, quotient
    coalgebra, quotient action), then certifies the result from scratch.
    A failed prediction is induced-structure-mismatch; a derived gamma
    differing from the induced one is induced-gamma-unique.
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
        hs = dual(h)
        section = _dual_section(q)
        btr = _btr_tensor(q)
        iota_t, pi_t = iota_m.transpose(), pi_m.transpose()
        sinv_t = sinv_m.transpose()
        counit_c2 = Vector(field, bsub.unit.entries)
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

    b2 = certify_coideal(h2, LinMap(iota2))
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

    zeta_map, gamma_map = LinMap(zeta2), LinMap(gamma2)
    out = certify_pams(q2, zeta_map, gamma_map)
    if gamma_from_zeta(q2, zeta_map) != out.gamma:
        raise CertificationError(
            "induced-gamma-unique", f"{kind}: derived gamma differs from the induced one"
        )
    return out
