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

import functools
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
    CertificationError,
    LinMap,
    Report,
    _first_mismatch,
    _grouped,
    _terms_product,
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
    Tensor3,
    Vector,
    contract,
    nullspace,
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


def _matrix_pairs(rows):
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                yield i, j, x


def _nonzeros(entries) -> tuple:
    return tuple((k, x) for k, x in enumerate(entries) if x)


def _sparse_rows(rows) -> list[tuple]:
    return [_nonzeros(row) for row in rows]


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
    icols = [iota.column(i) for i in range(bdim)]
    hb = [h.basis(i) for i in range(n)]
    pis = [pi(e) for e in hb]
    pi_t = pi.matrix.transpose()

    ok, witness = _first_mismatch("iota(1_B) != 1".format, lambda: (iota(bsub.unit), h.unit))
    if ok:
        ok, witness = _first_mismatch(
            "iota(b{0} b{1}) != iota(b{0}) iota(b{1})".format,
            lambda i, j: (iota(Vector._of(bsub.mult.field, bsub.mult.data[i][j])), h.algebra.multiply(icols[i], icols[j])),
            bdim, bdim,
        )
    report.add("iota-algebra-map", ok, witness)

    iota_t = iota.matrix.transpose()
    report.add("iota-comodule-map", *_first_mismatch(
        "Delta(iota(b{0})) != (id (x) iota)(coaction of b{0})".format,
        lambda i: (
            h.coalgebra.comultiply(icols[i]),
            Matrix._of(bsub.coaction.field, bsub.coaction.data[i], bdim) @ iota_t,
        ),
        bdim,
    ))
    report.add("iota-injective", iota.matrix.rank() == bdim, "iota has a kernel")

    ok, witness = _first_mismatch(
        "(pi (x) pi) Delta(e{0}) != Delta_C(pi(e{0}))".format,
        lambda i: (pi.matrix @ h.coalgebra.comultiply(hb[i]) @ pi_t, q.coalgebra.comultiply(pis[i])),
        n,
    )
    if ok:
        ok, witness = _first_mismatch(
            "eps_C(pi(e{0})) != eps(e{0})".format,
            lambda i: (q.coalgebra.counit.dot(pis[i]), h.counit[i]),
            n,
        )
    report.add("pi-coalgebra-map", ok, witness)

    acted = [contract(q.action, 1, e).transpose() for e in hb]
    report.add("pi-module-map", *_first_mismatch(
        "pi(e{0} e{1}) != pi(e{0}) <| e{1}".format,
        lambda i, j: (pi(h.algebra.multiply(hb[i], hb[j])), acted[j] @ pis[i]),
        n, n,
    ))
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
    coinv = nullspace(Matrix._of(field, rows, n))
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


def _check_dual_side(
    q: CoidealQuotient,
    zeta: LinMap,
    gamma: LinMap,
    zeta_bar: LinMap,
    gamma_bar: LinMap,
    report: Report,
) -> None:
    """The transposed identity family on H*, B* and C*.

    Only identities that say more than a transpose of a primal one are
    checked here: zeta* iota* = id, gamma* pi* = id and gamma* zeta* =
    <-, 1_B> eps_C are the transposes of zeta-splits-iota, gamma-splits-pi
    and zeta-gamma-triviality, which _check_primal certifies first.
    Every identity over the basis is one _first_mismatch walk, so a
    witness names the first failing coordinate.  Elements are lists of
    coordinates and elements of X* (x) Y* nested lists with the first leg
    outside; dense matrices appear only where whole maps are compared.
    A transposed map applies as a combination of the sparse rows of the
    map, products go through the Algebra.terms tables of H* and C*
    (q.cstar), every table that does not depend on the indices is built
    once, and the products inside the fusion sums are memoized.
    """
    h = q.parent
    bsub = q.coideal
    field = q.field
    zero = field.zero
    n, bdim, cdim = h.dim, bsub.dim, q.dim
    hs = q.hstar
    hterms, cterms = hs.algebra.terms, q.cstar.terms

    def vsum(width, terms):  # sum c e_k over (k, c)
        out = [zero] * width
        for k, c in terms:
            out[k] = out[k] + c
        return out

    def msum(nrows, ncols, terms):  # sum c e_r (x) e_k over (r, k, c)
        out = [[zero] * ncols for _ in range(nrows)]
        for r, k, c in terms:
            out[r][k] = out[r][k] + c
        return out

    def combine(rows, width):  # y -> sum y_k rows[k]: a transposed map, or f_a (-)
        return lambda y: vsum(width, ((t, c * x) for k, c in enumerate(y) if c for t, x in rows[k]))

    def hmul(u, v):
        return _terms_product(hterms, zero, u, v)

    def cmul(u, v):
        return _terms_product(cterms, zero, u, v)

    def coproduct(w):
        return msum(n, n, ((i, j, c * x) for k, c in enumerate(w) if c for (i, j), x in dh[k]))

    iota_rows, zeta_rows, pi_rows, zbar_rows = (
        _sparse_rows(m.matrix.rows) for m in (bsub.iota, zeta, q.pi, zeta_bar)
    )
    iota_s, zeta_s, pi_s = combine(iota_rows, bdim), combine(zeta_rows, n), combine(pi_rows, n)
    gamma_s = combine(_sparse_rows(gamma.matrix.rows), cdim)
    gbar_s = combine(_sparse_rows(gamma_bar.matrix.rows), cdim)
    left = [combine(plane, n) for plane in hterms]
    btr = _btr_tensor(q).data
    btr_rows = [_sparse_rows(plane) for plane in btr]
    btr_s = [combine(rows, bdim) for rows in btr_rows]  # f_a |> (-)
    # Delta(f_k) = sum m[i,j,k] f_i (x) f_j of the dual coalgebras, as ((i, j), m[i,j,k]) at [k]
    dh, db = _grouped(h.mult, 2), _grouped(bsub.mult, 2)
    act = _grouped(q.action, 2)  # the ((s, i), <x*_t, x_s <| e_i>) with a nonzero pairing, at [t]
    cbasis = Matrix.identity(field, cdim).rows
    zs, gs, gbs, pis = (m.matrix.rows for m in (zeta, gamma, gamma_bar, q.pi))
    fprod = [[vsum(n, pair) for pair in plane] for plane in hterms]
    fz = [[left[a](z) for z in zs] for a in range(n)]
    dzs = [coproduct(z) for z in zs]
    dzs_nz = [list(_matrix_pairs(d)) for d in dzs]

    report.add("iota-star-module-law", *_first_mismatch(
        "iota*(f{0} f{1}) != f{0} |> iota*(f{1})".format,
        lambda a, b: (iota_s(fprod[a][b]), btr_s[a](bsub.iota.matrix.rows[b])),
        n, n,
    ))
    report.add("btr-zeta-star-form", *_first_mismatch(
        "f{0} |> b*{1} != iota*(f{0} zeta*(b*{1}))".format,
        lambda a, u: (list(btr[a][u]), iota_s(fz[a][u])),
        n, bdim,
    ))
    report.add("zeta-star-comodule-law", *_first_mismatch(
        "left B*-colinearity of zeta* fails at b*{0}".format,
        lambda beta: (
            msum(bdim, n, ((u, qq, x * y) for p, qq, x in dzs_nz[beta] for u, y in iota_rows[p])),
            msum(bdim, n, ((u, qq, x * y) for (u, v), x in db[beta] for qq, y in zeta_rows[v])),
        ),
        bdim,
    ))
    report.add("pi-star-comodule-law", *_first_mismatch(
        "Delta(pi*(x*{0})) != sum pi*(x*_s) (x) f_i".format,
        lambda t: (
            coproduct(pis[t]),
            msum(n, n, ((p, i, x * y) for (s, i), x in act[t] for p, y in pi_rows[s])),
        ),
        cdim,
    ))
    report.add("gamma-star-module-law", *_first_mismatch(
        "gamma*(f{0} pi*(x*{1})) != gamma*(f{0}) x*{1}".format,
        lambda a, t: (gamma_s(left[a](pis[t])), cmul(gs[a], cbasis[t])),
        n, cdim,
    ))

    ident = LinMap.identity(field, n)
    sstar = LinMap(hs.antipode)
    zi = LinMap((bsub.iota.matrix @ zeta.matrix).transpose())
    zbi = LinMap((bsub.iota.matrix @ zeta_bar.matrix).transpose())
    pg = LinMap((gamma.matrix @ q.pi.matrix).transpose())
    pgbar = LinMap((gamma_bar.matrix @ q.pi.matrix).transpose())
    report.add(
        "conv-unit-dual",
        convolution_product(zi, pg, hs.coalgebra, hs.algebra) == ident,
        "(zeta* iota*) * (pi* gamma*) != id",
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
    zsb = [[zeta_s(row) for row in plane] for plane in btr]  # zeta*(f_i |> b*_u)
    pgf = [[pi_s(gamma_s(w)) for w in row] for row in fprod]  # pi* gamma*(f_j f_p)
    gz = [[gamma_s(w) for w in row] for row in fz]  # gamma*(f_a zeta*(b*_u))
    gff_dense = [[gamma_s(w) for w in row] for row in fprod]  # gamma*(f_a f_p)
    gff = [[_nonzeros(w) for w in row] for row in gff_dense]

    @functools.cache
    def zsb_pgf(i, u, j):  # p -> zsb[i][u] pgf[j][p]
        return [_nonzeros(hmul(zsb[i][u], w)) for w in pgf[j]]

    def fusion_a(alpha, beta):
        acc = [[zero] * n for _ in range(n)]
        for (i, j), xa in dh[alpha]:
            for (u, v), xb in db[beta]:
                prods, xab = zsb_pgf(i, u, j), xa * xb
                for p, qq, xz in dzs_nz[v]:
                    x = xab * xz
                    for m, y in prods[p]:
                        acc[m][qq] = acc[m][qq] + x * y
        return acc, msum(
            n, n, ((m, qq, x * y) for p, qq, x in dzs_nz[beta] for m, y in hterms[alpha][p])
        )

    report.add("fusion-a", *_first_mismatch("at f{0}, b*{1}".format, fusion_a, n, bdim))

    @functools.cache
    def zs_pgf(u, p):
        return _nonzeros(hmul(zs[u], pi_s(gs[p])))

    report.add("fusion-b", *_first_mismatch(
        "at b*{0}".format,
        lambda beta: (
            msum(n, n, (
                (m, qq, xb * xz * y)
                for (u, v), xb in db[beta]
                for p, qq, xz in dzs_nz[v]
                for m, y in zs_pgf(u, p)
            )),
            dzs[beta],
        ),
        bdim,
    ))

    @functools.cache
    def zsb_pgz(i, u, j):  # v -> zsb[i][u] pi* gamma*(f_j zeta*(b*_v))
        return [_nonzeros(hmul(zsb[i][u], pi_s(w))) for w in gz[j]]

    report.add("fusion-c", *_first_mismatch(
        "at f{0}, b*{1}".format,
        lambda alpha, beta: (
            vsum(n, (
                (m, xa * xb * y)
                for (i, j), xa in dh[alpha]
                for (u, v), xb in db[beta]
                for m, y in zsb_pgz(i, u, j)[v]
            )),
            fz[alpha][beta],
        ),
        n, bdim,
    ))

    @functools.cache
    def gz_gf(a, u):  # p -> gz[a][u] gamma*(f_p)
        return [_nonzeros(cmul(gz[a][u], g)) for g in gs]

    report.add("fusion-d", *_first_mismatch(
        "at f{0}, b*{1}".format,
        lambda alpha, beta: (
            msum(cdim, n, (
                (m, qq, xb * xz * y)
                for (u, v), xb in db[beta]
                for p, qq, xz in dzs_nz[v]
                for m, y in gz_gf(alpha, u)[p]
            )),
            msum(cdim, n, (
                (m, qq, xz * y) for p, qq, xz in dzs_nz[beta] for m, y in gff[alpha][p]
            )),
        ),
        n, bdim,
    ))

    # fusion-e is bilinear in zsb[i][u] (x) gz[j][v], a sum that does not depend on k2
    zsb_nz = [[_nonzeros(w) for w in row] for row in zsb]
    gz_nz = [[_nonzeros(w) for w in row] for row in gz]
    fcc = [[[_nonzeros(cmul(g, x)) for x in cbasis] for g in row] for row in gff_dense]

    @functools.cache
    def zsb_gz(alpha, beta):
        return list(_matrix_pairs(msum(n, cdim, (
            (r, c, xa * xb * z * g)
            for (i, j), xa in dh[alpha]
            for (u, v), xb in db[beta]
            for r, z in zsb_nz[i][u]
            for c, g in gz_nz[j][v]
        ))))

    report.add("fusion-e", *_first_mismatch(
        "at f{0}, f{1}, b*{2}".format,
        lambda k2, alpha, beta: (
            vsum(cdim, (
                (m, x * y) for r, c, x in zsb_gz(alpha, beta) for m, y in fcc[k2][r][c]
            )),
            gamma_s(left[k2](fz[alpha][beta])),
        ),
        n, n, bdim,
    ))

    # convolution-inverse side laws
    one_c = q.pi(h.unit)
    gbf = [[_nonzeros(gbar_s(w)) for w in row] for row in fprod]  # gammabar*(f_a f_i)
    report.add("gammabar-star-mult-law", *_first_mismatch(
        "at x*{0}, f{1}".format,
        lambda t, alpha: (
            vsum(cdim, (
                (k, x * y * w)
                for (s, i), x in act[t]
                for j, y in gbf[alpha][i]
                for k, w in cterms[s][j]
            )),
            [one_c[t] * y for y in gbs[alpha]],
        ),
        cdim, n,
    ))
    dzb_nz = [list(_matrix_pairs(coproduct(row))) for row in zeta_bar.matrix.rows]
    report.add("zetabar-star-coaction-law", *_first_mismatch(
        "at b*{0}".format,
        lambda beta: (
            msum(bdim, n, (
                (m, qq, xb * xz * y)
                for (u, v), xb in db[beta]
                for p, qq, xz in dzb_nz[u]
                for m, y in btr_rows[p][v]
            )),
            [[e * z for z in zeta_bar.matrix.rows[beta]] for e in bsub.counit.entries],
        ),
        bdim,
    ))
    sstar_inv = hs.antipode_inverse()
    spi = (q.pi.matrix @ sstar_inv.transpose()).rows  # S*^-1 pi*(x*_t)
    report.add("gammabar-star-shift", *_first_mismatch(
        "at x*{0}, f{1}".format,
        lambda t, alpha: (cmul(cbasis[t], gbs[alpha]), gbar_s(left[alpha](spi[t]))),
        cdim, n,
    ))
    isv = _sparse_rows((sstar_inv.transpose() @ bsub.iota.matrix).rows)  # iota* S*^-1 (f_p)
    report.add("zetabar-star-antipode-law", *_first_mismatch(
        "at b*{0}".format,
        lambda beta: (
            msum(n, bdim, ((m, v, x * y) for (u, v), x in db[beta] for m, y in zbar_rows[u])),
            msum(n, bdim, ((qq, v2, x * y) for p, qq, x in dzb_nz[beta] for v2, y in isv[p])),
        ),
        bdim,
    ))


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
    return Tensor3._of(
        field,
        [[[fn(i, j, k) for k in range(d2)] for j in range(d1)] for i in range(d0)],
        dims,
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
