"""Partial dualization along a certified mapping system.

Builds the left partial dual on the carrier C* # B from a certified
mapping system (zeta, gamma): a quasi-Hopf algebra whose multiplication,
comultiplication, associator, preantipode, and antipodes are all
assembled from structure constants and certified identity by identity.
The right partial dual lives on C (x) B* and is produced together with
the bit-exact duality pairing against the left side.  Both sides keep
their comultiplication and counit as a hopf.Coalgebra, as a Hopf algebra
does, so every reader takes the nonzeros of Delta from Coalgebra.terms
and none reshapes a Delta matrix or regroups its tensor.

The left constructor builds each structure map from one form and makes
no check of its own: it certifies the assembled object with
verify_quasi_hopf, the one statement of the quasi-Hopf axiom suite, and
returns that suite's checks as its report.  A second closed form of a
map would agree by an identity already certified, and left_partial_dual
gives the proof for each.  A failed identity raises CertificationError;
nothing is ever repaired silently.
"""

from __future__ import annotations

from .coideal import _btr_tensor, btl_matrix, btr_matrix
from .hopf import (
    Algebra,
    CertificationError,
    Coalgebra,
    HopfAlgebra,
    LinMap,
    Report,
    _first_mismatch,
    _grouped,
    _support,
    _weighted_sum,
    convolution_inverse,
    hit_left,
    power_multiply,
    power_unit,
    tensor_apply,
    tensor_permute,
    verify_algebra,
    verify_coalgebra,
    verify_compatibility,
    verify_hopf,
    verify_quasi_bialgebra,
)
from .linalg import Elimination, Matrix, Tensor3, Vector, _kron_acc, _same_field
from .pams import Pams

__all__ = [
    "CoquasiHopfAlgebra",
    "HopfDetection",
    "QuasiHopfAlgebra",
    "biop_iso_check",
    "detect_hopf",
    "left_partial_dual",
    "op_iso_check",
    "right_partial_dual",
    "verify_quasi_hopf",
]


class QuasiHopfAlgebra:
    """A quasi-Hopf algebra on the carrier C* # B.

    `algebra` holds the smash multiplication and `coalgebra` the
    comultiplication and counit, as a Hopf algebra holds them (a Coalgebra
    whose Delta is only quasi-coassociative).  `phi` and `phi_inv` are the
    associator and its inverse flattened in the triple tensor power,
    `t_map` is the preantipode, and `antipodes`, when present, is the pair
    of certified triples (S, alpha, beta).  When upsilon is not invertible
    `antipodes` is None, repr calls out the defect, and the report's
    antipode-availability check confirms that upsilon is indeed not
    invertible.
    """

    __slots__ = (
        "algebra",
        "coalgebra",
        "phi",
        "phi_inv",
        "t_map",
        "upsilon",
        "antipodes",
        "pams",
        "report",
    )

    def __init__(
        self,
        algebra: Algebra,
        coalgebra: Coalgebra,
        phi: Vector,
        phi_inv: Vector,
        t_map: Matrix,
        upsilon: Vector,
        antipodes: tuple[tuple[Matrix, Vector, Vector], tuple[Matrix, Vector, Vector]] | None,
        pams: Pams | None,
        report: Report,
    ):
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.phi = phi
        self.phi_inv = phi_inv
        self.t_map = t_map
        self.upsilon = upsilon
        self.antipodes = antipodes
        self.pams = pams
        self.report = report

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def upsilon_invertible(self) -> bool:
        return self.antipodes is not None

    def basis(self, i: int) -> Vector:
        return self.algebra.basis(i)

    def multiply(self, u: Vector, v: Vector) -> Vector:
        return self.algebra.multiply(u, v)

    def comultiply(self, v: Vector) -> Vector:
        return self.coalgebra.comultiply_flat(v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuasiHopfAlgebra):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.coalgebra == other.coalgebra
            and self.phi == other.phi
            and self.phi_inv == other.phi_inv
            and self.t_map == other.t_map
            and self.upsilon == other.upsilon
            and self.antipodes == other.antipodes
        )

    def __repr__(self) -> str:
        tail = "two antipodes" if self.antipodes is not None else "NO ANTIPODE (upsilon not invertible)"
        return f"QuasiHopfAlgebra(dim={self.dim} over {self.field.descriptor}, {tail})"


class CoquasiHopfAlgebra:
    """The right partial dual on C (x) B*: a Coalgebra and an Algebra
    whose multiplication is unital but not necessarily associative.
    Coassociator and antipode data live implicitly in the duality with
    the left side."""

    __slots__ = ("coalgebra", "algebra", "pams", "report")

    def __init__(self, coalgebra: Coalgebra, algebra: Algebra, pams: Pams | None, report: Report):
        self.coalgebra = coalgebra
        self.algebra = algebra
        self.pams = pams
        self.report = report

    @property
    def mult(self) -> Tensor3:
        return self.algebra.mult

    @property
    def unit(self) -> Vector:
        return self.algebra.unit

    @property
    def field(self):
        return self.coalgebra.field

    @property
    def dim(self) -> int:
        return self.coalgebra.dim

    def basis(self, i: int) -> Vector:
        return Vector.basis(self.field, self.dim, i)

    def multiply(self, u: Vector, v: Vector) -> Vector:
        return self.algebra.multiply(u, v)

    def hopf_view(self) -> HopfAlgebra:
        """Reassemble as an ordinary Hopf algebra.

        Only meaningful when the dual associator is trivial; the antipode
        is recovered as the convolution inverse of the identity and the
        result is fully re-verified.
        """
        s = convolution_inverse(LinMap.identity(self.field, self.dim), self.coalgebra, self.algebra)
        h = HopfAlgebra(self.algebra, self.coalgebra, s.matrix, name="right partial dual")
        verify_hopf(h).raise_if_failed()
        return h

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoquasiHopfAlgebra):
            return NotImplemented
        return self.coalgebra == other.coalgebra and self.mult == other.mult and self.unit == other.unit

    def __repr__(self) -> str:
        return f"CoquasiHopfAlgebra(dim={self.dim} over {self.field.descriptor})"


class HopfDetection:
    """Outcome of detect_hopf: `kind` is "hopf" or "strictly-quasi",
    `hopf` carries the re-verified Hopf algebra in the first case, and
    `diagnostics` records which sufficient criteria on (zeta, gamma)
    hold.  The diagnostics are informational: none of them is necessary
    for the associator to be trivial."""

    __slots__ = ("kind", "hopf", "diagnostics", "report")

    def __init__(self, kind: str, hopf: HopfAlgebra | None, diagnostics: dict[str, bool], report: Report):
        self.kind = kind
        self.hopf = hopf
        self.diagnostics = diagnostics
        self.report = report

    def __repr__(self) -> str:
        return f"HopfDetection(kind={self.kind!r}, diagnostics={self.diagnostics!r})"


def _associator_sum(alg: Algebra, phi: Vector, left, right) -> Vector:
    """sum phi_ijk left[i][j] right[k], as sum_k (sum_ij phi_ijk left[i][j]) right[k]: n products."""
    field, n = alg.field, alg.dim
    by_k: list[list] = [[] for _ in range(n)]
    for (i, j, k), c in _support(phi, n, 3):
        by_k[k].append(((i, j), c))
    sums = [_weighted_sum(field, n, terms, lambda i, j: left[i][j]) for terms in by_k]  # at [k]: sum_ij phi_ijk left[i][j]
    return _weighted_sum(field, n, [((k,), field.one) for k in range(n)], lambda k: alg.multiply(sums[k], right[k]))


def _antipode_axioms(qh: QuasiHopfAlgebra, s: Matrix, alpha: Vector, beta: Vector, report: Report, prefix: str) -> None:
    """The four antipode identities of qh for one (S, alpha, beta) triple."""
    alg, delta_terms, eps = qh.algebra, qh.coalgebra.terms, qh.coalgebra.counit
    field = alg.field
    nn = alg.dim
    es = [alg.basis(i) for i in range(nn)]
    scols = [s.column(i) for i in range(nn)]
    # the products every identity below is assembled from, once per triple
    e_beta = [alg.multiply(e, beta) for e in es]  # e_i beta
    alpha_e = [alg.multiply(alpha, e) for e in es]  # alpha e_k
    s_alpha = [alg.multiply(x, alpha) for x in scols]  # S(e_i) alpha
    beta_s = [alg.multiply(beta, x) for x in scols]  # beta S(e_k)
    e_beta_s = [[alg.multiply(x, y) for y in scols] for x in e_beta]  # (e_i beta) S(e_j)
    s_alpha_e = [[alg.multiply(x, e) for e in es] for x in s_alpha]  # (S(e_i) alpha) e_j

    def summed(table, target):  # a -> (sum c table[i][j] over Delta(e_a), eps(e_a) target)
        return lambda a: (_weighted_sum(field, nn, delta_terms[a], lambda i, j: table[i][j]), target.scale(eps[a]))

    report.add(prefix + "antipode-left", *_first_mismatch("basis {0}".format, summed(s_alpha_e, alpha), nn))
    report.add(prefix + "antipode-right", *_first_mismatch("basis {0}".format, summed(e_beta_s, beta), nn))
    phi_sum = _associator_sum(alg, qh.phi, e_beta_s, alpha_e)
    bar_sum = _associator_sum(alg, qh.phi_inv, s_alpha_e, beta_s)
    report.add(prefix + "associator-antipode", phi_sum == alg.unit, "sum phi1 beta S(phi2) alpha phi3")
    report.add(prefix + "associator-inverse-antipode", bar_sum == alg.unit, "sum S(phibar1) alpha phibar2 beta S(phibar3)")


def _derive_antipodes(alg: Algebra, t_map: Matrix, ups: Vector):
    """Both antipode triples carried by an invertible upsilon, or None."""
    try:
        upsinv = alg.element_inverse(ups)
    except ValueError:
        return None
    s1 = alg.right_mult_matrix(upsinv) @ t_map
    s2 = alg.left_mult_matrix(upsinv) @ t_map
    return ((s1, ups, alg.unit), (s2, alg.unit, ups))


def left_partial_dual(p: Pams) -> QuasiHopfAlgebra:
    """Construct and certify the left partial dual of H along (zeta, gamma).

    The carrier is C* # B with basis f_t # b_j at flat index t*dim(B)+j.
    Each structure map is built from one form: m as the smash product
    f (b_(-1) harpoon g) # b_(0) c; Delta on the generators f # 1 and
    eps # b, and on f # b as the product of those two; phi, phi^-1 and T
    by their closed forms; upsilon as T(1).  The carrier dimension needs
    no check: dim C* # B = dim C dim B = dim H is build_quotient's
    dim-product-law.  The report, under this constructor's title, is
    exactly the checks of verify_quasi_hopf on the stored object; the
    constructor adds none.  Raises CertificationError with kind
    "axiom-failure" on the first failed check.

    No second form of a structure map is compared, because each would
    agree by an identity already certified (p comes from certify_pams,
    the only builder of a Pams):
    * Delta.  f # b = (f # 1)(eps # b): the coaction of 1_B is 1 (x) 1_B
      (certify_coideal), 1_H harpoon g = g as C is a right H-module
      quotient, and eps is the unit of C*.  comult-algebra-map checks that
      the stored Delta is multiplicative, so it is the one algebra map
      with the restricted forms on f # 1 and eps # b; a single sum over
      the bases of B and C, or over the parent basis, expands that same
      product.
    * phi^-1.  associativity makes the carrier, so its triple tensor
      power, associative, and associator-invertible checks
      phi phi^-1 = phi^-1 phi = 1 (x) 1 (x) 1; a two-sided inverse in an
      associative algebra is unique, so a second closed form could only
      give the same tensor.
    * upsilon.  At 1 = eps_C # 1_B the formula of T has pi*(eps_C) = eps_H
      (pi is counital, build_quotient) and multiplication by
      iota(1_B) = 1_H (certify_coideal), so T(1) is term by term
      sum_u (eps # b_u)(gammabar* zetabar*(b*_u) # 1); upsilon-is-t-of-unit
      checks upsilon = T(1).
    * T.  preantipode-left, preantipode-right and preantipode-associator
      are the defining identities T(a_1 b) a_2 = eps(a) T(b) =
      a_1 T(b a_2) and phi^1 T(phi^2) phi^3 = 1 of a preantipode of the
      quasi-bialgebra (C* # B, Delta, eps, phi), whose associator acts as
      in quasi-coassociativity, phi (Delta (x) id)Delta(a) =
      (id (x) Delta)Delta(a) phi.  A preantipode is unique when it exists
      (Saracco, Appl. Categ. Structures 25, 2017; dually Ardizzoni and
      Pavarin, Israel J. Math. 192, 2012), so solving those identities as
      a linear system could only return T again.
    """
    q = p.quotient
    h = q.parent
    bsub = q.coideal
    field = q.field
    n = h.dim
    bdim = bsub.dim
    cdim = q.dim
    nd = cdim * bdim

    hs = q.hstar
    hsalg = hs.algebra
    action = q.action
    rho = _grouped(action, 2)  # rho(f_t) = sum f_s (x) h*_i as ((s, i), c) at [t]
    coact = _grouped(bsub.coaction, 0)  # ((m, k), c) of the coaction of b_j at [j]

    cstar = q.cstar
    bunit = bsub.unit
    ec = [Vector.basis(field, cdim, t) for t in range(cdim)]
    eb = [Vector.basis(field, bdim, u) for u in range(bdim)]
    ebs = [cstar.unit.tensor(eb[u]) for u in range(bdim)]
    unit_vec = cstar.unit.tensor(bunit)

    zs = [p.zeta.matrix.row(u) for u in range(bdim)]
    zbs = [p.zeta_bar.matrix.row(u) for u in range(bdim)]
    gammastar = p.gamma.matrix.transpose()
    gbarstar = p.gamma_bar.matrix.transpose()
    gcol = [p.gamma.matrix.column(t) for t in range(cdim)]
    hsb = [Vector.basis(field, n, i) for i in range(n)]

    # multiplication: (f#b)(g#c) = sum f (b1 harpoon g) # b2 c
    hitc = [
        [Vector._of(action.field, [action.data[s][m][g] for s in range(cdim)]) for g in range(cdim)]
        for m in range(n)
    ]
    lcs = [cstar.left_mult_matrix(ec[a]) for a in range(cdim)]
    mdata = [[[field.zero] * nd for _ in range(nd)] for _ in range(nd)]
    for a in range(cdim):
        for b in range(bdim):
            plane = mdata[a * bdim + b]
            for (m, k), x in coact[b]:
                for g in range(cdim):
                    w = lcs[a] @ hitc[m][g]
                    for d in range(bdim):
                        _kron_acc(plane[g * bdim + d], x, w, bsub.mult.data[k][d])
    mult = Tensor3._of(field, mdata, (nd, nd, nd))
    alg = Algebra(field, mult, unit_vec)

    eps_vec = q.pi(h.unit).tensor(bsub.counit)

    # comultiplication on f_a # 1
    zgm = [[p.zeta(h.algebra.multiply(gcol[t], h.basis(m))) for m in range(n)] for t in range(cdim)]
    g2 = [[gammastar @ hsalg.multiply(hsb[i], zs[u]) for u in range(bdim)] for i in range(n)]
    d32 = []
    for a in range(cdim):
        out = [field.zero] * (nd * nd)
        for (s, i), x in rho[a]:
            for u in range(bdim):
                _kron_acc(out, x, ec[s], eb[u], g2[i][u], bunit)
        d32.append(Vector._of(field, out))

    # comultiplication on eps # b
    d33 = []
    for b in range(bdim):
        out = [field.zero] * (nd * nd)
        for (m, k), x in coact[b]:
            for t in range(cdim):
                _kron_acc(out, x, cstar.unit, zgm[t][m], ec[t], eb[k])
        d33.append(Vector._of(field, out))

    # Delta(f_a # b) = Delta(f_a # 1) Delta(eps # b), a product in (C* # B)^(x)2
    planes = []
    for a in range(cdim):
        for b in range(bdim):
            col = power_multiply(alg, 2, d32[a], d33[b]).entries
            planes.append([col[j * nd : (j + 1) * nd] for j in range(nd)])
    coalg = Coalgebra(field, Tensor3._of(field, planes, (nd, nd, nd)), eps_vec)

    # associator
    sinv_hs = hs.antipode_inverse()
    garg1 = [(gbarstar @ sinv_hs.column(p2)).tensor(bunit) for p2 in range(n)]
    mid = [[alg.multiply(ebs[v], garg1[p2]) for p2 in range(n)] for v in range(bdim)]
    leg3 = [
        [(gbarstar @ (sinv_hs @ hsalg.multiply(zbs[v], hsb[r]))).tensor(bunit) for r in range(n)]
        for v in range(bdim)
    ]
    phi_list = [field.zero] * (nd ** 3)
    for u in range(bdim):
        dzu = hs.coalgebra.comultiply(zbs[u])
        for p2 in range(n):
            row = dzu.rows[p2]
            for r in range(n):
                for v in range(bdim):
                    _kron_acc(phi_list, row[r], ebs[u], mid[v][p2], leg3[v][r])
    phi = Vector._of(field, phi_list)

    leg2i = [[gammastar.column(p2).tensor(eb[v]) for v in range(bdim)] for p2 in range(n)]
    leg3i = [[(gammastar @ hsalg.multiply(hsb[r], zs[v])).tensor(bunit) for v in range(bdim)] for r in range(n)]
    phi_inv_list = [field.zero] * (nd ** 3)
    for u in range(bdim):
        dzu = hs.coalgebra.comultiply(zs[u])
        for p2 in range(n):
            row = dzu.rows[p2]
            for r in range(n):
                for v in range(bdim):
                    _kron_acc(phi_inv_list, row[r], ebs[u], leg2i[p2][v], leg3i[r][v])
    phi_inv = Vector._of(field, phi_inv_list)

    # preantipode
    pistar_rows = [q.pi.matrix.row(t) for t in range(cdim)]
    rbt = [h.algebra.right_mult_matrix(bsub.iota.column(bb)).transpose() for bb in range(bdim)]
    t_cols = []
    for a in range(cdim):
        for bb in range(bdim):
            acc = Vector.zero(field, nd)
            for u in range(bdim):
                w = hsalg.multiply(pistar_rows[a], rbt[bb] @ zbs[u])
                acc = acc + alg.multiply(ebs[u], (gbarstar @ w).tensor(bunit))
            t_cols.append(acc)
    t_map = Matrix.from_columns(field, t_cols, nrows=nd)

    ups = t_map @ unit_vec
    antipodes = _derive_antipodes(alg, t_map, ups)
    report = Report(f"left partial dual (dim {nd} over {field.descriptor})")
    qh = QuasiHopfAlgebra(alg, coalg, phi, phi_inv, t_map, ups, antipodes, p, report)
    report.checks.extend(verify_quasi_hopf(qh).checks)
    bad = report.failures()
    if bad:
        raise CertificationError("axiom-failure", f"{bad[0][0]}: {bad[0][1]}", report=report)
    return qh


def verify_quasi_hopf(qh: QuasiHopfAlgebra) -> Report:
    """Run the intrinsic axiom suite on quasi-Hopf data from any source.

    This needs no mapping system, and left_partial_dual certifies
    through it: it checks exactly what the tuple (m, 1, Delta, eps, phi, T)
    must satisfy on its own, plus the axioms of both stored antipode
    triples when present.  Returns the report; inspect `.ok` or call
    `.raise_if_failed()`.
    """
    alg, coalg = qh.algebra, qh.coalgebra
    field = alg.field
    nd = alg.dim
    phi, phi_inv = qh.phi, qh.phi_inv
    t_map = qh.t_map
    unit_vec = alg.unit
    es = [Vector.basis(field, nd, i) for i in range(nd)]
    t_cols = [t_map.column(i) for i in range(nd)]

    _same_field(field, coalg.field, "multiplication and comultiplication")
    report = Report("quasi-Hopf axioms")
    verify_algebra(alg, report)
    verify_compatibility(alg, coalg, report)
    verify_quasi_bialgebra(alg, coalg, phi, phi_inv, report)
    basis = "basis {0}".format

    ups = qh.upsilon
    report.add("upsilon-is-t-of-unit", ups == t_map @ unit_vec, "upsilon != T(1)")

    # the products the preantipode identities are assembled from:
    # T(e_i e_j), e_i T(e_j) and T(e_i) e_j
    mult = alg.mult
    t_pair = [[t_map @ Vector._of(field, mult.data[i][j]) for j in range(nd)] for i in range(nd)]
    e_t = [[alg.multiply(e, x) for x in t_cols] for e in es]
    t_e = [[alg.multiply(x, e) for e in es] for x in t_cols]

    def preantipode(product):  # (a, b2) -> (sum c product(i, j, b2) over Delta(e_a), eps(e_a) T(e_b2))
        return lambda a, b2: (
            _weighted_sum(field, nd, coalg.terms[a], lambda i, j: product(i, j, b2)),
            t_cols[b2].scale(coalg.counit[a]),
        )

    pair = "pair ({0},{1})".format
    report.add("preantipode-left", *_first_mismatch(
        pair, preantipode(lambda i, j, b2: alg.multiply(t_pair[i][b2], es[j])), nd, nd
    ))
    report.add("preantipode-right", *_first_mismatch(
        pair, preantipode(lambda i, j, b2: alg.multiply(es[i], t_pair[b2][j])), nd, nd
    ))

    phi_sum, bar_sum = _associator_sum(alg, phi, e_t, es), _associator_sum(alg, phi_inv, t_e, t_cols)
    report.add("preantipode-associator", phi_sum == unit_vec, "sum phi1 T(phi2) phi3")
    report.add("preantipode-associator-inverse", bar_sum == ups, "sum T(phibar1) phibar2 T(phibar3) != T(eps#1)")

    report.add(
        "antipode-availability",
        (qh.antipodes is not None) == alg.is_invertible(ups),
        "antipodes vs upsilon invertibility",
    )
    if qh.antipodes is not None:
        for label, (sm, alpha, beta) in zip(("s1", "s2"), qh.antipodes):
            _antipode_axioms(qh, sm, alpha, beta, report, label + "-")
            report.add(label + "-upsilon-factorization", alg.multiply(beta, alpha) == ups, "beta alpha != upsilon")
            report.add(label + "-preantipode-factorization", *_first_mismatch(
                basis, lambda a: (alg.multiply(alg.multiply(beta, sm.column(a)), alpha), t_cols[a]), nd
            ))
    return report


def right_partial_dual(p: Pams, left: QuasiHopfAlgebra | None = None) -> CoquasiHopfAlgebra:
    """Construct the right partial dual on C (x) B* and certify the exact
    duality against the left side, which is built first when not passed
    in.  Raises CertificationError with kind "duality-failure" if any
    pairing identity fails."""
    if left is None:
        left = left_partial_dual(p)
    q = p.quotient
    h = q.parent
    bsub = q.coideal
    field = q.field
    n = h.dim
    bdim = bsub.dim
    cdim = q.dim
    nd = cdim * bdim
    report = Report(f"right partial dual (dim {nd} over {field.descriptor})")

    action = q.action
    btr = _btr_tensor(q)
    gcol = [p.gamma.matrix.column(t) for t in range(cdim)]
    zs = [p.zeta.matrix.row(u) for u in range(bdim)]

    dbs = _grouped(bsub.mult, 2)  # ((a2, c2), c) of b_a2 b_c2 = sum c b_u at [u]
    ccs = q.coalgebra.terms  # ((s, t), c) of Delta(x_p) at [p]

    ec = [Vector.basis(field, cdim, t) for t in range(cdim)]
    eb = [Vector.basis(field, bdim, u) for u in range(bdim)]
    cdata = []
    for p2 in range(cdim):
        for u in range(bdim):
            plane = [field.zero] * (nd * nd)
            for (s, t), x1 in ccs[p2]:
                for i in range(n):
                    for (a2, c2), x2 in dbs[u]:
                        _kron_acc(plane, x1 * x2, ec[s], btr.data[i][a2], action.data[t][i], eb[c2])
            cdata.append([plane[j * nd : (j + 1) * nd] for j in range(nd)])
    comult_r = Tensor3._of(field, cdata, (nd, nd, nd))
    counit_r = q.coalgebra.counit.tensor(bsub.unit)
    unit_r = q.pi(h.unit).tensor(bsub.counit)

    lt = [h.algebra.left_mult_matrix(gcol[t]).transpose() for t in range(cdim)]
    # the action matrices depend only on (a2, s) and (t, c2): build each once
    mbtl = [[btl_matrix(q, hit_left(h, zs[a2], gcol[s])).transpose() for s in range(cdim)] for a2 in range(bdim)]
    mbtr = [[btr_matrix(q, lt[t] @ zs[c2]).transpose() for c2 in range(bdim)] for t in range(cdim)]
    mdata = [[[field.zero] * nd for _ in range(nd)] for _ in range(nd)]
    for u in range(bdim):
        for q2 in range(cdim):
            for (a2, c2), x2 in dbs[u]:
                for (s, t), x1 in ccs[q2]:
                    left_rows, right_rows = mbtl[a2][s].rows, mbtr[t][c2].rows
                    for pp in range(cdim):
                        for v in range(bdim):
                            row_out = mdata[pp * bdim + u][q2 * bdim + v]
                            _kron_acc(row_out, x1 * x2, left_rows[pp], right_rows[v])
    mult_r = Tensor3._of(field, mdata, (nd, nd, nd))

    coalg = Coalgebra(field, comult_r, counit_r)
    verify_coalgebra(coalg, report)
    right = CoquasiHopfAlgebra(coalg, Algebra(field, mult_r, unit_r), p, report)
    ers = [Vector.basis(field, nd, i) for i in range(nd)]
    report.add("unit-law", *_first_mismatch(
        "basis {0}".format,
        lambda i: ((right.multiply(unit_r, ers[i]), right.multiply(ers[i], unit_r)), (ers[i], ers[i])),
        nd,
    ))

    # exact duality with the left side under the flat pairing
    lual = left.algebra
    entry = "entry ({0},{1},{2})".format
    report.add("multiplication-comultiplication-duality", *_first_mismatch(
        entry, lambda i, j, k: (lual.mult[i, j, k], comult_r[k, i, j]), nd, nd, nd
    ))
    lcoalg = left.coalgebra
    report.add("comultiplication-multiplication-duality", *_first_mismatch(
        entry, lambda i, j, k: (lcoalg.comult[i, j, k], mult_r[j, k, i]), nd, nd, nd
    ))
    report.add("unit-counit-duality", lual.unit == counit_r, "unit vs counit")
    report.add("counit-unit-duality", lcoalg.counit == unit_r, "counit vs unit")

    bad = report.failures()
    if bad:
        raise CertificationError("duality-failure", f"{bad[0][0]}: {bad[0][1]}", report=report)
    return right


def biop_iso_check(q1: QuasiHopfAlgebra, q2: QuasiHopfAlgebra) -> Report:
    """Certify f # b -> b # f as an isomorphism from the biopposite of
    q1 onto q2, including transport of the associator, upsilon, the
    preantipode, and both antipode triples.  Raises CertificationError
    with kind "mismatch" if any comparison fails; returns the report."""
    if q1.pams is None or q2.pams is None:
        raise ValueError("both sides need their mapping system for the carrier layout")
    field = q1.field
    nd = q1.dim
    c1 = q1.pams.quotient.dim
    b1 = q1.pams.coideal.dim
    c2 = q2.pams.quotient.dim
    b2 = q2.pams.coideal.dim
    if q2.dim != nd or (c2, b2) != (b1, c1):
        raise CertificationError(
            "mismatch",
            f"carrier shapes ({c1},{b1}) and ({c2},{b2}) are not swapped",
        )
    report = Report("biopposite comparison")
    theta_cols = [Vector.basis(field, nd, b * c1 + a) for a in range(c1) for b in range(b1)]
    theta = Matrix.from_columns(field, theta_cols, nrows=nd)
    theta_inv = theta.transpose()

    es = [q1.basis(i) for i in range(nd)]
    report.add("algebra-anti-map", *_first_mismatch(
        "pair ({0},{1})".format,
        lambda i, j: (theta @ q1.multiply(es[i], es[j]), q2.multiply(theta_cols[j], theta_cols[i])),
        nd, nd,
    ))
    report.add("unit-transport", theta @ q1.algebra.unit == q2.algebra.unit, "unit")

    def pushed_flip(a):  # (theta (x) theta) of the flipped Delta(e_a)
        flipped = tensor_permute(q1.comultiply(es[a]), (nd, nd), (1, 0))
        return tensor_apply(tensor_apply(flipped, (nd, nd), 0, theta), (nd, nd), 1, theta)

    report.add("comultiplication-transport", *_first_mismatch(
        "basis {0}".format, lambda a: (pushed_flip(a), q2.comultiply(theta_cols[a])), nd
    ))
    pulled = Vector._of(field, [q2.coalgebra.counit.dot(theta.column(a)) for a in range(nd)])
    report.add("counit-transport", pulled == q1.coalgebra.counit, "counit")

    dims3 = (nd, nd, nd)

    def push3(u: Vector) -> Vector:
        w = tensor_permute(u, dims3, (2, 1, 0))
        for leg in range(3):
            w = tensor_apply(w, dims3, leg, theta)
        return w

    report.add("associator-transport", push3(q1.phi) == q2.phi, "phi")
    report.add("associator-inverse-transport", push3(q1.phi_inv) == q2.phi_inv, "phi inverse")
    report.add("upsilon-transport", theta @ q1.upsilon == q2.upsilon, "upsilon")
    report.add("preantipode-transport", theta @ q1.t_map @ theta_inv == q2.t_map, "preantipode")
    report.add(
        "antipode-availability-matches",
        (q1.antipodes is None) == (q2.antipodes is None),
        "one side lacks antipodes",
    )
    if q1.antipodes is not None:
        for label, (sm, alpha, beta) in zip(("s1", "s2"), q1.antipodes):
            _antipode_axioms(q2, theta @ sm @ theta_inv, theta @ beta, theta @ alpha, report, f"transported-{label}-")
    bad = report.failures()
    if bad:
        raise CertificationError("mismatch", f"{bad[0][0]}: {bad[0][1]}", report=report)
    return report


def op_iso_check(q1: QuasiHopfAlgebra, q_op: QuasiHopfAlgebra) -> Report:
    """Certify the anti-isomorphism from q1 onto the dual built over the
    opposite Hopf algebra: the map sends f # b to the q1-product
    (eps # b)(f # 1) and is checked as an iso of quasi-bialgebras that
    carries the associator to the inverse associator.  This is a
    comparison of quasi-bialgebra data only; no antipode transport is
    claimed.  Raises CertificationError with kind "mismatch" on any
    failure; returns the report."""
    if q1.pams is None:
        raise ValueError("the left side needs its mapping system for the carrier layout")
    p = q1.pams
    q = p.quotient
    bsub = q.coideal
    field = q1.field
    nd = q1.dim
    cdim = q.dim
    bdim = bsub.dim
    if q_op.dim != nd:
        raise CertificationError("mismatch", f"carrier dims {nd} and {q_op.dim} differ")
    report = Report("opposite comparison")

    ec = [Vector.basis(field, cdim, t) for t in range(cdim)]
    ebs = [q.cstar.unit.tensor(Vector.basis(field, bdim, u)) for u in range(bdim)]
    fbs = [ec[a].tensor(bsub.unit) for a in range(cdim)]
    cols = [q1.multiply(ebs[b], fbs[a]) for a in range(cdim) for b in range(bdim)]
    phim = Matrix.from_columns(field, cols, nrows=nd)

    sinv = q.hstar.antipode_inverse()
    rho = _grouped(q.action, 2)
    coaction = bsub.coaction
    n = q.parent.dim
    bca = [[Vector._of(coaction.field, coaction.data[b][i]) for i in range(n)] for b in range(bdim)]

    def second_form(a, b):
        acc = [field.zero] * nd
        for (s, i), x in rho[a]:
            for m in range(n):
                _kron_acc(acc, x * sinv[m, i], ec[s], bca[b][m])
        return Vector._of(field, acc), cols[a * bdim + b]

    report.add("map-forms-agree", *_first_mismatch("basis ({0},{1})".format, second_form, cdim, bdim))

    inv_cols = []
    for a in range(cdim):
        for b in range(bdim):
            acc = [field.zero] * nd
            for (s, i), x in rho[a]:
                _kron_acc(acc, x, ec[s], bca[b][i])
            inv_cols.append(Vector._of(field, acc))
    phim_inv = Matrix.from_columns(field, inv_cols, nrows=nd)
    ident = Matrix.identity(field, nd)
    report.add("mutually-inverse", phim @ phim_inv == ident and phim_inv @ phim == ident, "composite")

    es = [q1.basis(i) for i in range(nd)]
    report.add("algebra-anti-map", *_first_mismatch(
        "pair ({0},{1})".format,
        lambda i, j: (phim @ q1.multiply(es[i], es[j]), q_op.multiply(cols[j], cols[i])),
        nd, nd,
    ))
    report.add("unit-transport", phim @ q1.algebra.unit == q_op.algebra.unit, "unit")
    report.add("comultiplication-transport", *_first_mismatch(
        "basis {0}".format,
        lambda a: (
            tensor_apply(tensor_apply(q1.comultiply(es[a]), (nd, nd), 0, phim), (nd, nd), 1, phim),
            q_op.comultiply(cols[a]),
        ),
        nd,
    ))
    pulled = Vector._of(field, [q_op.coalgebra.counit.dot(phim.column(a)) for a in range(nd)])
    report.add("counit-transport", pulled == q1.coalgebra.counit, "counit")

    dims3 = (nd, nd, nd)

    def push3(u: Vector) -> Vector:
        w = u
        for leg in range(3):
            w = tensor_apply(w, dims3, leg, phim)
        return w

    report.add("associator-transport", push3(q1.phi_inv) == q_op.phi, "phi inverse to phi")
    report.add("associator-inverse-transport", push3(q1.phi) == q_op.phi_inv, "phi to phi inverse")

    bad = report.failures()
    if bad:
        raise CertificationError("mismatch", f"{bad[0][0]}: {bad[0][1]}", report=report)
    return report


def _sufficiency_diagnostics(p: Pams) -> dict[str, bool]:
    """Which of the three sufficient criteria for a trivial associator
    hold for this mapping system.  Purely informational."""
    q = p.quotient
    h = q.parent
    bsub = q.coideal
    field = q.field
    n = h.dim
    bdim = bsub.dim
    cdim = q.dim
    hb = [h.basis(i) for i in range(n)]
    zcols = [p.zeta.column(i) for i in range(n)]
    gcol = [p.gamma.matrix.column(t) for t in range(cdim)]

    zeta_alg = p.zeta(h.unit) == bsub.unit and all(
        p.zeta(h.algebra.multiply(hb[i], hb[j])) == bsub.algebra.multiply(zcols[i], zcols[j])
        for i in range(n)
        for j in range(n)
    )

    # B a subcoalgebra: every coaction leg on the parent side lands in iota(B)
    legs = [[bsub.coaction[j, m, k] for m in range(n)] for j in range(bdim) for k in range(bdim)]
    inclusion = Elimination.of_matrix(bsub.iota.matrix, legs)
    solutions = [inclusion.solution(r) for r in range(len(legs))]
    zeta_coalg = all(v is not None for v in solutions)
    if zeta_coalg:
        db_mats = [
            Matrix._of(field, [[solutions[j * bdim + k][u] for k in range(bdim)] for u in range(bdim)], bdim)
            for j in range(bdim)
        ]
        zm = p.zeta.matrix
        zmt = zm.transpose()

        def pushed(a):  # sum zeta(e_a)_j Delta_B(b_j)
            rhs = Matrix.zeros(field, bdim, bdim)
            for j, c in enumerate(zcols[a].entries):
                if c:
                    rhs = rhs + db_mats[j].scale(c)
            return rhs

        zeta_coalg = all(zm @ h.coalgebra.comultiply(hb[a]) @ zmt == pushed(a) for a in range(n)) and all(
            bsub.counit.dot(zcols[a]) == h.counit[a] for a in range(n)
        )

    ideal_rows = [q.ideal_basis.row(r) for r in range(q.ideal_basis.nrows)]
    left_ideal = all(q.pi(h.algebra.multiply(e, v)).is_zero() for v in ideal_rows for e in hb)

    lifts = [q.lift(q.coalgebra.basis(t)) for t in range(cdim)]
    gamma_alg = (
        left_ideal
        and p.gamma(q.pi(h.unit)) == h.unit
        and all(
            p.gamma(q.pi(h.algebra.multiply(lifts[t], lifts[u]))) == h.algebra.multiply(gcol[t], gcol[u])
            for t in range(cdim)
            for u in range(cdim)
        )
    )

    gm = p.gamma.matrix
    gmt = gm.transpose()
    gamma_coalg = all(
        h.coalgebra.comultiply(gcol[t]) == gm @ q.coalgebra.comultiply(q.coalgebra.basis(t)) @ gmt
        for t in range(cdim)
    ) and all(h.counit.dot(gcol[t]) == q.coalgebra.counit[t] for t in range(cdim))

    return {
        "zeta-bialgebra-map": zeta_alg and zeta_coalg,
        "gamma-bialgebra-map": left_ideal and gamma_alg and gamma_coalg,
        "zeta-algebra-gamma-coalgebra": zeta_alg and gamma_coalg,
    }


def detect_hopf(qh: QuasiHopfAlgebra) -> HopfDetection:
    """Decide whether the constructed associator is trivial.

    When phi = 1 (x) 1 (x) 1 the carrier is an honest Hopf algebra with
    antipode the preantipode itself; the result is assembled and fully
    re-verified.  Otherwise the object is reported as strictly quasi.
    Sufficient-criteria diagnostics for the mapping system ride along
    either way."""
    if qh.pams is None:
        raise ValueError("hopf detection needs the mapping system for its diagnostics")
    diagnostics = _sufficiency_diagnostics(qh.pams)
    trivial = qh.phi == power_unit(qh.algebra, 3)
    if trivial:
        hop = HopfAlgebra(qh.algebra, qh.coalgebra, qh.t_map, name="left partial dual")
        rep = verify_hopf(hop)
        rep.add("upsilon-trivial", qh.upsilon == qh.algebra.unit, "upsilon != 1")
        rep.raise_if_failed()
        return HopfDetection("hopf", hop, diagnostics, rep)
    rep = Report("hopf detection")
    rep.add("associator-nontrivial", True)
    return HopfDetection("strictly-quasi", None, diagnostics, rep)
