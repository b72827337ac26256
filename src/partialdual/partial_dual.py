"""Partial dualization along a certified mapping system.

Builds the left partial dual on the carrier C* # B from a certified
mapping system (zeta, gamma): a quasi-Hopf algebra whose multiplication,
comultiplication, associator, preantipode, and antipodes are all
assembled from structure constants and certified identity by identity.
The right partial dual lives on C (x) B* and is produced together with
the bit-exact duality pairing against the left side.

The left constructor compares each structural map with a second,
independent closed form where one exists, then certifies the assembled
object with verify_quasi_hopf, the one statement of the quasi-Hopf
axiom suite; both sets of checks land in the returned report.  A failed
identity raises CertificationError; nothing is ever repaired silently.
"""

from __future__ import annotations

from .coideal import CoidealQuotient, _btr_tensor, btl_matrix, btr_matrix
from .hopf import (
    Algebra,
    CertificationError,
    Coalgebra,
    HopfAlgebra,
    LinMap,
    Report,
    convolution_inverse,
    dual,
    flat_nonzeros,
    hit_left,
    hit_right,
    power_multiply,
    power_unit,
    tensor_apply,
    tensor_comult_leg,
    tensor_functional,
    tensor_of,
    tensor_permute,
    verify_algebra,
    verify_coalgebra,
    verify_compatibility,
    verify_hopf,
)
from .linalg import Matrix, Tensor3, Vector, contract, nullspace, solve
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

    `algebra` holds the smash multiplication, `delta` is the n -> n (x) n
    comultiplication matrix (column a is the flattened image of the a-th
    basis vector), `phi` and `phi_inv` are the associator and its inverse
    flattened in the triple tensor power, `t_map` is the preantipode, and
    `antipodes`, when present, is the pair of certified triples
    (S, alpha, beta).  When upsilon is not invertible `antipodes` is None,
    repr calls out the defect, and the report's antipode-availability
    check confirms that upsilon is indeed not invertible.
    """

    __slots__ = (
        "algebra",
        "delta",
        "eps",
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
        delta: Matrix,
        eps: Vector,
        phi: Vector,
        phi_inv: Vector,
        t_map: Matrix,
        upsilon: Vector,
        antipodes: tuple[tuple[Matrix, Vector, Vector], tuple[Matrix, Vector, Vector]] | None,
        pams: Pams | None,
        report: Report,
    ):
        self.algebra = algebra
        self.delta = delta
        self.eps = eps
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
        return self.delta @ v

    def comult_tensor(self) -> Tensor3:
        return _delta_tensor(self.field, self.delta, self.dim)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuasiHopfAlgebra):
            return NotImplemented
        return (
            self.algebra.mult == other.algebra.mult
            and self.algebra.unit == other.algebra.unit
            and self.delta == other.delta
            and self.eps == other.eps
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
    """The right partial dual on C (x) B*: a coalgebra with a unital,
    not necessarily associative, multiplication.  Coassociator and
    antipode data live implicitly in the duality with the left side."""

    __slots__ = ("coalgebra", "mult", "unit", "pams", "report")

    def __init__(self, coalgebra: Coalgebra, mult: Tensor3, unit: Vector, pams: Pams | None, report: Report):
        self.coalgebra = coalgebra
        self.mult = mult
        self.unit = unit
        self.pams = pams
        self.report = report

    @property
    def field(self):
        return self.coalgebra.field

    @property
    def dim(self) -> int:
        return self.coalgebra.dim

    def basis(self, i: int) -> Vector:
        return Vector.basis(self.field, self.dim, i)

    def multiply(self, u: Vector, v: Vector) -> Vector:
        return contract(self.mult, 0, u).transpose() @ v

    def hopf_view(self) -> HopfAlgebra:
        """Reassemble as an ordinary Hopf algebra.

        Only meaningful when the dual associator is trivial; the antipode
        is recovered as the convolution inverse of the identity and the
        result is fully re-verified.
        """
        alg = Algebra(self.field, self.mult, self.unit)
        s = convolution_inverse(LinMap.identity(self.field, self.dim), self.coalgebra, alg)
        h = HopfAlgebra(
            self.field,
            self.mult,
            self.unit,
            self.coalgebra.comult,
            self.coalgebra.counit,
            s.matrix,
            name="right partial dual",
        )
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


def _delta_tensor(field, delta: Matrix, n: int) -> Tensor3:
    """Comultiplication matrix reshaped to structure-constant form."""
    return Tensor3(
        field,
        [[[delta[j * n + k, i] for k in range(n)] for j in range(n)] for i in range(n)],
    )


def _acc(out: list, vec: Vector, scale) -> None:
    for idx, c in flat_nonzeros(vec):
        out[idx] = out[idx] + scale * c


def _action_support(q: CoidealQuotient) -> list[list[tuple[int, int, object]]]:
    """Per C-basis column t: the (s, i, coefficient) support of the mixed
    coaction rho(f_t) = sum f_s (x) h*_i."""
    rho: list[list[tuple[int, int, object]]] = [[] for _ in range(q.dim)]
    for (s, i, t), c in q.action.nonzero():
        rho[t].append((s, i, c))
    return rho


def _coaction_support(coaction: Tensor3, bdim: int) -> list[list[tuple[int, int, object]]]:
    supp: list[list[tuple[int, int, object]]] = [[] for _ in range(bdim)]
    for (j, m, k), c in coaction.nonzero():
        supp[j].append((m, k, c))
    return supp


def _antipode_axioms(
    alg: Algebra,
    delta: Matrix,
    eps: Vector,
    phi: Vector,
    phi_inv: Vector,
    s: Matrix,
    alpha: Vector,
    beta: Vector,
    report: Report,
    prefix: str,
) -> None:
    """The four antipode identities for one (S, alpha, beta) triple."""
    field = alg.field
    nn = alg.dim
    es = [alg.basis(i) for i in range(nn)]
    scols = [s.column(i) for i in range(nn)]
    ok_l = True
    ok_r = True
    wit_l = wit_r = ""
    for a in range(nn):
        col = delta.column(a)
        left = Vector(field, [field.zero] * nn)
        right = Vector(field, [field.zero] * nn)
        for idx, c in flat_nonzeros(col):
            i, j = divmod(idx, nn)
            left = left + alg.multiply(alg.multiply(scols[i], alpha), es[j]).scale(c)
            right = right + alg.multiply(alg.multiply(es[i], beta), scols[j]).scale(c)
        if ok_l and left != alpha.scale(eps[a]):
            ok_l = False
            wit_l = f"basis {a}"
        if ok_r and right != beta.scale(eps[a]):
            ok_r = False
            wit_r = f"basis {a}"
    report.add(prefix + "antipode-left", ok_l, wit_l)
    report.add(prefix + "antipode-right", ok_r, wit_r)
    acc3 = Vector(field, [field.zero] * nn)
    for idx, c in flat_nonzeros(phi):
        i, rest = divmod(idx, nn * nn)
        j, k = divmod(rest, nn)
        term = alg.multiply(alg.multiply(alg.multiply(es[i], beta), scols[j]), alg.multiply(alpha, es[k]))
        acc3 = acc3 + term.scale(c)
    report.add(prefix + "associator-antipode", acc3 == alg.unit, "sum phi1 beta S(phi2) alpha phi3")
    acc4 = Vector(field, [field.zero] * nn)
    for idx, c in flat_nonzeros(phi_inv):
        i, rest = divmod(idx, nn * nn)
        j, k = divmod(rest, nn)
        term = alg.multiply(alg.multiply(alg.multiply(scols[i], alpha), es[j]), alg.multiply(beta, scols[k]))
        acc4 = acc4 + term.scale(c)
    report.add(prefix + "associator-inverse-antipode", acc4 == alg.unit, "sum S(phibar1) alpha phibar2 beta S(phibar3)")


def _derive_antipodes(alg: Algebra, t_map: Matrix, ups: Vector):
    """Both antipode triples carried by an invertible upsilon, or None."""
    if not alg.is_invertible(ups):
        return None
    upsinv = alg.element_inverse(ups)
    s1 = alg.right_mult_matrix(upsinv) @ t_map
    s2 = alg.left_mult_matrix(upsinv) @ t_map
    return ((s1, ups, alg.unit), (s2, alg.unit, ups))


def left_partial_dual(p: Pams) -> QuasiHopfAlgebra:
    """Construct and certify the left partial dual of H along (zeta, gamma).

    The carrier is C* # B with basis f_t # b_j at flat index t*dim(B)+j.
    First come the cross-checks that only the construction can make:
    the multiplication against its second closed form; the
    comultiplication against the product of its two restricted forms,
    both splitting forms and the parent-basis expansion; the inverse
    associator and upsilon against their second forms; and uniqueness
    of the preantipode as a linear system.  The assembled object is then
    certified by verify_quasi_hopf, whose checks are appended to the
    report.  Raises CertificationError with kind "axiom-failure" on the
    first failed check.
    """
    q = p.quotient
    h = q.parent
    bsub = q.coideal
    field = q.field
    n = h.dim
    bdim = bsub.dim
    cdim = q.dim
    nd = cdim * bdim
    report = Report(f"left partial dual (dim {nd} over {field.descriptor})")
    report.add("dimension-matches-parent", nd == n, f"dim C* # B = {nd}, dim H = {n}")

    hs = dual(h)
    hsalg = hs.algebra
    action = q.action
    coaction = bsub.coaction
    comult_c = q.coalgebra.comult
    rho = _action_support(q)
    coact = _coaction_support(coaction, bdim)

    # C* with convolution product, unit the counit of C
    cstar = Algebra(
        field,
        Tensor3(
            field,
            [[[comult_c[k, i, j] for k in range(cdim)] for j in range(cdim)] for i in range(cdim)],
        ),
        Vector(field, list(q.coalgebra.counit.entries)),
    )
    bunit = bsub.unit
    ebs = [cstar.unit.tensor(Vector.basis(field, bdim, u)) for u in range(bdim)]
    fbs = [Vector.basis(field, cdim, a).tensor(bunit) for a in range(cdim)]
    unit_vec = cstar.unit.tensor(bunit)

    zs = [p.zeta.matrix.row(u) for u in range(bdim)]
    zbs = [p.zeta_bar.matrix.row(u) for u in range(bdim)]
    gammastar = p.gamma.matrix.transpose()
    gbarstar = p.gamma_bar.matrix.transpose()
    gcol = [p.gamma.matrix.column(t) for t in range(cdim)]
    hsb = [Vector.basis(field, n, i) for i in range(n)]

    # multiplication, first form: (f#b)(g#c) = sum f (b1 harpoon g) # b2 c
    hitc = [
        [Vector(field, [action[s, m, g] for s in range(cdim)]) for g in range(cdim)]
        for m in range(n)
    ]
    lcs = [cstar.left_mult_matrix(Vector.basis(field, cdim, a)) for a in range(cdim)]
    mdata = [[[field.zero] * nd for _ in range(nd)] for _ in range(nd)]
    for a in range(cdim):
        for b in range(bdim):
            plane = mdata[a * bdim + b]
            for m, k, x in coact[b]:
                for g in range(cdim):
                    w = lcs[a] @ hitc[m][g]
                    for d in range(bdim):
                        bb = bsub.mult.data[k][d]
                        col = plane[g * bdim + d]
                        for s, ws in enumerate(w.entries):
                            if ws:
                                xws = x * ws
                                for j2, bj in enumerate(bb):
                                    if bj:
                                        col[s * bdim + j2] = col[s * bdim + j2] + xws * bj
    mult = Tensor3(field, mdata)

    # second form: sum f g1 # (b harpoon g2) c
    bca = [[Vector(field, list(coaction.data[b][i])) for i in range(n)] for b in range(bdim)]
    rbm = [bsub.algebra.right_mult_matrix(Vector.basis(field, bdim, d)) for d in range(bdim)]
    ok = True
    witness = ""
    for a in range(cdim):
        for b in range(bdim):
            for g in range(cdim):
                for d in range(bdim):
                    col2 = [field.zero] * nd
                    for s, i, x in rho[g]:
                        cw = lcs[a].column(s)
                        bw = rbm[d] @ bca[b][i]
                        for t2, ct in enumerate(cw.entries):
                            if ct:
                                xc = x * ct
                                for j2, bj in enumerate(bw.entries):
                                    if bj:
                                        col2[t2 * bdim + j2] = col2[t2 * bdim + j2] + xc * bj
                    if col2 != mdata[a * bdim + b][g * bdim + d]:
                        ok = False
                        witness = f"product ({a},{b})*({g},{d})"
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    report.add("mult-forms-agree", ok, witness)

    alg = Algebra(field, mult, unit_vec)
    es = [alg.basis(i) for i in range(nd)]

    eps_vec = q.pi(h.unit).tensor(bsub.counit)

    # comultiplication on f_a # 1
    zgm = [[p.zeta(h.algebra.multiply(gcol[t], h.basis(m))) for m in range(n)] for t in range(cdim)]
    g2 = [[gammastar @ hsalg.multiply(hsb[i], zs[u]) for u in range(bdim)] for i in range(n)]
    d32 = []
    for a in range(cdim):
        out = [field.zero] * (nd * nd)
        for s, i, x in rho[a]:
            for u in range(bdim):
                base = (s * bdim + u) * nd
                vec = g2[i][u]
                for t2, c2 in enumerate(vec.entries):
                    if c2:
                        xc = x * c2
                        for j2, oj in enumerate(bunit.entries):
                            if oj:
                                out[base + t2 * bdim + j2] = out[base + t2 * bdim + j2] + xc * oj
        d32.append(Vector(field, out))

    # comultiplication on eps # b
    d33 = []
    for b in range(bdim):
        out = [field.zero] * (nd * nd)
        for m, k, x in coact[b]:
            for t in range(cdim):
                second = t * bdim + k
                zv = zgm[t][m]
                for t1, e1 in enumerate(cstar.unit.entries):
                    if e1:
                        xe = x * e1
                        for j1, z1 in enumerate(zv.entries):
                            if z1:
                                idx = (t1 * bdim + j1) * nd + second
                                out[idx] = out[idx] + xe * z1
        d33.append(Vector(field, out))

    # full comultiplication, single-sum form over the B and C bases
    bu_z = [
        [[bsub.algebra.multiply(Vector.basis(field, bdim, u), zgm[t][m]) for m in range(n)] for t in range(cdim)]
        for u in range(bdim)
    ]
    gf = [
        [[cstar.multiply(g2[i][u], Vector.basis(field, cdim, t)) for t in range(cdim)] for u in range(bdim)]
        for i in range(n)
    ]
    w_inner: list[list[list[list[object]]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for m in range(n):
            acc = [[field.zero] * cdim for _ in range(bdim)]
            for u in range(bdim):
                for t in range(cdim):
                    bv = bu_z[u][t][m]
                    cv = gf[i][u][t]
                    for j2, bj in enumerate(bv.entries):
                        if bj:
                            row = acc[j2]
                            for t2, ct in enumerate(cv.entries):
                                if ct:
                                    row[t2] = row[t2] + bj * ct
            w_inner[i][m] = acc
    delta_cols = []
    for a in range(cdim):
        for b in range(bdim):
            out = [field.zero] * (nd * nd)
            for s, i, xa in rho[a]:
                for m, k, xc in coact[b]:
                    x = xa * xc
                    acc = w_inner[i][m]
                    for j2 in range(bdim):
                        base = (s * bdim + j2) * nd
                        row = acc[j2]
                        for t2 in range(cdim):
                            if row[t2]:
                                idx = base + t2 * bdim + k
                                out[idx] = out[idx] + x * row[t2]
            delta_cols.append(Vector(field, out))
    delta = Matrix.from_columns(field, delta_cols, nrows=nd * nd)

    # the full form must be the product of the two restricted forms
    ok = True
    witness = ""
    for a in range(cdim):
        for b in range(bdim):
            if power_multiply(alg, 2, d32[a], d33[b]) != delta_cols[a * bdim + b]:
                ok = False
                witness = f"basis ({a},{b})"
                break
        if not ok:
            break
    report.add("comult-product-form", ok, witness)

    # splitting forms for the two restricted comultiplications
    hrv = [[p.zeta(hit_right(h, gcol[t], hsb[i])) for i in range(n)] for t in range(cdim)]
    ok = True
    witness = ""
    for a in range(cdim):
        out = [field.zero] * (nd * nd)
        for s, i, x in rho[a]:
            for t in range(cdim):
                second = t * bdim  # f_t # 1 needs the unit of B below
                bv = hrv[t][i]
                for j1, z1 in enumerate(bv.entries):
                    if z1:
                        base = (s * bdim + j1) * nd
                        xz = x * z1
                        for j2, oj in enumerate(bunit.entries):
                            if oj:
                                out[base + second + j2] = out[base + second + j2] + xz * oj
        if Vector(field, out) != d32[a]:
            ok = False
            witness = f"basis f_{a} # 1"
            break
    report.add("comult-splitting-form-left", ok, witness)

    rtm = [h.algebra.right_mult_matrix(h.basis(m)).transpose() for m in range(n)]
    ok = True
    witness = ""
    for b in range(bdim):
        out = [field.zero] * (nd * nd)
        for m, k, x in coact[b]:
            for u in range(bdim):
                gv = gammastar @ (rtm[m] @ zs[u])
                ebu = ebs[u]
                for i1, c1 in enumerate(ebu.entries):
                    if c1:
                        base = i1 * nd
                        xc1 = x * c1
                        for t2, c2 in enumerate(gv.entries):
                            if c2:
                                idx = base + t2 * bdim + k
                                out[idx] = out[idx] + xc1 * c2
        if Vector(field, out) != d33[b]:
            ok = False
            witness = f"basis eps # b_{b}"
            break
    report.add("comult-splitting-form-right", ok, witness)

    # parent-basis expansion of the full comultiplication
    zem = [[p.zeta(h.algebra.multiply(h.basis(i), h.basis(m))) for m in range(n)] for i in range(n)]
    gss = [[gammastar @ hsalg.multiply(hsb[ip], hsb[i]) for i in range(n)] for ip in range(n)]
    ok = True
    witness = ""
    for a in range(cdim):
        for b in range(bdim):
            out = [field.zero] * (nd * nd)
            for s, ip, xa in rho[a]:
                for m, k, xc in coact[b]:
                    x = xa * xc
                    for i in range(n):
                        bv = zem[i][m]
                        cv = gss[ip][i]
                        for j2, bj in enumerate(bv.entries):
                            if bj:
                                base = (s * bdim + j2) * nd
                                xb = x * bj
                                for t2, ct in enumerate(cv.entries):
                                    if ct:
                                        idx = base + t2 * bdim + k
                                        out[idx] = out[idx] + xb * ct
            if Vector(field, out) != delta_cols[a * bdim + b]:
                ok = False
                witness = f"basis ({a},{b})"
                break
        if not ok:
            break
    report.add("comult-parent-basis-form", ok, witness)

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
                c = row[r]
                if c:
                    for v in range(bdim):
                        _acc(phi_list, tensor_of([ebs[u], mid[v][p2], leg3[v][r]]), c)
    phi = Vector(field, phi_list)

    leg2i = [[gammastar.column(p2).tensor(Vector.basis(field, bdim, v)) for v in range(bdim)] for p2 in range(n)]
    leg3i = [[(gammastar @ hsalg.multiply(hsb[r], zs[v])).tensor(bunit) for v in range(bdim)] for r in range(n)]
    phi_inv_list = [field.zero] * (nd ** 3)
    for u in range(bdim):
        dzu = hs.coalgebra.comultiply(zs[u])
        for p2 in range(n):
            row = dzu.rows[p2]
            for r in range(n):
                c = row[r]
                if c:
                    for v in range(bdim):
                        _acc(phi_inv_list, tensor_of([ebs[u], leg2i[p2][v], leg3i[r][v]]), c)
    phi_inv = Vector(field, phi_inv_list)

    # inverse associator, quotient-side form
    zecol = [p.zeta.matrix.column(c2) for c2 in range(n)]
    alt = [field.zero] * (nd ** 3)
    for w in range(cdim):
        dw = h.coalgebra.comultiply(gcol[w])
        for a2 in range(n):
            row = dw.rows[a2]
            for c2 in range(n):
                c = row[c2]
                if c:
                    for t in range(cdim):
                        leg1 = cstar.unit.tensor(zgm[t][a2])
                        leg2 = Vector.basis(field, cdim, t).tensor(zecol[c2])
                        _acc(alt, tensor_of([leg1, leg2, fbs[w]]), c)
    report.add("associator-inverse-forms-agree", phi_inv == Vector(field, alt), "two closed forms")

    # preantipode
    pistar_rows = [q.pi.matrix.row(t) for t in range(cdim)]
    rbt = [h.algebra.right_mult_matrix(bsub.iota.column(bb)).transpose() for bb in range(bdim)]
    t_cols = []
    for a in range(cdim):
        for bb in range(bdim):
            acc = Vector(field, [field.zero] * nd)
            for u in range(bdim):
                w = hsalg.multiply(pistar_rows[a], rbt[bb] @ zbs[u])
                acc = acc + alg.multiply(ebs[u], (gbarstar @ w).tensor(bunit))
            t_cols.append(acc)
    t_map = Matrix.from_columns(field, t_cols, nrows=nd)

    ups = t_map @ unit_vec
    ups2 = Vector(field, [field.zero] * nd)
    for u in range(bdim):
        ups2 = ups2 + alg.multiply(ebs[u], (gbarstar @ zbs[u]).tensor(bunit))
    report.add("upsilon-forms-agree", ups == ups2, "T(1) vs direct sum")

    lmm = [alg.left_mult_matrix(es[i]) for i in range(nd)]
    rmm = [alg.right_mult_matrix(es[i]) for i in range(nd)]
    pair = [[Vector(field, list(mult.data[i][j])) for j in range(nd)] for i in range(nd)]

    # uniqueness: the defining identities pin T as the only solution
    rows: list[list] = []
    rhs_entries: list = []
    nsq = nd * nd
    for a in range(nd):
        dsupp = [(divmod(idx, nd), c) for idx, c in flat_nonzeros(delta_cols[a])]
        ea = eps_vec[a]
        for b2 in range(nd):
            for o in range(nd):
                row_a = [field.zero] * nsq
                row_b = [field.zero] * nsq
                for (i, j), c in dsupp:
                    pj = pair[i][b2]
                    rj = rmm[j]
                    li = lmm[i]
                    pb = pair[b2][j]
                    for m in range(nd):
                        cr = c * rj[o, m]
                        cl = c * li[o, m]
                        if cr:
                            base = m * nd
                            for k2, pv in enumerate(pj.entries):
                                if pv:
                                    row_a[base + k2] = row_a[base + k2] + cr * pv
                        if cl:
                            base = m * nd
                            for k2, pv in enumerate(pb.entries):
                                if pv:
                                    row_b[base + k2] = row_b[base + k2] + cl * pv
                if ea:
                    row_a[o * nd + b2] = row_a[o * nd + b2] - ea
                    row_b[o * nd + b2] = row_b[o * nd + b2] - ea
                rows.append(row_a)
                rhs_entries.append(field.zero)
                rows.append(row_b)
                rhs_entries.append(field.zero)
    phi_rows = [[field.zero] * nsq for _ in range(nd)]
    for idx, c in flat_nonzeros(phi):
        i, rest = divmod(idx, nd * nd)
        j, k = divmod(rest, nd)
        pmat = rmm[k] @ lmm[i]
        for o in range(nd):
            prow = phi_rows[o]
            for m in range(nd):
                cv = c * pmat[o, m]
                if cv:
                    prow[m * nd + j] = prow[m * nd + j] + cv
    for o in range(nd):
        rows.append(phi_rows[o])
        rhs_entries.append(unit_vec[o])
    system = Matrix(field, rows)
    rhs_vec = Vector(field, rhs_entries)
    sol = solve(system, rhs_vec)
    tvec = Vector(field, [t_map[m, k2] for m in range(nd) for k2 in range(nd)])
    kern = nullspace(system)
    report.add(
        "preantipode-unique",
        sol is not None and sol == tvec and kern.nrows == 0,
        f"kernel rank {kern.nrows}",
    )

    antipodes = _derive_antipodes(alg, t_map, ups)
    qh = QuasiHopfAlgebra(alg, delta, eps_vec, phi, phi_inv, t_map, ups, antipodes, p, report)
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
    alg = qh.algebra
    field = alg.field
    nd = alg.dim
    delta = qh.delta
    eps_vec = qh.eps
    phi, phi_inv = qh.phi, qh.phi_inv
    t_map = qh.t_map
    unit_vec = alg.unit
    es = [Vector.basis(field, nd, i) for i in range(nd)]
    delta_cols = [delta.column(i) for i in range(nd)]
    t_cols = [t_map.column(i) for i in range(nd)]

    coalg = Coalgebra(field, _delta_tensor(field, delta, nd), eps_vec)
    report = Report("quasi-Hopf axioms")
    verify_algebra(alg, report)
    verify_compatibility(alg, coalg, report)

    ok_l = ok_r = True
    wit_l = wit_r = ""
    for a in range(nd):
        col = delta_cols[a]
        if ok_l and tensor_functional(col, (nd, nd), 0, eps_vec) != es[a]:
            ok_l = False
            wit_l = f"basis {a}"
        if ok_r and tensor_functional(col, (nd, nd), 1, eps_vec) != es[a]:
            ok_r = False
            wit_r = f"basis {a}"
    report.add("counit-law-left", ok_l, wit_l)
    report.add("counit-law-right", ok_r, wit_r)

    report.add(
        "associator-invertible",
        power_multiply(alg, 3, phi, phi_inv) == power_unit(alg, 3)
        and power_multiply(alg, 3, phi_inv, phi) == power_unit(alg, 3),
        "phi phi_inv != 1",
    )
    uu = unit_vec.tensor(unit_vec)
    report.add(
        "associator-normalized",
        all(tensor_functional(phi, (nd, nd, nd), leg, eps_vec) == uu for leg in (0, 1, 2)),
        "eps on a leg of phi",
    )

    ok = True
    witness = ""
    for a in range(nd):
        d = delta_cols[a]
        lhs = power_multiply(alg, 3, phi, tensor_comult_leg(coalg, d, (nd, nd), 0))
        rhs = power_multiply(alg, 3, tensor_comult_leg(coalg, d, (nd, nd), 1), phi)
        if lhs != rhs:
            ok = False
            witness = f"basis {a}"
            break
    report.add("quasi-coassociativity", ok, witness)

    lhs = power_multiply(
        alg,
        4,
        unit_vec.tensor(phi),
        power_multiply(alg, 4, tensor_comult_leg(coalg, phi, (nd, nd, nd), 1), phi.tensor(unit_vec)),
    )
    rhs = power_multiply(
        alg,
        4,
        tensor_comult_leg(coalg, phi, (nd, nd, nd), 2),
        tensor_comult_leg(coalg, phi, (nd, nd, nd), 0),
    )
    report.add("pentagon", lhs == rhs, "pentagon identity")

    ups = qh.upsilon
    report.add("upsilon-is-t-of-unit", ups == t_map @ unit_vec, "upsilon != T(1)")

    lmm = [alg.left_mult_matrix(es[i]) for i in range(nd)]
    rmm = [alg.right_mult_matrix(es[i]) for i in range(nd)]
    mult = alg.mult
    pair = [[Vector(field, list(mult.data[i][j])) for j in range(nd)] for i in range(nd)]
    ok_a = ok_b = True
    wit_a = wit_b = ""
    for a in range(nd):
        dsupp = [(divmod(idx, nd), c) for idx, c in flat_nonzeros(delta_cols[a])]
        for b2 in range(nd):
            target = t_cols[b2].scale(eps_vec[a])
            acc_a = Vector(field, [field.zero] * nd)
            acc_b = Vector(field, [field.zero] * nd)
            for (i, j), c in dsupp:
                acc_a = acc_a + (rmm[j] @ (t_map @ pair[i][b2])).scale(c)
                acc_b = acc_b + (lmm[i] @ (t_map @ pair[b2][j])).scale(c)
            if ok_a and acc_a != target:
                ok_a = False
                wit_a = f"pair ({a},{b2})"
            if ok_b and acc_b != target:
                ok_b = False
                wit_b = f"pair ({a},{b2})"
        if not ok_a and not ok_b:
            break
    report.add("preantipode-left", ok_a, wit_a)
    report.add("preantipode-right", ok_b, wit_b)

    acc = Vector(field, [field.zero] * nd)
    for idx, c in flat_nonzeros(phi):
        i, rest = divmod(idx, nd * nd)
        j, k = divmod(rest, nd)
        acc = acc + (rmm[k] @ (lmm[i] @ t_cols[j])).scale(c)
    report.add("preantipode-associator", acc == unit_vec, "sum phi1 T(phi2) phi3")
    acc = Vector(field, [field.zero] * nd)
    for idx, c in flat_nonzeros(phi_inv):
        i, rest = divmod(idx, nd * nd)
        j, k = divmod(rest, nd)
        acc = acc + alg.multiply(alg.multiply(t_cols[i], es[j]), t_cols[k]).scale(c)
    report.add("preantipode-associator-inverse", acc == ups, "sum T(phibar1) phibar2 T(phibar3) != T(eps#1)")

    report.add(
        "antipode-availability",
        (qh.antipodes is not None) == alg.is_invertible(ups),
        "antipodes vs upsilon invertibility",
    )
    if qh.antipodes is not None:
        for label, (sm, alpha, beta) in zip(("s1", "s2"), qh.antipodes):
            _antipode_axioms(alg, delta, eps_vec, phi, phi_inv, sm, alpha, beta, report, label + "-")
            report.add(label + "-upsilon-factorization", alg.multiply(beta, alpha) == ups, "beta alpha != upsilon")
            ok = True
            witness = ""
            for a in range(nd):
                if alg.multiply(alg.multiply(beta, sm.column(a)), alpha) != t_cols[a]:
                    ok = False
                    witness = f"basis {a}"
                    break
            report.add(label + "-preantipode-factorization", ok, witness)
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
    comult_c = q.coalgebra.comult
    btr = _btr_tensor(q)
    gcol = [p.gamma.matrix.column(t) for t in range(cdim)]
    zs = [p.zeta.matrix.row(u) for u in range(bdim)]

    dbs: list[list[tuple[int, int, object]]] = [[] for _ in range(bdim)]
    for (a2, c2, u), c in bsub.mult.nonzero():
        dbs[u].append((a2, c2, c))
    ccs: list[list[tuple[int, int, object]]] = [[] for _ in range(cdim)]
    for (p2, s, t), c in comult_c.nonzero():
        ccs[p2].append((s, t, c))

    cdata = [[[field.zero] * nd for _ in range(nd)] for _ in range(nd)]
    for p2 in range(cdim):
        for u in range(bdim):
            plane = cdata[p2 * bdim + u]
            for s, t, x1 in ccs[p2]:
                for i in range(n):
                    act_row = action.data[t][i]
                    if not any(act_row):
                        continue
                    for a2, c2, x2 in dbs[u]:
                        btr_row = btr.data[i][a2]
                        x12 = x1 * x2
                        for w, xw in enumerate(btr_row):
                            if xw:
                                row_out = plane[s * bdim + w]
                                xww = x12 * xw
                                for r, xr in enumerate(act_row):
                                    if xr:
                                        idx = r * bdim + c2
                                        row_out[idx] = row_out[idx] + xww * xr
    comult_r = Tensor3(field, cdata)
    counit_r = q.coalgebra.counit.tensor(bsub.unit)
    unit_r = q.pi(h.unit).tensor(bsub.counit)

    lt = [h.algebra.left_mult_matrix(gcol[t]).transpose() for t in range(cdim)]
    mdata = [[[field.zero] * nd for _ in range(nd)] for _ in range(nd)]
    for u in range(bdim):
        for q2 in range(cdim):
            for a2, c2, x2 in dbs[u]:
                for s, t, x1 in ccs[q2]:
                    hh = hit_left(h, zs[a2], gcol[s])
                    mbtl = btl_matrix(q, hh)
                    hst = lt[t] @ zs[c2]
                    mbtr = btr_matrix(q, hst)
                    x12 = x1 * x2
                    for pp in range(cdim):
                        for p3 in range(cdim):
                            xa = mbtl[p3, pp]
                            if xa:
                                xap = x12 * xa
                                for v in range(bdim):
                                    row_out = mdata[pp * bdim + u][q2 * bdim + v]
                                    for w3 in range(bdim):
                                        xb = mbtr[w3, v]
                                        if xb:
                                            idx = p3 * bdim + w3
                                            row_out[idx] = row_out[idx] + xap * xb
    mult_r = Tensor3(field, mdata)

    coalg = Coalgebra(field, comult_r, counit_r)
    verify_coalgebra(coalg, report)
    ok = True
    witness = ""
    for i in range(nd):
        ei = Vector.basis(field, nd, i)
        left_prod = contract(mult_r, 0, unit_r).transpose() @ ei
        right_prod = contract(mult_r, 0, ei).transpose() @ unit_r
        if left_prod != ei or right_prod != ei:
            ok = False
            witness = f"basis {i}"
            break
    report.add("unit-law", ok, witness)

    # exact duality with the left side under the flat pairing
    lual = left.algebra
    ok = True
    witness = ""
    for i in range(nd):
        for j in range(nd):
            for k in range(nd):
                if lual.mult[i, j, k] != comult_r[k, i, j]:
                    ok = False
                    witness = f"entry ({i},{j},{k})"
                    break
            if not ok:
                break
        if not ok:
            break
    report.add("multiplication-comultiplication-duality", ok, witness)
    ok = True
    witness = ""
    for i in range(nd):
        col = left.delta.column(i)
        for j in range(nd):
            for k in range(nd):
                if col[j * nd + k] != mult_r[j, k, i]:
                    ok = False
                    witness = f"entry ({i},{j},{k})"
                    break
            if not ok:
                break
        if not ok:
            break
    report.add("comultiplication-multiplication-duality", ok, witness)
    report.add("unit-counit-duality", lual.unit == counit_r, "unit vs counit")
    report.add("counit-unit-duality", left.eps == unit_r, "counit vs unit")

    bad = report.failures()
    if bad:
        raise CertificationError("duality-failure", f"{bad[0][0]}: {bad[0][1]}", report=report)
    return CoquasiHopfAlgebra(coalg, mult_r, unit_r, p, report)


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
    ok = True
    witness = ""
    for i in range(nd):
        for j in range(nd):
            if theta @ q1.multiply(es[i], es[j]) != q2.multiply(theta @ es[j], theta @ es[i]):
                ok = False
                witness = f"pair ({i},{j})"
                break
        if not ok:
            break
    report.add("algebra-anti-map", ok, witness)
    report.add("unit-transport", theta @ q1.algebra.unit == q2.algebra.unit, "unit")

    ok = True
    witness = ""
    for a in range(nd):
        flipped = tensor_permute(q1.delta.column(a), (nd, nd), (1, 0))
        mapped = tensor_apply(tensor_apply(flipped, (nd, nd), 0, theta), (nd, nd), 1, theta)
        if mapped != q2.delta @ (theta @ es[a]):
            ok = False
            witness = f"basis {a}"
            break
    report.add("comultiplication-transport", ok, witness)
    pulled = Vector(field, [q2.eps.dot(theta.column(a)) for a in range(nd)])
    report.add("counit-transport", pulled == q1.eps, "counit")

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
            _antipode_axioms(
                q2.algebra,
                q2.delta,
                q2.eps,
                q2.phi,
                q2.phi_inv,
                theta @ sm @ theta_inv,
                theta @ beta,
                theta @ alpha,
                report,
                f"transported-{label}-",
            )
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

    cstar_unit = Vector(field, list(q.coalgebra.counit.entries))
    ebs = [cstar_unit.tensor(Vector.basis(field, bdim, u)) for u in range(bdim)]
    fbs = [Vector.basis(field, cdim, a).tensor(bsub.unit) for a in range(cdim)]
    cols = [q1.multiply(ebs[b], fbs[a]) for a in range(cdim) for b in range(bdim)]
    phim = Matrix.from_columns(field, cols, nrows=nd)

    hs = dual(q.parent)
    sinv = hs.antipode_inverse()
    rho = _action_support(q)
    coaction = bsub.coaction
    n = q.parent.dim
    bca = [[Vector(field, list(coaction.data[b][i])) for i in range(n)] for b in range(bdim)]
    ok = True
    witness = ""
    for a in range(cdim):
        for b in range(bdim):
            acc = [field.zero] * nd
            for s, i, x in rho[a]:
                w = sinv.column(i)
                bvec = Vector(field, [field.zero] * bdim)
                for m, wm in enumerate(w.entries):
                    if wm:
                        bvec = bvec + bca[b][m].scale(wm)
                for k2, bk in enumerate(bvec.entries):
                    if bk:
                        idx = s * bdim + k2
                        acc[idx] = acc[idx] + x * bk
            if Vector(field, acc) != cols[a * bdim + b]:
                ok = False
                witness = f"basis ({a},{b})"
                break
        if not ok:
            break
    report.add("map-forms-agree", ok, witness)

    inv_cols = []
    for a in range(cdim):
        for b in range(bdim):
            acc = [field.zero] * nd
            for s, i, x in rho[a]:
                for k2, bk in enumerate(bca[b][i].entries):
                    if bk:
                        idx = s * bdim + k2
                        acc[idx] = acc[idx] + x * bk
            inv_cols.append(Vector(field, acc))
    phim_inv = Matrix.from_columns(field, inv_cols, nrows=nd)
    ident = Matrix.identity(field, nd)
    report.add("mutually-inverse", phim @ phim_inv == ident and phim_inv @ phim == ident, "composite")

    es = [q1.basis(i) for i in range(nd)]
    ok = True
    witness = ""
    for i in range(nd):
        for j in range(nd):
            if phim @ q1.multiply(es[i], es[j]) != q_op.multiply(phim @ es[j], phim @ es[i]):
                ok = False
                witness = f"pair ({i},{j})"
                break
        if not ok:
            break
    report.add("algebra-anti-map", ok, witness)
    report.add("unit-transport", phim @ q1.algebra.unit == q_op.algebra.unit, "unit")

    ok = True
    witness = ""
    for a in range(nd):
        mapped = tensor_apply(
            tensor_apply(q1.delta.column(a), (nd, nd), 0, phim), (nd, nd), 1, phim
        )
        if mapped != q_op.delta @ (phim @ es[a]):
            ok = False
            witness = f"basis {a}"
            break
    report.add("comultiplication-transport", ok, witness)
    pulled = Vector(field, [q_op.eps.dot(phim.column(a)) for a in range(nd)])
    report.add("counit-transport", pulled == q1.eps, "counit")

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

    zeta_alg = p.zeta(h.unit) == bsub.unit
    if zeta_alg:
        for i in range(n):
            for j in range(n):
                lhs = p.zeta(h.algebra.multiply(h.basis(i), h.basis(j)))
                if lhs != bsub.algebra.multiply(p.zeta.column(i), p.zeta.column(j)):
                    zeta_alg = False
                    break
            if not zeta_alg:
                break

    # B a subcoalgebra: every coaction leg on the parent side lands in iota(B)
    sub = True
    db_mats: list[Matrix | None] = []
    for j in range(bdim):
        rows = []
        for k in range(bdim):
            wjk = Vector(field, [bsub.coaction[j, m, k] for m in range(n)])
            v = solve(bsub.iota.matrix, wjk)
            if v is None:
                sub = False
                break
            rows.append(v)
        if not sub:
            break
        db_mats.append(Matrix(field, [[rows[k][u] for k in range(bdim)] for u in range(bdim)]))
    zeta_coalg = sub
    if zeta_coalg:
        zm = p.zeta.matrix
        zmt = zm.transpose()
        for a in range(n):
            lhs = zm @ h.coalgebra.comultiply(h.basis(a)) @ zmt
            rhs = Matrix.zeros(field, bdim, bdim)
            for j, c in enumerate(p.zeta.column(a).entries):
                if c:
                    rhs = rhs + db_mats[j].scale(c)
            if lhs != rhs:
                zeta_coalg = False
                break
        if zeta_coalg:
            for a in range(n):
                if bsub.counit.dot(p.zeta.column(a)) != h.counit[a]:
                    zeta_coalg = False
                    break

    left_ideal = True
    for r in range(q.ideal_basis.nrows):
        vr = q.ideal_basis.row(r)
        for i in range(n):
            if not q.pi(h.algebra.multiply(h.basis(i), vr)).is_zero():
                left_ideal = False
                break
        if not left_ideal:
            break
    gamma_alg = left_ideal
    if gamma_alg:
        gcol = [p.gamma.matrix.column(t) for t in range(cdim)]
        one_c = q.pi(h.unit)
        gone = Vector(field, [field.zero] * n)
        for t, c in enumerate(one_c.entries):
            if c:
                gone = gone + gcol[t].scale(c)
        if gone != h.unit:
            gamma_alg = False
        else:
            for t in range(cdim):
                for s in range(cdim):
                    prod_c = q.pi(h.algebra.multiply(q.lift(q.coalgebra.basis(t)), q.lift(q.coalgebra.basis(s))))
                    lhs = Vector(field, [field.zero] * n)
                    for w, c in enumerate(prod_c.entries):
                        if c:
                            lhs = lhs + gcol[w].scale(c)
                    if lhs != h.algebra.multiply(gcol[t], gcol[s]):
                        gamma_alg = False
                        break
                if not gamma_alg:
                    break

    gamma_coalg = True
    gm = p.gamma.matrix
    gmt = gm.transpose()
    for t in range(cdim):
        if h.coalgebra.comultiply(gm.column(t)) != gm @ q.coalgebra.comultiply(q.coalgebra.basis(t)) @ gmt:
            gamma_coalg = False
            break
    if gamma_coalg:
        for t in range(cdim):
            if h.counit.dot(gm.column(t)) != q.coalgebra.counit[t]:
                gamma_coalg = False
                break

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
        hop = HopfAlgebra(
            qh.field,
            qh.algebra.mult,
            qh.algebra.unit,
            qh.comult_tensor(),
            qh.eps,
            qh.t_map,
            name="left partial dual",
        )
        rep = verify_hopf(hop)
        rep.add("upsilon-trivial", qh.upsilon == qh.algebra.unit, "upsilon != 1")
        rep.raise_if_failed()
        return HopfDetection("hopf", hop, diagnostics, rep)
    rep = Report("hopf detection")
    rep.add("associator-nontrivial", True)
    return HopfDetection("strictly-quasi", None, diagnostics, rep)
