"""Left coideal subalgebras and their quotient module coalgebras.

A coideal subalgebra is handed over as an inclusion matrix iota; the
certifier first verifies the Hopf axioms of the parent H, the one place
the pipeline does so, then checks injectivity, unitality, closure under
products and the left coideal property, and stores the induced
structure constants.  The quotient by the induced right ideal carries
the quotient coalgebra, a right module action on the quotient, and a
dual-side action of the dual Hopf algebra on the dual of the coideal.
Quotient presentations are canonical by default (complementing the
row-reduced ideal basis with standard coordinates) but can be supplied,
which the induced systems of the six-row table rely on.

CoidealSubalgebra and CoidealQuotient are built only by their
certifiers, certify_coideal and build_quotient: their constructors take
a module-private token and raise TypeError without it.  So every later
stage may take what the certifiers checked as given.
"""

from __future__ import annotations

from partialdual.hopf import (
    Algebra,
    CertificationError,
    Coalgebra,
    HopfAlgebra,
    LinMap,
    Report,
    _first_mismatch,
    coopposite,
    dual,
    flat_nonzeros,
    tensor_apply,
    verify_hopf,
)
from partialdual.linalg import (
    Elimination,
    Matrix,
    Tensor3,
    Vector,
    contract,
    nullspace,
    subspace_basis,
)

__all__ = [
    "CoidealSubalgebra",
    "CoidealQuotient",
    "certify_coideal",
    "build_quotient",
    "action_btl",
    "btl_matrix",
    "action_btr",
    "btr_matrix",
    "dual_coideal",
]

# held only by certify_coideal and build_quotient, the certifiers
_CERTIFIED = object()


class CoidealSubalgebra:
    """A certified left coideal subalgebra B of a Hopf algebra.

    Stores the inclusion, the induced multiplication and unit in B
    coordinates, the restricted counit, and the coaction tensor
    Delta(iota b) = sum coaction[b, j, k] e_j (x) iota(e_k).
    """

    def __init__(
        self,
        token: object,
        parent: HopfAlgebra,
        iota: LinMap,
        mult: Tensor3,
        unit: Vector,
        counit: Vector,
        coaction: Tensor3,
        report: Report,
    ):
        if token is not _CERTIFIED:
            raise TypeError("CoidealSubalgebra is built only by certify_coideal")
        self.parent = parent
        self.iota = iota
        self.dim = iota.source
        self.mult = mult
        self.unit = unit
        self.counit = counit
        self.coaction = coaction
        self.report = report
        self._algebra: Algebra | None = None

    @property
    def field(self):
        return self.parent.field

    @property
    def algebra(self) -> Algebra:
        if self._algebra is None:
            self._algebra = Algebra(self.field, self.mult, self.unit)
        return self._algebra

    def include(self, v: Vector) -> Vector:
        return self.iota(v)

    def basis(self, i: int) -> Vector:
        return Vector.basis(self.field, self.dim, i)

    def __repr__(self) -> str:
        return (
            f"CoidealSubalgebra(dim={self.dim} in dim={self.parent.dim}"
            f" over {self.field.descriptor})"
        )


def certify_coideal(h: HopfAlgebra, iota: LinMap) -> CoidealSubalgebra:
    """Certify iota : B -> H as a left coideal subalgebra inclusion.

    The parent is verified first: a failing Hopf axiom raises
    CertificationError named after it, carrying verify_hopf's report.
    Then raises CertificationError on the first structural failure of
    iota; the exception carries the full report.
    """
    verify_hopf(h).raise_if_failed()
    field = h.field
    n = h.dim
    b = iota.source
    if iota.target != n:
        raise CertificationError(
            "iota-shape", f"inclusion lands in dimension {iota.target}, parent has {n}"
        )
    if iota.field is not field:
        raise CertificationError("iota-shape", "inclusion is over the wrong field")
    report = Report(f"coideal subalgebra of {h.name or 'H'}")

    # one reduction of iota answers the unit, every product and every
    # coaction leg: right-hand side 0 is 1, then products, then legs
    cols = [iota.column(i) for i in range(b)]
    products = [h.algebra.multiply(cols[i], cols[j]).entries for i in range(b) for j in range(b)]
    legs = [row for i in range(b) for row in h.coalgebra.comultiply(cols[i]).rows]
    inclusion = Elimination.of_matrix(iota.matrix, [h.unit.entries, *products, *legs])

    report.add(
        "iota-injective",
        inclusion.rank == b,
        f"inclusion matrix has rank {inclusion.rank} < {b}",
    )
    report.raise_if_failed()

    unit_b = inclusion.solution(0)
    report.add("contains-unit", unit_b is not None, "1 is not in the image of iota")
    report.raise_if_failed()
    assert unit_b is not None

    mult_rows = [[inclusion.solution(1 + i * b + j) for j in range(b)] for i in range(b)]
    report.add("closed-under-multiplication", *_first_mismatch(
        "iota(e{0}) iota(e{1}) is not in the image of iota".format,
        lambda i, j: (mult_rows[i][j] is not None, True),
        b, b,
    ))
    report.raise_if_failed()
    mult_b = Tensor3._of(field, [[x.entries for x in plane] for plane in mult_rows], (b, b, b))

    coaction_rows = [[inclusion.solution(1 + b * b + i * n + j) for j in range(n)] for i in range(b)]
    report.add("left-coideal", *_first_mismatch(
        "Delta(iota(e{0})) has second leg outside iota(B) at e{1} (x) -".format,
        lambda i, j: (coaction_rows[i][j] is not None, True),
        b, n,
    ))
    report.raise_if_failed()
    coaction = Tensor3._of(field, [[x.entries for x in plane] for plane in coaction_rows], (b, n, b))

    counit_b = Vector._of(field, [h.counit.dot(iota.column(i)) for i in range(b)])
    return CoidealSubalgebra(_CERTIFIED, h, iota, mult_b, unit_b, counit_b, coaction, report)


class CoidealQuotient:
    """The quotient coalgebra C = H / (B+ H) with its right H-action.

    Carries the projection pi, a linear section lift, the quotient
    coalgebra, the action tensor for x <| h = pi(lift(x) h), and lazy
    dual-side data: the algebra C*, the dual coideal C* inside the
    co-opposite dual and the action tensor for h* |> b* on B*.
    """

    def __init__(
        self,
        token: object,
        b: CoidealSubalgebra,
        pi: LinMap,
        lift: LinMap,
        coalgebra: Coalgebra,
        action: Tensor3,
        ideal_basis: Matrix,
        canonical: bool,
        report: Report,
    ):
        if token is not _CERTIFIED:
            raise TypeError("CoidealQuotient is built only by build_quotient")
        self.coideal = b
        self.parent = b.parent
        self.pi = pi
        self.lift = lift
        self.dim = pi.target
        self.coalgebra = coalgebra
        self.action = action
        self.ideal_basis = ideal_basis
        self.canonical = canonical
        self.report = report
        self._hstar: HopfAlgebra | None = None
        self._cstar: Algebra | None = None
        self._dual_parent: HopfAlgebra | None = None
        self._dual_coideal: CoidealSubalgebra | None = None
        self._section: Matrix | None = None
        self._btr: Tensor3 | None = None

    @property
    def field(self):
        return self.parent.field

    @property
    def hstar(self) -> HopfAlgebra:
        """H*, the dual Hopf algebra of the parent, built once."""
        if self._hstar is None:
            self._hstar = dual(self.parent)
        return self._hstar

    @property
    def cstar(self) -> Algebra:
        """C*, the dual algebra of the quotient coalgebra (convolution
        product, unit eps_C), built once."""
        if self._cstar is None:
            comult, c = self.coalgebra.comult, self.dim
            mult = [[[comult[k, i, j] for k in range(c)] for j in range(c)] for i in range(c)]
            self._cstar = Algebra(self.field, Tensor3._of(comult.field, mult, (c, c, c)), self.coalgebra.counit)
        return self._cstar

    @property
    def dual_parent(self) -> HopfAlgebra:
        """The co-opposite of the dual, the ambient Hopf algebra of C*."""
        if self._dual_parent is None:
            self._dual_parent = coopposite(self.hstar)
        return self._dual_parent

    def basis(self, i: int) -> Vector:
        return Vector.basis(self.field, self.dim, i)

    def __repr__(self) -> str:
        return (
            f"CoidealQuotient(dim={self.dim} of dim={self.parent.dim}"
            f" over {self.field.descriptor})"
        )


def build_quotient(
    b: CoidealSubalgebra, pi: LinMap | None = None, lift: LinMap | None = None
) -> CoidealQuotient:
    """Build and verify the quotient of the parent by the right ideal B+ H.

    Without arguments the presentation is canonical: the ideal is row
    reduced and the non-pivot standard coordinates become the quotient
    basis.  A supplied (pi, lift) pair is verified against the same
    ideal instead; it must satisfy pi lift = id and ker pi = B+ H.

    The action x <| h = pi(lift(x) h) needs no check that pi is a module
    map, pi(e_i e_j) = pi(e_i) <| e_j: it follows from the checks made.
    pi-kills-ideal gives B+ H inside ker pi, and pi-surjective makes
    ker pi as large as the ideal, so ker pi = B+ H.  pi-splits-lift
    puts lift(pi(e_i)) - e_i in ker pi, and action-well-defined (on the
    ideal basis, so on all of B+ H by linearity) sends (B+ H) e_j into
    ker pi.  Hence pi(e_i e_j) = pi(lift(pi(e_i)) e_j), which by
    linearity in x is pi(e_i) <| e_j.

    Two more identities need no check for the same reasons.  eps_C pi
    = eps: eps_C is eps lift, and lift(pi(e)) - e lies in ker pi = B+ H,
    which eps kills since eps_B = eps iota vanishes on B+.  pi iota =
    eps_B(-) pi(1): iota(b) - eps_B(b) 1 = iota(b - eps_B(b) 1_B) lies in
    iota(B+), inside B+ H, as iota(1_B) = 1 (contains-unit).

    The last check, coinvariants-equal-image, solves for the
    coinvariants {h : sum h_1 (x) pi(h_2) = h (x) pi(1)} and compares
    their span with iota(B): B is recovered from the quotient map.
    """
    h = b.parent
    field = h.field
    n = h.dim
    report = Report("quotient by B+ H")

    bplus = nullspace(Matrix._of(b.counit.field, [b.counit.entries], b.dim))
    spanning = []
    for r in range(bplus.nrows):
        v = b.iota(bplus.row(r))
        for j in range(n):
            spanning.append(h.algebra.multiply(v, h.basis(j)))
    # the reduced span is the canonical ideal basis; its pivots fix the quotient basis
    reduction = Elimination(field, n, [dict(flat_nonzeros(v)) for v in spanning])
    ideal = reduction.reduced_rows()
    c = n - ideal.nrows

    report.add(
        "dim-product-law",
        b.dim * c == n,
        f"dim B * dim C = {b.dim} * {c} != {n} = dim H",
    )
    report.raise_if_failed()

    if (pi is None) != (lift is None):
        raise ValueError("supply pi and lift together or not at all")
    canonical = pi is None
    if pi is None:
        pivot_set = set(reduction.pivots)
        free = [j for j in range(n) if j not in pivot_set]
        basis_rows = list(ideal.rows)
        for j in free:
            basis_rows.append(Vector.basis(field, n, j).entries)
        change = Matrix._of(field, basis_rows, n).transpose().inverse()
        pi = LinMap(Matrix._of(field, change.rows[ideal.nrows :], n))
        lift = LinMap(
            Matrix.from_columns(
                field, [Vector.basis(field, n, j) for j in free], nrows=n
            )
        )
    assert lift is not None
    if pi.source != n or pi.target != c:
        raise CertificationError(
            "pi-shape", f"projection must be {c} x {n}, got {pi.target} x {pi.source}"
        )
    if lift.source != c or lift.target != n:
        raise CertificationError(
            "lift-shape", f"section must be {n} x {c}, got {lift.target} x {lift.source}"
        )

    report.add(
        "pi-splits-lift",
        pi.matrix @ lift.matrix == Matrix.identity(field, c),
        "pi lift != id",
    )
    ok = all(
        (pi(ideal.row(r))).is_zero() for r in range(ideal.nrows)
    )
    report.add("pi-kills-ideal", ok, "pi does not vanish on B+ H")
    rank = pi.matrix.rank()
    report.add("pi-surjective", rank == c, f"projection has rank {rank} < {c}")
    report.raise_if_failed()

    hb = [h.basis(i) for i in range(n)]
    pis = [pi(e) for e in hb]
    pi_t = pi.matrix.transpose()
    comult_rows = []
    for r in range(c):
        d = h.coalgebra.comultiply(lift.column(r))
        projected = pi.matrix @ d @ pi_t
        comult_rows.append(projected.rows)
    comult_c = Tensor3._of(field, comult_rows, (c, c, c))
    counit_c = Vector._of(field, [h.counit.dot(lift.column(r)) for r in range(c)])
    coalg = Coalgebra(field, comult_c, counit_c)

    report.add("pi-coalgebra-map", *_first_mismatch(
        "Delta_C(pi(e{0})) disagrees with (pi (x) pi)Delta(e{0})".format,
        lambda i: (pi.matrix @ h.coalgebra.comultiply(hb[i]) @ pi_t, coalg.comultiply(pis[i])),
        n,
    ))

    ideal_rows = [ideal.row(r) for r in range(ideal.nrows)]
    zero_c = Vector.zero(field, c)
    report.add("action-well-defined", *_first_mismatch(
        "pi((B+ H) e{1}) != 0 at ideal basis row {0}".format,
        lambda r, j: (pi(h.algebra.multiply(ideal_rows[r], hb[j])), zero_c),
        len(ideal_rows), n,
    ))
    coinvariants = _coinvariants(h, pi)
    report.add(
        "coinvariants-equal-image",
        subspace_basis([coinvariants.row(r) for r in range(coinvariants.nrows)], field=field, length=n)
        == subspace_basis([b.iota.column(j) for j in range(b.dim)], field=field, length=n),
        "coinvariants of h -> sum h_1 (x) pi(h_2) differ from iota(B)",
    )
    report.raise_if_failed()

    action_rows = []
    for r in range(c):
        v = lift.column(r)
        plane = []
        for e in hb:
            plane.append(pi(h.algebra.multiply(v, e)).entries)
        action_rows.append(plane)
    action = Tensor3._of(field, action_rows, (c, n, c))

    return CoidealQuotient(_CERTIFIED, b, pi, lift, coalg, action, ideal, canonical, report)


def _coinvariants(h: HopfAlgebra, pi: LinMap) -> Matrix:
    """A basis, one vector per row, of {x in H : sum x_1 (x) pi(x_2) = x (x) pi(1)}."""
    n = h.dim
    one = pi(h.unit)
    return nullspace(Matrix.from_columns(h.field, [
        tensor_apply(h.coalgebra.comultiply_flat(e), (n, n), 1, pi.matrix) - e.tensor(one)
        for e in map(h.basis, range(n))
    ], nrows=n * pi.target))


def action_btl(q: CoidealQuotient, x: Vector, h: Vector) -> Vector:
    """The right action x <| h = pi(lift(x) h) on the quotient."""
    return contract(q.action, 0, x).transpose() @ h


def btl_matrix(q: CoidealQuotient, h: Vector) -> Matrix:
    """Matrix of x -> x <| h."""
    return contract(q.action, 1, h).transpose()


def _dual_section(q: CoidealQuotient) -> Matrix:
    """A fixed linear section of iota* : H* -> B* (columns solve iota^T s = e_j).

    Every column exists: iota is injective (certify_coideal), so iota^T
    has full row rank.
    """
    if q._section is None:
        bdim = q.coideal.dim
        iota_star = Elimination.of_matrix(
            q.coideal.iota.matrix.transpose(), Matrix.identity(q.field, bdim).rows
        )
        cols = [iota_star.solution(j) for j in range(bdim)]
        q._section = Matrix.from_columns(q.field, cols, nrows=q.parent.dim)
    return q._section


def _btr_tensor(q: CoidealQuotient) -> Tensor3:
    """Action tensor of h* |> b* = iota*(h* varsigma(b*)), read off the coaction.

    For any section varsigma of iota*, the product of H* being Delta^T
    and Delta(iota(b_t)) = sum coaction[t, i, l] e_i (x) iota(b_l) (the
    coaction certify_coideal solved for),
    <f_i |> b*_j, b_t> = <f_i (x) varsigma(b*_j), Delta(iota(b_t))>
    = coaction[t, i, j].  So the action is well defined, and it is
    adjoint to the right hit of functionals on B by construction.
    """
    if q._btr is None:
        coaction, n, bdim = q.coideal.coaction, q.parent.dim, q.coideal.dim
        q._btr = Tensor3._of(
            q.field,
            [[[coaction[t, i, j] for t in range(bdim)] for j in range(bdim)] for i in range(n)],
            (n, bdim, bdim),
        )
    return q._btr


def action_btr(q: CoidealQuotient, hstar: Vector, bstar: Vector) -> Vector:
    """The left action h* |> b* of the dual Hopf algebra on B*."""
    return contract(_btr_tensor(q), 0, hstar).transpose() @ bstar


def btr_matrix(q: CoidealQuotient, hstar: Vector) -> Matrix:
    """Matrix of b* -> h* |> b*."""
    return contract(_btr_tensor(q), 0, hstar).transpose()


def dual_coideal(q: CoidealQuotient) -> CoidealSubalgebra:
    """C* as a certified left coideal subalgebra of the co-opposite dual."""
    if q._dual_coideal is None:
        q._dual_coideal = certify_coideal(
            q.dual_parent, LinMap(q.pi.matrix.transpose())
        )
    return q._dual_coideal
