"""Left coideal subalgebras and their quotient module coalgebras.

A coideal subalgebra is handed over as an inclusion matrix iota; the
certifier first verifies the Hopf axioms of the parent H, the one place
the pipeline does so, then checks injectivity, unitality, closure under
products and the left coideal property, and stores the induced
structure constants.  The parent is verified once: a coideal of a
transport of a certified parent (op, cop, biop, dual) is certified by
_certify_inclusion alone, which proves the transport Hopf rather than
re-verifying it.  The quotient by the induced right ideal carries
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

from typing import Sequence

from partialdual.hopf import (
    Algebra,
    CertificationError,
    Coalgebra,
    HopfAlgebra,
    LinMap,
    Report,
    _cut,
    _kron,
    _leg_map,
    _flat_rows,
    _power_product,
    _slice_mismatch,
    _stacked,
    _table,
    _tensor3,
    _transposed,
    coopposite,
    dual,
    flat_nonzeros,
    verify_hopf,
)
from partialdual.linalg import (
    Elimination,
    Matrix,
    Tensor3,
    Vector,
    _columns,
    _comparable,
    _dense,
    _int_supports,
    _scalars,
    _sparse,
    nullspace,
)

__all__ = [
    "CoidealSubalgebra",
    "CoidealQuotient",
    "certify_coideal",
    "build_quotient",
    "dual_coideal",
]

# held only by certify_coideal and build_quotient, the certifiers
_CERTIFIED = object()


class CoidealSubalgebra:
    """A certified left coideal subalgebra B of a Hopf algebra.

    Stores the inclusion, the induced algebra in B coordinates, the
    restricted counit, and the coaction delta(b) = b_-1 (x) b_0 once, as
    `int_coaction` = (images, den) reduced by the field: (images[i], den)
    is delta(e_i) flat over H (x) B, so Delta(iota(e_i)) = sum
    coaction[i, j, k] e_j (x) iota(e_k) with coaction[i, j, k] at
    j dim(B) + k.  The view `coaction` builds that dense tensor from it
    on each read.
    """

    def __init__(
        self, token: object, parent: HopfAlgebra, iota: LinMap, algebra: Algebra, counit: Vector,
        int_coaction: tuple[Sequence[dict[int, int]], int], report: Report,
    ):
        if token is not _CERTIFIED:
            raise TypeError("CoidealSubalgebra is built only by certify_coideal")
        self.parent = parent
        self.iota = iota
        self.dim = iota.source
        self.algebra = algebra
        self.unit = algebra.unit
        self.counit = counit
        self.int_coaction = tuple(map(self.field.reduce, int_coaction[0])), int_coaction[1]
        self.report = report

    @property
    def field(self):
        return self.parent.field

    @property
    def mult(self) -> Tensor3:
        return self.algebra.mult

    @property
    def coaction(self) -> Tensor3:
        """The coaction tensor, built from int_coaction."""
        n, b = self.parent.dim, self.dim
        return _tensor3(self.field, (b, n, b), _stacked(self.int_coaction, n * b))

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
    Then _certify_inclusion checks iota.
    """
    verify_hopf(h).raise_if_failed()
    return _certify_inclusion(h, iota)


def _certify_inclusion(h: HopfAlgebra, iota: LinMap) -> CoidealSubalgebra:
    """certify_coideal without verify_hopf, for a parent that is Hopf by
    construction: a transport of a parent that certify_coideal verified.
    Raises CertificationError on the first structural failure of iota;
    the exception carries the full report.

    Each transport is Hopf by a theorem (Sweedler, Hopf Algebras, 1969),
    whose proof sits in the transport's docstring in hopf:
      H itself: verify_hopf passed on it in certify_coideal;
      H^op (opposite): same Delta, reversed product, antipode S^{-1};
      H^cop (coopposite): same product, reversed Delta, antipode S^{-1};
      H^bop (biopposite): both reversed, antipode S;
      H* (dual): product and Delta transposed, antipode S^T;
      a transport of a transport: Hopf by the line of the outer one.
    """
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
    # coaction leg: right-hand side 0 is 1, then products, then legs,
    # each read off the integer tables of H
    cols, den = _columns(iota.matrix)
    products = [_power_product(h.algebra, 1, (u, den), (v, den)) for u in cols for v in cols]
    legs = []
    for u in cols:  # the rows of Delta(iota(e_i)): the coordinates e_j (x) - for each j
        rows, d = _cut(_leg_map((u, den), (n,), 0, n * n, h.coalgebra.int_comult), n, n)
        legs += [(row, d) for row in rows]
    rhs = [_dense(field, n, s).entries for s in products + legs]
    inclusion = Elimination.of_matrix(iota.matrix, [h.unit.entries, *rhs])

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

    def unsolved(solutions):  # slice i: the j whose right-hand side has no solution, against none
        return lambda i: (({j: 1 for j, x in enumerate(solutions[i]) if x is None}, 1), ({}, 1))

    mult_rows = [[inclusion.solution(1 + i * b + j) for j in range(b)] for i in range(b)]
    report.add("closed-under-multiplication", *_slice_mismatch(
        field, "iota(e{0}) iota(e{1}) is not in the image of iota".format, unsolved(mult_rows), b, (b,)
    ))
    report.raise_if_failed()
    algebra = Algebra._of(field, _int_supports(field, [flat_nonzeros(x) for plane in mult_rows for x in plane]), unit_b)

    coaction_rows = [[inclusion.solution(1 + b * b + i * n + j) for j in range(n)] for i in range(b)]
    report.add("left-coideal", *_slice_mismatch(
        field, "Delta(iota(e{0})) has second leg outside iota(B) at e{1} (x) -".format, unsolved(coaction_rows), b, (n,)
    ))
    report.raise_if_failed()
    coaction = _int_supports(field, [
        [(j * b + k, x) for j, v in enumerate(plane) for k, x in flat_nonzeros(v)] for plane in coaction_rows
    ])

    counit_b = Vector._of(field, [h.counit.dot(iota.column(i)) for i in range(b)])
    return CoidealSubalgebra(_CERTIFIED, h, iota, algebra, counit_b, coaction, report)


class CoidealQuotient:
    """The quotient coalgebra C = H / (B+ H) with its right H-action.

    Carries the projection pi, a linear section lift, the quotient
    coalgebra, the action x <| h = pi(lift(x) h) once as `int_action` =
    (images, den) reduced by the field, with (images[r], den) the
    x_r <| e_i flat over (i, s) for x_s, and lazy dual-side data: the
    algebra C* and the dual coideal C* inside the co-opposite dual.  The
    view `action` builds the dense tensor action[r, i, s] on each read.
    """

    def __init__(
        self, token: object, b: CoidealSubalgebra, pi: LinMap, lift: LinMap, coalgebra: Coalgebra,
        int_action: tuple[Sequence[dict[int, int]], int], ideal_basis: Matrix, canonical: bool, report: Report,
    ):
        if token is not _CERTIFIED:
            raise TypeError("CoidealQuotient is built only by build_quotient")
        self.coideal = b
        self.parent = b.parent
        self.pi = pi
        self.lift = lift
        self.dim = pi.target
        self.coalgebra = coalgebra
        self.int_action = tuple(map(self.field.reduce, int_action[0])), int_action[1]
        self.ideal_basis = ideal_basis
        self.canonical = canonical
        self.report = report
        self._hstar: HopfAlgebra | None = None
        self._cstar: Algebra | None = None
        self._dual_parent: HopfAlgebra | None = None
        self._dual_coideal: CoidealSubalgebra | None = None
        self._section: Matrix | None = None

    @property
    def field(self):
        return self.parent.field

    @property
    def action(self) -> Tensor3:
        """The action tensor, built from int_action."""
        n, c = self.parent.dim, self.dim
        return _tensor3(self.field, (c, n, c), _stacked(self.int_action, n * c))

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
            c = self.coalgebra
            self._cstar = Algebra._of(self.field, _transposed(c.int_comult, self.dim**2), c.counit)
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

    The report has 5 checks: dim-product-law, pi-splits-lift,
    pi-kills-ideal, pi-surjective and coinvariants-equal-image.
    pi-kills-ideal gives B+ H inside ker pi, and pi-surjective makes
    ker pi as large as the ideal, so ker pi = B+ H.  Two facts about
    B+ H, for B a left coideal subalgebra of the Hopf algebra H as
    certify_coideal certified them, then need no check:

    - pi is a module map, pi(e_i e_j) = pi(e_i) <| e_j for the action
      x <| h = pi(lift(x) h).  B+ H is a right ideal, as H is
      associative, so (B+ H) e_j lies in ker pi; pi-splits-lift puts
      lift(pi(e_i)) - e_i in ker pi, hence pi(e_i e_j) =
      pi(lift(pi(e_i)) e_j).
    - pi is a coalgebra map onto Delta_C = (pi (x) pi) Delta lift.  B+ H
      is a coideal: Delta(B) in H (x) B gives Delta(b) in H (x) B+ +
      b (x) 1 for b in B+, and Delta is multiplicative, so Delta(B+ H)
      lies in H (x) B+ H + B+ H (x) H, which pi (x) pi kills.  As
      lift(pi(e)) - e lies in B+ H, (pi (x) pi) Delta(e) = Delta_C(pi(e)).
      So Delta_C is coassociative, pi being a surjective coalgebra map.

    Two more identities need no check for the same reasons.  eps_C pi
    = eps: eps_C is eps lift, and lift(pi(e)) - e lies in ker pi = B+ H,
    which eps kills since eps_B = eps iota vanishes on B+.  pi iota =
    eps_B(-) pi(1): iota(b) - eps_B(b) 1 = iota(b - eps_B(b) 1_B) lies in
    iota(B+), inside B+ H, as iota(1_B) = 1 (contains-unit).

    The last check, coinvariants-equal-image, recovers B from the
    quotient map: iota(B) is the space of coinvariants
    {h : sum h_1 (x) pi(h_2) = h (x) pi(1)}.  It checks two things:
    every iota(b_i) is a coinvariant, and the rank of the n rows
    sum (e_j)_1 (x) pi((e_j)_2) - e_j (x) pi(1) is n - dim B, so the
    coinvariants have dimension dim B.  A subspace that contains another
    of the same dimension equals it, and iota is injective
    (iota-injective), so iota(B) equals the coinvariants.
    """
    h = b.parent
    field = h.field
    n = h.dim
    report = Report("quotient by B+ H")

    bplus = nullspace(Matrix._of(b.counit.field, [b.counit.entries], b.dim))
    rows = _flat_rows(h.algebra)
    spanning = []
    for r in range(bplus.nrows):  # v e_j for every j, v = iota of a basis vector of B+
        products, den = _cut(_leg_map(_sparse(b.iota(bplus.row(r))), (n,), 0, n * n, rows), n, n)
        spanning += [_scalars(field, (s, den)) for s in products]
    # the reduced span is the canonical ideal basis; its pivots fix the quotient basis
    reduction = Elimination(field, n, spanning)
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

    lifts, one_c, pis = _columns(lift.matrix), _sparse(pi(h.unit)), _columns(pi.matrix)

    def projected(u, table, legs):  # u through a two-leg table of H, then pi on each of the legs
        u = _leg_map(u, (n,), 0, n * n, table)
        for leg in legs:
            u = _leg_map(u, (n, n), leg, c, pis)
        return u

    # Delta_C(x_r) = (pi (x) pi) Delta(lift(x_r))
    comult_c = _table(projected((x, lifts[1]), h.coalgebra.int_comult, (0, 1)) for x in lifts[0])
    counit_c = Vector._of(field, [h.counit.dot(lift.column(r)) for r in range(c)])
    coalg = Coalgebra._of(field, comult_c, counit_c)

    def coinvariance(u):  # sum u_1 (x) pi(u_2) and u (x) pi(1)
        return projected(u, h.coalgebra.int_comult, (1,)), _kron(u, one_c, c)

    text = "coinvariants of h -> sum h_1 (x) pi(h_2) differ from iota(B)"
    included, den = _columns(b.iota.matrix)
    contained, _ = _slice_mismatch(field, text.format, lambda i: coinvariance((included[i], den)), b.dim)
    differences = []
    for j in range(n):  # both sides over one denominator: the row is scaled by it, which keeps the rank
        (lhs, _), (rhs, _) = _comparable(field, *coinvariance(({j: 1}, 1)))
        differences.append({k: lhs.get(k, 0) - rhs.get(k, 0) for k in lhs.keys() | rhs.keys()})
    rank = Elimination(field, n * c, differences).rank
    report.add("coinvariants-equal-image", contained and rank == n - b.dim, text)
    report.raise_if_failed()

    # x_r <| e_i = pi(lift(x_r) e_i)
    action = _table(projected((x, lifts[1]), rows, (1,)) for x in lifts[0])

    return CoidealQuotient(_CERTIFIED, b, pi, lift, coalg, action, ideal, canonical, report)


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


def dual_coideal(q: CoidealQuotient) -> CoidealSubalgebra:
    """C* as a certified left coideal subalgebra of the co-opposite dual,
    cop(dual(H)) of the certified parent H, which _certify_inclusion
    takes as Hopf."""
    if q._dual_coideal is None:
        q._dual_coideal = _certify_inclusion(q.dual_parent, LinMap(q.pi.matrix.transpose()))
    return q._dual_coideal
