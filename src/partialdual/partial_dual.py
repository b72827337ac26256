"""Partial dualization along a certified mapping system.

Builds the left partial dual on the carrier C* # B from a certified
mapping system (zeta, gamma): a quasi-Hopf algebra whose multiplication,
comultiplication, associator, preantipode, and antipodes are all
assembled from structure constants and certified identity by identity.
The right partial dual lives on C (x) B* and is produced together with
the bit-exact duality pairing against the left side.  Both sides keep
their comultiplication and counit as a hopf.Coalgebra, as a Hopf algebra
does, so every reader takes the nonzeros of Delta from
Coalgebra.int_comult and none reshapes a Delta matrix or regroups its
tensor.

Both constructors assemble their maps on integer tables, as the
verifiers check them: each certified map is read once as leg images in
(support, den) form, the structure tensors are the stored tables (m, Delta,
B's int_coaction, C's int_action), and each structure map is a chain of
hopf's kernels over them (_leg_map, _permuted, _power_product, _kron,
_then, _stacked, and _by where a table is regrouped by another leg).
The product and Delta tables are handed to Algebra._of and
Coalgebra._of as they come out, cut by _cut where a chain yields one
flat tensor, and phi and phi^-1 to QuasiHopfAlgebra._of; the rest is
converted once into the Vector or Matrix that is stored.
Every reader of phi, the verifier, the transport checks, detect_hopf
and the documents, takes the stored tables, and so does ==; the dense
views are for the public API.  No constructor multiplies field scalars
itself.

The left constructor builds each structure map from one form and makes
no check of its own: it certifies the assembled object with
verify_quasi_hopf, the one statement of the quasi-Hopf axiom suite, and
returns that suite's checks as its report.  A second closed form of a
map would agree by an identity already certified, and left_partial_dual
gives the proof for each.  A failed identity raises CertificationError;
nothing is ever repaired silently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .hopf import (
    Algebra,
    CertificationError,
    Coalgebra,
    HopfAlgebra,
    LinMap,
    Report,
    _by,
    _comultiplicative,
    _cut,
    _flat_cols,
    _flat_rows,
    _kron,
    _leg_map,
    _legs_product,
    _multiplicative,
    _pairs,
    _permuted,
    _power_product,
    _same_values,
    _scale,
    _slice_mismatch,
    _stacked,
    _table,
    _then,
    _transposed,
    _unit_sides,
    convolution_inverse,
    verify_algebra,
    verify_coalgebra,
    verify_compatibility,
    verify_hopf,
    verify_quasi_bialgebra,
)
from .linalg import (
    Matrix,
    Sparse,
    Tensor3,
    Vector,
    _columns,
    _dense,
    _functional,
    _matrix,
    _same_field,
    _sparse,
)

if TYPE_CHECKING:  # annotations only: verifying a parsed document needs no pams
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
    whose Delta is only quasi-coassociative).  The associator and its
    inverse are stored once, flat in the triple tensor power, as
    `int_phi` and `int_phi_inv` in (support, den) form reduced by the
    field; the views `phi` and `phi_inv` build the dense Vectors on each
    read.  `t_map` is the preantipode, and `antipodes`, when present, is
    the pair of certified triples (S, alpha, beta).  When upsilon is not
    invertible `antipodes` is None, repr calls out the defect, and the
    report's antipode-availability check confirms that upsilon is indeed
    not invertible.

    The public constructor checks that phi and phi^-1 live over the
    field of the algebra and have dim^3 entries, and that T is dim x dim,
    and converts each associator once; a kernel output enters through the
    trusted _of, which takes the two tables as given.
    """

    __slots__ = ("algebra", "coalgebra", "int_phi", "int_phi_inv", "t_map", "upsilon", "antipodes", "pams", "report")

    def __init__(
        self, algebra: Algebra, coalgebra: Coalgebra, phi: Vector, phi_inv: Vector, t_map: Matrix, upsilon: Vector,
        antipodes: tuple[tuple[Matrix, Vector, Vector], tuple[Matrix, Vector, Vector]] | None, pams: Pams | None,
        report: Report,
    ):
        n = algebra.dim
        for v in (phi, phi_inv):
            _same_field(algebra.field, v.field, "multiplication and associator")
            if len(v) != n**3:
                raise ValueError(f"associator has {len(v)} entries, dimension {n} needs {n**3}")
        if (t_map.nrows, t_map.ncols) != (n, n):
            raise ValueError(f"preantipode is {t_map.nrows} x {t_map.ncols}, dimension {n} needs {n} x {n}")
        self._hold(algebra, coalgebra, _sparse(phi), _sparse(phi_inv), t_map, upsilon, antipodes, pams, report)

    @classmethod
    def _of(cls, algebra: Algebra, coalgebra: Coalgebra, int_phi: Sparse, int_phi_inv: Sparse, *rest) -> "QuasiHopfAlgebra":
        """The quasi-Hopf algebra whose phi and phi^-1 have the (support, den) forms
        int_phi and int_phi_inv, the rest as the constructor takes it, stored
        without a check: for kernel outputs only."""
        qh = object.__new__(cls)
        qh._hold(algebra, coalgebra, int_phi, int_phi_inv, *rest)
        return qh

    def _hold(self, algebra: Algebra, coalgebra: Coalgebra, *rest) -> None:
        """Set the slots in their order, phi and phi^-1 reduced by the field."""
        (phi, den), (bar, bar_den), *rest = rest
        tables = (algebra.field.reduce(phi), den), (algebra.field.reduce(bar), bar_den)
        for name, value in zip(self.__slots__, (algebra, coalgebra, *tables, *rest)):
            setattr(self, name, value)

    @property
    def phi(self) -> Vector:
        """The associator flat in the triple tensor power, built from int_phi."""
        return _dense(self.field, self.dim**3, self.int_phi)

    @property
    def phi_inv(self) -> Vector:
        """The inverse associator, built from int_phi_inv."""
        return _dense(self.field, self.dim**3, self.int_phi_inv)

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
            and _same_values(self.field, self.int_phi, other.int_phi)
            and _same_values(self.field, self.int_phi_inv, other.int_phi_inv)
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
        return self.coalgebra == other.coalgebra and self.algebra == other.algebra

    def __repr__(self) -> str:
        return f"CoquasiHopfAlgebra(dim={self.dim} over {self.field.descriptor})"


class HopfDetection:
    """Outcome of detect_hopf: `kind` is "hopf" or "strictly-quasi",
    `hopf` carries the Hopf algebra in the first case, and
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


def _products(alg: Algebra, factors) -> tuple[list, int]:
    """The products x y of the (support, den) pairs `factors`, as leg images."""
    return _table(_power_product(alg, 1, x, y) for x, y in factors)


def _antipode_axioms(
    qh: QuasiHopfAlgebra, s: Matrix, alpha: Vector, beta: Vector, associators, report: Report, prefix: str,
    preantipode=None,
) -> None:
    """The four antipode identities of qh for one (S, alpha, beta) triple,
    given qh's (phi, phi^-1) in (support, den) form; given preantipode =
    (the columns of T, upsilon) as integer forms, also beta alpha =
    upsilon and beta S(e_a) alpha = T(e_a)."""
    alg, field, nd = qh.algebra, qh.field, qh.dim
    (images, cden), pairs, one = qh.coalgebra.int_comult, _pairs(alg), _sparse(alg.unit)
    eps, eden = field.to_ints(qh.coalgebra.counit.entries)
    s, alpha, beta = _columns(s), _sparse(alpha), _sparse(beta)
    es, ss = [({i: 1}, 1) for i in range(nd)], [(col, s[1]) for col in s[0]]

    # the products every identity below is assembled from, once per triple:
    # e_i beta, alpha e_k, S(e_i) alpha and beta S(e_k)
    e_beta, alpha_e = _products(alg, ((e, beta) for e in es)), _products(alg, ((alpha, e) for e in es))
    s_alpha, beta_s = _products(alg, ((x, alpha) for x in ss)), _products(alg, ((beta, x) for x in ss))

    def check(name, text, sides, size=1):
        report.add(prefix + name, *_slice_mismatch(field, text.format, sides, size))

    def summed(maps, target):  # a -> (the product over Delta(e_a) through maps, eps(e_a) target)
        return lambda a: (_legs_product((images[a], cden), nd, maps, pairs), _scale(target, eps[a], eden))

    check("antipode-left", "basis {0}", summed((s_alpha, None), alpha), nd)
    check("antipode-right", "basis {0}", summed((e_beta, s), beta), nd)
    phi, bar = associators
    check("associator-antipode", "sum phi1 beta S(phi2) alpha phi3", lambda _: (
        _legs_product(phi, nd, (e_beta, s, alpha_e), pairs), one
    ))
    check("associator-inverse-antipode", "sum S(phibar1) alpha phibar2 beta S(phibar3)", lambda _: (
        _legs_product(bar, nd, (s_alpha, None, beta_s), pairs), one
    ))
    if preantipode is not None:
        (t_cols, tden), ups = preantipode
        check("upsilon-factorization", "beta alpha != upsilon", lambda _: (_power_product(alg, 1, beta, alpha), ups))
        check("preantipode-factorization", "basis {0}", lambda a: (
            _power_product(alg, 1, (beta_s[0][a], beta_s[1]), alpha), (t_cols[a], tden)
        ), nd)


def _derive_antipodes(alg: Algebra, t_map: Matrix, ups: Vector):
    """Both antipode triples carried by an invertible upsilon, or None:
    S1 = T(-) upsilon^-1 with (alpha, beta) = (upsilon, 1), and
    S2 = upsilon^-1 T(-) with (1, upsilon), products of T's columns."""
    try:
        upsinv = _sparse(alg.element_inverse(ups))
    except ValueError:
        return None
    nd, (cols, den) = alg.dim, _columns(t_map)

    def matrix(factors):
        return _matrix(alg.field, nd, nd, _stacked(_products(alg, factors), nd))

    s1 = matrix(((col, den), upsinv) for col in cols)
    s2 = matrix((upsinv, (col, den)) for col in cols)
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

    The maps are assembled on integer tables, as the module docstring
    says: m is one chain of leg maps; Delta is the products of the chains
    of its generators; phi and phi^-1 carry Delta(zetabar_u), or
    Delta(zeta_u), in H* through three leg maps; T carries
    Delta(zetabar_u) through iota, pi*, gammabar* and a product in C* # B.
    phi and phi^-1 are stored in the (support, den) form they are built
    in, and no dense list of dim^3 scalars is made.

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
    h, bsub, field, hs = q.parent, q.coideal, q.field, q.hstar
    n, bdim, cdim = h.dim, bsub.dim, q.dim
    nd = cdim * bdim
    action, coact = _stacked(q.int_action, n * cdim), bsub.int_coaction  # c_r <| h_i at (r, i, s); b_b at (b, m, k)

    # the certified maps as leg images: zeta and zetabar take e_m to sum zeta[u,m] b_u, their
    # transposes take u to zeta_u in H*; gamma takes c_t to gamma_t, its transpose h*_p to gamma*(h*_p)
    zeta, zbar = _columns(p.zeta.matrix), _columns(p.zeta_bar.matrix)
    zeta_t, zbar_t = _columns(p.zeta.matrix.transpose()), _columns(p.zeta_bar.matrix.transpose())
    gamma_t = _columns(p.gamma.matrix.transpose())
    eps_c, one_b = _sparse(q.coalgebra.counit), _sparse(bsub.unit)
    ebs = _table(_kron(eps_c, ({u: 1}, 1), bdim) for u in range(bdim))  # u -> eps # b_u
    f1 = _table(_kron(({t: 1}, 1), one_b, bdim) for t in range(cdim))  # t -> f_t # 1
    gbs1 = _then(_columns(p.gamma_bar.matrix.transpose()), f1)  # h*_r -> gammabar*(h*_r) # 1
    hs_rows, hs_cols = _flat_rows(hs.algebra), _flat_cols(hs.algebra)  # h*_k -> h*_k h*_m, h*_m h*_k at (m, r)

    # multiplication (f_a # b)(f_g # d) = sum f_a (b_(-1) harpoon f_g) # b_(0) d: the coaction of b_b at
    # (m, k), h_m harpoon f_g = sum f_s at (s, g), f_a f_s at (a, t) and b_k b_d at (d, e), to (a, b, g, d, t, e)
    m = _leg_map(_stacked(coact, n * bdim), (bdim, n, bdim), 1, cdim * cdim, _by(action, (cdim, n, cdim), (1, 0, 2)))
    m = _leg_map(m, (bdim, cdim, cdim, bdim), 1, cdim * cdim, _flat_cols(q.cstar))
    m = _leg_map(m, (bdim, cdim, cdim, cdim, bdim), 4, bdim * bdim, _flat_rows(bsub.algebra))
    m = _permuted(m, (bdim, cdim, cdim, cdim, bdim, bdim), (1, 0, 3, 4, 2, 5))
    alg = Algebra._of(field, _cut(m, nd * nd, nd), _dense(field, nd, _kron(eps_c, one_b, bdim)))
    pairs = _pairs(alg)

    # comultiplication on the generators: Delta(f_a # 1) = sum f_s # b_u (x) gamma*(h*_i zeta_u) # 1 over
    # rho(f_a) = sum f_s (x) h*_i, and Delta(eps # b) = sum eps # zeta(gamma_t h_m) (x) f_t # b_k over the
    # coaction h_m (x) b_k of b; g2 takes h*_i to sum_u e_u (x) gamma*(h*_i zeta_u) # 1 at (u, y)
    gs1 = _then(gamma_t, f1)  # h*_r -> gamma*(h*_r) # 1
    g2 = _table(_leg_map(_leg_map((row, hs_rows[1]), (n, n), 0, bdim, zeta), (bdim, n), 1, nd, gs1) for row in hs_rows[0])
    # and g3 takes h_m to sum_t eps # zeta(gamma_t h_m) (x) f_t at (j, t): e_p h_m at (p, r), gamma_t's
    # coordinates on leg p and eps # zeta(e_r) on leg r
    h_cols, ze = _flat_cols(h.algebra), _then(zeta, ebs)
    g3 = _table(
        _permuted(_leg_map(_leg_map((col, h_cols[1]), (n, n), 0, cdim, gamma_t), (cdim, n), 1, nd, ze), (cdim, nd), (1, 0))
        for col in h_cols[0]
    )
    rho = _by(action, (cdim, n, cdim), (2, 0, 1))
    d32 = [_leg_map((x, rho[1]), (cdim, n), 1, bdim * nd, g2) for x in rho[0]]
    d33 = [_leg_map((x, coact[1]), (n, bdim), 0, nd * cdim, g3) for x in coact[0]]
    # Delta(f_a # b) = Delta(f_a # 1) Delta(eps # b), a product in (C* # B)^(x)2
    pi = _columns(q.pi.matrix)
    pi_one = _leg_map(_sparse(h.unit), (n,), 0, cdim, pi)
    coalg = Coalgebra._of(
        field, _table(_power_product(alg, 2, x, y) for x in d32 for y in d33),
        _dense(field, nd, _kron(pi_one, _sparse(bsub.counit), bdim)),
    )

    # associator and its inverse: Delta(zetabar_u) (or Delta(zeta_u)) in H* at (u, j, k); e_k -> (v, y)
    # by leg3, the two legs (j, v) -> x by leg2, and u -> eps # b_u
    def associator(deltas, leg3, leg2):
        u = _leg_map(deltas, (bdim, n, n), 2, bdim * nd, leg3)
        return _leg_map(_leg_map(u, (bdim, n * bdim, nd), 1, nd, leg2), (bdim, nd, nd), 0, nd, ebs)

    dzbar = _stacked(_then(zbar_t, hs.coalgebra.int_comult), n * n)
    gbs = _then(_columns(hs.antipode_inverse()), gbs1)  # h*_j -> gammabar* S^-1(h*_j) # 1
    phi = associator(
        dzbar,
        _table(_leg_map(_leg_map((col, hs_cols[1]), (n, n), 0, bdim, zbar), (bdim, n), 1, nd, gbs) for col in hs_cols[0]),
        _products(alg, (((e, ebs[1]), (g, gbs[1])) for g in gbs[0] for e in ebs[0])),
    )
    phi_inv = associator(
        _stacked(_then(zeta_t, hs.coalgebra.int_comult), n * n),
        g2,
        _table(_kron((g, gamma_t[1]), ({v: 1}, 1), bdim) for g in gamma_t[0] for v in range(bdim)),
    )

    # preantipode: T(f_a # b) = sum_u (eps # b_u)(gammabar*(pi*(f_a) (iota(b) harpoon zetabar_u)) # 1), with
    # iota(b) harpoon zetabar_u = sum Delta(zetabar_u) at (j, k) with iota(b) on leg k: from Delta(zetabar_u)
    # at (u, j, k) to (u, j, b), pi*(f_a) h*_j at (a, r), gammabar*(h*_r) # 1 at y, then (eps # b_u) y at z
    pi_h = _table(_leg_map((col, hs_cols[1]), (n, n), 0, cdim, pi) for col in hs_cols[0])
    t = _leg_map(dzbar, (bdim, n, n), 2, bdim, _columns(bsub.iota.matrix.transpose()))
    t = _leg_map(_leg_map(t, (bdim, n, bdim), 1, cdim * n, pi_h), (bdim, cdim, n, bdim), 2, nd, gbs1)
    t = _leg_map(_permuted(t, (bdim, cdim, nd, bdim), (1, 3, 0, 2)), (cdim, bdim, bdim, nd), 2, nd, ebs)
    t = _leg_map(t, (nd, nd * nd), 1, nd, pairs)  # column a dim(B) + b at (column, z)
    t_map = _matrix(field, nd, nd, t)
    ups = _dense(field, nd, _leg_map(t, (nd, nd), 0, 1, _functional(alg.unit)))

    report = Report(f"left partial dual (dim {nd} over {field.descriptor})")
    qh = QuasiHopfAlgebra._of(alg, coalg, phi, phi_inv, t_map, ups, _derive_antipodes(alg, t_map, ups), p, report)
    report.checks.extend(verify_quasi_hopf(qh).checks)
    _raise_first(report, "axiom-failure")
    return qh


def _raise_first(report: Report, kind: str) -> None:
    """Raise the first failed check of report, named with its witness, as a CertificationError of this kind."""
    bad = report.failures()
    if bad:
        raise CertificationError(kind, f"{bad[0][0]}: {bad[0][1]}", report=report)


def verify_quasi_hopf(qh: QuasiHopfAlgebra) -> Report:
    """Run the intrinsic axiom suite on quasi-Hopf data from any source.

    This needs no mapping system, and left_partial_dual certifies
    through it: it checks exactly what the tuple (m, 1, Delta, eps, phi, T)
    must satisfy on its own, plus the axioms of both stored antipode
    triples when present.  Returns the report; inspect `.ok` or call
    `.raise_if_failed()`.  phi and phi^-1 are read as the tables
    int_phi and int_phi_inv, whose field the constructor has checked.
    """
    alg, coalg, associators = qh.algebra, qh.coalgebra, (qh.int_phi, qh.int_phi_inv)
    field, nd = alg.field, alg.dim
    parts = [(coalg, "comultiplication"), (qh.t_map, "preantipode"), (qh.upsilon, "upsilon")]
    parts += [(x, "antipode") for triple in qh.antipodes or () for x in triple]
    for v, what in parts:
        _same_field(field, v.field, "multiplication and " + what)
    report = Report("quasi-Hopf axioms")
    verify_algebra(alg, report)
    verify_compatibility(alg, coalg, report)
    verify_quasi_bialgebra(alg, coalg, *associators, report)

    # integer forms, once: T's columns, upsilon, 1, eps and Delta, and the tables
    # T(e_x e_y) = sum m[x,y,p] T(e_p) at x nd + y, and T as the two-leg tensor (b, t)
    t_map, ups, one, pairs = _columns(qh.t_map), _sparse(qh.upsilon), _sparse(alg.unit), _pairs(alg)
    (t_cols, tden), (images, cden) = t_map, coalg.int_comult
    eps, eden = field.to_ints(coalg.counit.entries)
    t_pair = [_leg_map((pair, 1), (nd,), 0, nd, t_map)[0] for pair in pairs[0]], pairs[1] * tden
    t_flat = {b * nd + t: x for b, col in enumerate(t_cols) for t, x in col.items()}
    spread = [{(b * nd + i) * nd + b: 1 for b in range(nd)} for i in range(nd)], 1  # e_i -> sum_b e_b (x) e_i (x) e_b

    report.add("upsilon-is-t-of-unit", *_slice_mismatch(field, "upsilon != T(1)".format, lambda _: (
        ups, _leg_map(one, (nd,), 0, nd, t_map)
    )))

    # slice a at (b, t): T(a_1 b) a_2 (left) or a_1 T(b a_2) (right) against eps(a) T(b), from
    # sum c e_b (x) e_i (x) e_b (x) e_j over Delta(e_a), with T(e_i e_b) or T(e_b e_j) on two legs
    def preantipode(dims, leg):
        def sides(a):
            spread_delta = _leg_map((images[a], cden), (nd, nd), 0, nd**3, spread)
            lhs = _leg_map(_leg_map(spread_delta, dims, leg, nd, t_pair), (nd, nd * nd), 1, nd, pairs)
            return lhs, _scale((t_flat, tden), eps[a], eden)
        return sides

    for side, dims, leg in (("left", (nd, nd * nd, nd), 1), ("right", (nd, nd, nd * nd), 2)):
        report.add(f"preantipode-{side}", *_slice_mismatch(
            field, "pair ({0},{1})".format, preantipode(dims, leg), nd, (nd, nd)
        ))

    report.add("preantipode-associator", *_slice_mismatch(field, "sum phi1 T(phi2) phi3".format, lambda _: (
        _legs_product(associators[0], nd, (None, t_map, None), pairs), one
    )))
    report.add("preantipode-associator-inverse", *_slice_mismatch(
        field, "sum T(phibar1) phibar2 T(phibar3) != T(eps#1)".format,
        lambda _: (_legs_product(associators[1], nd, (t_map, None, t_map), pairs), ups),
    ))

    available = (qh.antipodes is not None) == alg.is_invertible(qh.upsilon)
    report.add("antipode-availability", available, "antipodes vs upsilon invertibility")
    if qh.antipodes is not None:
        for label, (sm, alpha, beta) in zip(("s1", "s2"), qh.antipodes):
            _antipode_axioms(qh, sm, alpha, beta, associators, report, label + "-", (t_map, ups))
    return report


def right_partial_dual(p: Pams, left: QuasiHopfAlgebra | None = None) -> CoquasiHopfAlgebra:
    """Construct the right partial dual on C (x) B* and certify the exact
    duality against the left side, which is built first when not passed
    in.  Raises CertificationError with kind "duality-failure" if any
    pairing identity fails.

    The basis is c_t (x) b*_j at flat index t*dim(B)+j.  Both tensors
    are chains of leg maps over integer tables, as in left_partial_dual:
    Delta(c (x) b*) = sum (c_1 (x) (h*_i |> b*_1)) (x) ((c_2 <| h_i) (x)
    b*_2), and (c (x) b*)(c' (x) b*') = sum (c <| (zeta(b_1) harpoon
    gamma(c'_1))) (x) (zeta(b_2)(gamma(c'_2) -) |> b*'), summed over
    Delta(c), Delta(c'), the dual bases of H and H*, and Delta(b*) dual to
    the product of B."""
    if left is None:
        left = left_partial_dual(p)
    q = p.quotient
    h, bsub, field = q.parent, q.coideal, q.field
    n, bdim, cdim = h.dim, bsub.dim, q.dim
    nd = cdim * bdim
    # c_t <| h_i at (t, i, s); the coaction of b_t at (t, i, j), the action f_i |> b*_j = sum_t coaction[t, i, j] b*_t
    action, coaction = _stacked(q.int_action, n * cdim), _stacked(bsub.int_coaction, n * bdim)
    report = Report(f"right partial dual (dim {nd} over {field.descriptor})")
    mult_b = _stacked(_transposed(_pairs(bsub.algebra), bdim), bdim * bdim)  # b_a b_c = sum x b_u at (u, a, c)

    # comultiplication: Delta(c_p) at (s, t) beside b_a b_c at (u, a, c); b*_a -> f_i |> b*_a at (i, v),
    # then the two legs (t, i) -> c_t <| h_i at g, to (p, u, s, v, g, c)
    comult = _kron(_stacked(q.coalgebra.int_comult, cdim * cdim), mult_b, bdim**3)
    comult = _leg_map(comult, (cdim, cdim, cdim, bdim, bdim, bdim), 4, n * bdim, _by(coaction, (bdim, n, bdim), (2, 1, 0)))
    comult = _permuted(comult, (cdim, cdim, cdim, bdim, n, bdim, bdim), (0, 3, 1, 5, 2, 4, 6))
    comult = _leg_map(comult, (cdim, bdim, cdim, bdim, cdim * n, bdim), 4, cdim, _cut(action, cdim * n, cdim))

    # multiplication: b_a b_c at (u, a, c); b*_c's factor zeta_c(gamma_t h_y) at (t, y) and h*_y |> b*_v at
    # (v, j); c_t -> the (s, q) with c_s c_t in Delta(c_q); b*_a's factor: Delta(gamma_s) at (k, y) with
    # zeta_a on leg k, and c_pp <| h_y at (pp, i); to (pp, u, q, v, i, j)
    zeta, gamma_t = p.zeta.matrix, _columns(p.gamma.matrix.transpose())
    dz = _then(_columns(zeta.transpose()), q.hstar.coalgebra.int_comult)  # zeta_c -> Delta(zeta_c) in H*
    dg = _then(_columns(p.gamma.matrix), h.coalgebra.int_comult)  # c_s -> Delta(gamma_s)
    mult = _leg_map(mult_b, (bdim, bdim, bdim), 2, cdim * n, _table(
        _leg_map((x, dz[1]), (n, n), 0, cdim, gamma_t) for x in dz[0]
    ))
    mult = _leg_map(mult, (bdim, bdim, cdim, n), 3, bdim * bdim, _by(coaction, (bdim, n, bdim), (1, 2, 0)))
    mult = _leg_map(mult, (bdim, bdim, cdim, bdim, bdim), 2, cdim * cdim, _flat_cols(q.cstar))
    mult = _leg_map(mult, (bdim, bdim, cdim, cdim, bdim, bdim), 2, n * n, _table(
        _permuted((x, dg[1]), (n, n), (1, 0)) for x in dg[0]
    ))
    zeta_ak = _functional(Vector._of(field, [x for row in zeta.rows for x in row]))  # (a, k) -> zeta_a(e_k)
    mult = _leg_map(mult, (bdim, bdim * n, n, cdim, bdim, bdim), 1, 1, zeta_ak)
    mult = _leg_map(mult, (bdim, n, cdim, bdim, bdim), 1, cdim * cdim, _by(action, (cdim, n, cdim), (1, 0, 2)))
    mult = _permuted(mult, (bdim, cdim, cdim, cdim, bdim, bdim), (1, 0, 3, 4, 2, 5))

    counit_r = _dense(field, nd, _kron(_sparse(q.coalgebra.counit), _sparse(bsub.unit), bdim))
    pi_one = _leg_map(_sparse(h.unit), (n,), 0, cdim, _columns(q.pi.matrix))
    unit_r = _dense(field, nd, _kron(pi_one, _sparse(bsub.counit), bdim))

    coalg = Coalgebra._of(field, _cut(comult, nd, nd * nd), counit_r)
    verify_coalgebra(coalg, report)
    right = CoquasiHopfAlgebra(coalg, Algebra._of(field, _cut(mult, nd * nd, nd), unit_r), p, report)
    report.add("unit-law", *_slice_mismatch(field, "basis {0}".format, _unit_sides(right.algebra), nd))

    # exact duality with the left side under the flat pairing: each table of the left side
    # against the right side's other table _transposed, slice (i, j) at k and slice i at (j, k)
    def paired(lhs, rhs):
        return lambda i: ((lhs[0][i], lhs[1]), (rhs[0][i], rhs[1]))

    lual, lcoalg, entry = left.algebra, left.coalgebra, "entry ({0},{1},{2})".format
    report.add("multiplication-comultiplication-duality", *_slice_mismatch(
        field, lambda ij, k, *_: entry(*divmod(ij, nd), k),
        paired(_pairs(lual), _transposed(coalg.int_comult, nd * nd)), nd * nd, (nd,)
    ))
    report.add("comultiplication-multiplication-duality", *_slice_mismatch(
        field, entry, paired(lcoalg.int_comult, _transposed(_pairs(right.algebra), nd)), nd, (nd, nd)
    ))
    report.add("unit-counit-duality", lual.unit == counit_r, "unit vs counit")
    report.add("counit-unit-duality", lcoalg.counit == unit_r, "counit vs unit")

    _raise_first(report, "duality-failure")
    return right


def _transport_checks(q1: QuasiHopfAlgebra, q2: QuasiHopfAlgebra, m: Matrix, flip: bool, report: Report) -> None:
    """algebra-anti-map, unit-transport, comultiplication-transport,
    counit-transport, associator-transport and associator-inverse-transport
    of m from q1 to q2: m reverses products, keeps the unit and the counit,
    carries Delta to Delta and, on every leg, phi^-1 and phi to phi and
    phi^-1; with flip (biop) it carries Delta to Delta^op, and phi and
    phi^-1 with their legs reversed to phi and phi^-1."""
    report.add("algebra-anti-map", *_multiplicative(_flat_rows(q1.algebra), m, _pairs(q2.algebra), anti=True))
    report.add("unit-transport", m @ q1.algebra.unit == q2.algebra.unit, "unit")
    report.add("comultiplication-transport", *_comultiplicative(q1.coalgebra.int_comult, m, q2.coalgebra.int_comult, flip))
    report.add("counit-transport", m.transpose() @ q2.coalgebra.counit == q1.coalgebra.counit, "counit")
    dims3, cols = (m.ncols,) * 3, _columns(m)
    sources = [(q1.int_phi, "phi"), (q1.int_phi_inv, "phi inverse")] if flip else [
        (q1.int_phi_inv, "phi inverse to phi"), (q1.int_phi, "phi to phi inverse")
    ]
    for name, (u, text), target in zip(("associator", "associator-inverse"), sources, (q2.int_phi, q2.int_phi_inv)):
        u = _permuted(u, dims3, (2, 1, 0)) if flip else u
        for leg in range(3):
            u = _leg_map(u, dims3, leg, m.nrows, cols)
        report.add(name + "-transport", *_slice_mismatch(m.field, text.format, lambda _: (u, target)))


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

    _transport_checks(q1, q2, theta, True, report)
    report.add("upsilon-transport", theta @ q1.upsilon == q2.upsilon, "upsilon")
    report.add("preantipode-transport", theta @ q1.t_map @ theta_inv == q2.t_map, "preantipode")
    report.add(
        "antipode-availability-matches",
        (q1.antipodes is None) == (q2.antipodes is None),
        "one side lacks antipodes",
    )
    if q1.antipodes is not None:
        associators = q2.int_phi, q2.int_phi_inv
        for label, (sm, alpha, beta) in zip(("s1", "s2"), q1.antipodes):
            transported = theta @ sm @ theta_inv, theta @ beta, theta @ alpha
            _antipode_axioms(q2, *transported, associators, report, f"transported-{label}-")
    _raise_first(report, "mismatch")
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
    q, field, nd = q1.pams.quotient, q1.field, q1.dim
    bsub, cdim, bdim = q.coideal, q.dim, q.coideal.dim
    if q_op.dim != nd:
        raise CertificationError("mismatch", f"carrier dims {nd} and {q_op.dim} differ")
    report = Report("opposite comparison")

    ec = [Vector.basis(field, cdim, t) for t in range(cdim)]
    ebs = [q.cstar.unit.tensor(Vector.basis(field, bdim, u)) for u in range(bdim)]
    fbs = [ec[a].tensor(bsub.unit) for a in range(cdim)]
    cols = [q1.multiply(ebs[b], fbs[a]) for a in range(cdim) for b in range(bdim)]
    phim = Matrix.from_columns(field, cols, nrows=nd)

    # rho[a]: action[s, i, a] at (s, i); legs[b]: h*_m -> sum coaction[b, m, k] b*_k
    rho, rden = _by(_stacked(q.int_action, nd * cdim), (cdim, nd, cdim), (2, 0, 1))
    legs = [_cut((image, bsub.int_coaction[1]), nd, bdim) for image in bsub.int_coaction[0]]
    twisted = [_then(_columns(q.hstar.antipode_inverse()), leg) for leg in legs]

    def forms(i):  # column a bdim + b: rho[a] with twisted[b] on its leg i, at s bdim + k
        a, b = divmod(i, bdim)
        return _leg_map((rho[a], rden), (cdim, nd), 1, bdim, twisted[b]), (phims[0][i], phims[1])

    phims = _columns(phim)

    report.add("map-forms-agree", *_slice_mismatch(
        field, lambda i, *_: "basis ({0},{1})".format(*divmod(i, bdim)), forms, nd
    ))
    phim_inv = Matrix.from_columns(field, [
        _dense(field, nd, _leg_map((rho[a], rden), (cdim, nd), 1, bdim, leg)) for a in range(cdim) for leg in legs
    ], nrows=nd)
    ident = Matrix.identity(field, nd)
    report.add("mutually-inverse", phim @ phim_inv == ident and phim_inv @ phim == ident, "composite")

    _transport_checks(q1, q_op, phim, False, report)

    _raise_first(report, "mismatch")
    return report


def _sufficiency_diagnostics(p: Pams) -> dict[str, bool]:
    """Which of the three sufficient criteria for a trivial associator
    hold for this mapping system.  Purely informational.

    Only the (co)multiplicative halves of the bialgebra-map laws are
    checked: certify_pams checks their unit and counit halves as
    zeta-biunitary and gamma-biunitary.  As zeta iota = id_B, zeta is a
    coalgebra map into a subcoalgebra B exactly when iota zeta is one:
    then Delta iota(b) = Delta iota zeta iota(b) is in iota(B) (x)
    iota(B).  gamma pi is multiplicative exactly when B+ H = ker pi is a
    left ideal, making pi an algebra map onto C, and gamma is: gamma pi(h
    v) = gamma pi(h) gamma pi(v) = 0 for v in B+ H, and gamma is injective.
    """
    q, h = p.quotient, p.parent
    zm, gm, rows, deltas = p.zeta.matrix, p.gamma.matrix, _flat_rows(h.algebra), h.coalgebra.int_comult
    zeta_alg = _multiplicative(rows, zm, _pairs(q.coideal.algebra))[0]
    zeta_coalg = _comultiplicative(deltas, q.coideal.iota.matrix @ zm, deltas)[0]
    gamma_alg = _multiplicative(rows, gm @ q.pi.matrix, _pairs(h.algebra))[0]
    gamma_coalg = _comultiplicative(q.coalgebra.int_comult, gm, deltas)[0]
    return {
        "zeta-bialgebra-map": zeta_alg and zeta_coalg,
        "gamma-bialgebra-map": gamma_alg and gamma_coalg,
        "zeta-algebra-gamma-coalgebra": zeta_alg and gamma_coalg,
    }


def detect_hopf(qh: QuasiHopfAlgebra) -> HopfDetection:
    """Decide whether the constructed associator is trivial.

    When phi = 1 (x) 1 (x) 1 the carrier is an honest Hopf algebra with
    antipode the preantipode T itself, and upsilon = 1; otherwise the
    object is reported as strictly quasi.  Nothing is verified again: qh
    must carry the passed report of verify_quasi_hopf, as the result of
    left_partial_dual does, and at phi = 1 (x) 1 (x) 1 its checks are
    every check of verify_hopf, plus upsilon = 1:

    * verify_algebra and verify_compatibility are the same calls;
    * counit-law-left and counit-law-right are the two halves of
      counit-law;
    * quasi-coassociativity, phi (Delta (x) id)Delta(a) =
      (id (x) Delta)Delta(a) phi, is coassociativity;
    * preantipode-associator, sum phi1 T(phi2) phi3 = 1, is T(1) = 1,
      so upsilon = 1 by upsilon-is-t-of-unit;
    * preantipode-left, T(a_1 b) a_2 = eps(a) T(b), reads
      T(a_1) a_2 = eps(a) 1 at b = 1 by T(1) = 1, which is
      antipode-left for S = T; preantipode-right, a_1 T(b a_2) =
      eps(a) T(b), gives antipode-right the same way.

    Sufficient-criteria diagnostics for the mapping system ride along
    either way.  Raises ValueError when qh carries no mapping system or
    no passed report."""
    if qh.pams is None:
        raise ValueError("hopf detection needs the mapping system for its diagnostics")
    if not qh.report.checks or not qh.report.ok:
        raise ValueError("hopf detection needs a quasi-Hopf algebra that passed verify_quasi_hopf")
    diagnostics = _sufficiency_diagnostics(qh.pams)
    one = _sparse(qh.algebra.unit)
    one3 = _kron(_kron(one, one, qh.dim), one, qh.dim)  # 1 (x) 1 (x) 1
    trivial = _slice_mismatch(qh.field, "".format, lambda _: (qh.int_phi, one3))[0]
    rep = Report("hopf detection")
    rep.add("associator-trivial" if trivial else "associator-nontrivial", True)
    if not trivial:
        return HopfDetection("strictly-quasi", None, diagnostics, rep)
    hop = HopfAlgebra(qh.algebra, qh.coalgebra, qh.t_map, name="left partial dual")
    return HopfDetection("hopf", hop, diagnostics, rep)
