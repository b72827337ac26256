"""Concrete input builders: groups, group algebras, the Taft algebra,
matched pairs and their bismash products, and split-projection systems.

Each builder hands its product and Delta to `Algebra._of` and
`Coalgebra._of` as integer tables (e_i e_j at i dim + j, Delta(e_i) flat
at j dim + k), so none builds a dense tensor.  The groups validate
themselves, and `group_algebra` is Hopf by construction: it is not
verified here, and `certify_coideal` verifies every parent of the
pipeline.  `taft4` and `matched_pair_hopf` certify a coideal and so verify
H on every call, `bismash_product` runs `verify_hopf` on its result, and
every mapping system returned is certified by `certify_pams`.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Sequence

from partialdual.coideal import CoidealSubalgebra, build_quotient, certify_coideal
from partialdual.coideal import _certify_inclusion, _dual_section
from partialdual.hopf import (
    Algebra,
    CertificationError,
    Coalgebra,
    HopfAlgebra,
    LinMap,
    _comultiplicative,
    _flat_rows,
    _multiplicative,
    _pairs,
    biopposite,
    dual,
    tensor_apply,
    verify_hopf,
)
from partialdual.linalg import QQ, Field, Matrix, Vector, nullspace
from partialdual.pams import Pams, certify_pams, gamma_from_zeta

__all__ = [
    "FiniteGroup",
    "MatchedPair",
    "bismash_product",
    "cyclic",
    "direct_product_pair",
    "group_algebra",
    "matched_pair_hopf",
    "pams_from_split_projection",
    "s3_pair",
    "symmetric",
    "taft4",
]


class FiniteGroup:
    """A finite group as a multiplication table over indices 0..order-1.

    The table is validated on construction: associativity, a two-sided
    identity and two-sided inverses.
    """

    def __init__(self, table: Sequence[Sequence[int]], name: str = ""):
        m = len(table)
        self.table = tuple(tuple(row) for row in table)
        self.name = name
        if any(len(row) != m for row in self.table):
            raise ValueError("multiplication table is not square")
        if any(not 0 <= x < m for row in self.table for x in row):
            raise ValueError("multiplication table entry out of range")
        identity = None
        for e in range(m):
            if all(self.table[e][i] == i and self.table[i][e] == i for i in range(m)):
                identity = e
                break
        if identity is None:
            raise ValueError("no two-sided identity element")
        self.identity = identity
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise ValueError(f"associativity fails at ({i}, {j}, {k})")
        inv = []
        for i in range(m):
            found = None
            for j in range(m):
                if self.table[i][j] == identity and self.table[j][i] == identity:
                    found = j
                    break
            if found is None:
                raise ValueError(f"element {i} has no inverse")
            inv.append(found)
        self.inverses = tuple(inv)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self.inverses[i]

    def direct_product(self, other: "FiniteGroup") -> "FiniteGroup":
        """Pairs (a, b) indexed a * other.order + b."""
        m2 = other.order
        size = self.order * m2
        table = [
            [
                self.mul(i // m2, j // m2) * m2 + other.mul(i % m2, j % m2)
                for j in range(size)
            ]
            for i in range(size)
        ]
        name = f"{self.name}x{other.name}" if self.name and other.name else ""
        return FiniteGroup(table, name=name)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"FiniteGroup(order={self.order}{label})"


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    return FiniteGroup(
        [[(i + j) % n for j in range(n)] for i in range(n)], name=f"C{n}"
    )


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters; elements are permutation tuples in
    lexicographic order, composed as (s t)(x) = s(t(x))."""
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    table = [
        [index[tuple(s[t[x]] for x in range(n))] for t in elems] for s in elems
    ]
    return FiniteGroup(table, name=f"S{n}")


def group_algebra(g: FiniteGroup, field: Field) -> HopfAlgebra:
    """The group algebra kG on the group-like basis: e_i e_j = e_{ij},
    Delta(e_i) = e_i (x) e_i and S(e_i) = e_{i^-1}."""
    m = g.order
    mult = [{g.mul(i, j): 1} for i in range(m) for j in range(m)], 1
    comult = [{i * m + i: 1} for i in range(m)], 1
    antipode = Matrix(field, [[int(i == g.inverse(j)) for j in range(m)] for i in range(m)])
    unit, counit = Vector.basis(field, m, g.identity), Vector(field, [1] * m)
    algebra, coalgebra = Algebra._of(field, mult, unit), Coalgebra._of(field, comult, counit)
    return HopfAlgebra(algebra, coalgebra, antipode, name=f"k[{g.name}]" if g.name else "group algebra")


def taft4(field: Field, lam: object) -> tuple[HopfAlgebra, CoidealSubalgebra, LinMap]:
    """The 4-dimensional Taft algebra with its canonical coideal datum.

    Basis (1, g, x, xg) with g*g = 1, x*x = 0, x g = -g x, g group-like
    and x (g, 1)-skew-primitive.  B is the coideal subalgebra spanned by
    1 and x, and the returned map sends 1 -> 1, g -> 1 + lam*x and both
    x, xg -> x; each value of lam gives a different admissible system.
    """
    if field.characteristic == 2:
        raise ValueError("the Taft algebra needs characteristic different from 2")
    lam = field.coerce(lam)
    # e_i e_j at 4 i + j
    mult = [
        {0: 1}, {1: 1}, {2: 1}, {3: 1},  # 1 e_j = e_j
        {1: 1}, {0: 1}, {3: -1}, {2: -1},  # g g = 1, g x = -xg, g xg = -x
        {2: 1}, {3: 1}, {}, {},  # x g = xg, x x = 0
        {3: 1}, {2: 1}, {}, {},  # xg g = x
    ], 1
    # Delta(e_i), e_j (x) e_k at 4 j + k
    comult = [
        {0: 1},  # 1 (x) 1
        {5: 1},  # g (x) g
        {6: 1, 8: 1},  # Delta x = g (x) x + x (x) 1
        {3: 1, 13: 1},  # Delta xg = 1 (x) xg + xg (x) g
    ], 1
    antipode = Matrix(field, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])  # S(x) = xg, S(xg) = -x
    unit, counit = Vector.basis(field, 4, 0), Vector(field, [1, 1, 0, 0])
    algebra, coalgebra = Algebra._of(field, mult, unit), Coalgebra._of(field, comult, counit)
    h = HopfAlgebra(algebra, coalgebra, antipode, name="taft4")
    iota = LinMap(Matrix(field, [[1, 0], [0, 0], [0, 1], [0, 0]]))
    b = certify_coideal(h, iota)
    zeta = LinMap(Matrix(field, [[1, 1, 0, 0], [0, lam, 1, 1]]))
    return h, b, zeta


class MatchedPair:
    """A matched pair of finite groups (F, G) with mutual actions.

    `act_on_f[x][b]` is x |> b in F and `act_on_g[x][b]` is x <| b in G;
    `field` is the coefficient field the builders use.  Construction
    validates the unit conditions and both compatibility laws, then builds
    the double cross product group on F x G, whose associativity is
    re-checked independently by FiniteGroup.
    """

    def __init__(
        self,
        f: FiniteGroup,
        g: FiniteGroup,
        act_on_f: Sequence[Sequence[int]],
        act_on_g: Sequence[Sequence[int]],
        field: Field = QQ,
    ):
        self.f = f
        self.field = field
        self.g = g
        self.act_on_f = tuple(tuple(row) for row in act_on_f)
        self.act_on_g = tuple(tuple(row) for row in act_on_g)
        nf, ng = f.order, g.order
        if len(self.act_on_f) != ng or any(len(r) != nf for r in self.act_on_f):
            raise ValueError("act_on_f must be a |G| x |F| table")
        if len(self.act_on_g) != ng or any(len(r) != nf for r in self.act_on_g):
            raise ValueError("act_on_g must be a |G| x |F| table")
        ef, eg = f.identity, g.identity
        for b in range(nf):
            if self.act_on_f[eg][b] != b or self.act_on_g[eg][b] != eg:
                raise ValueError("identity of G must act trivially")
        for x in range(ng):
            if self.act_on_f[x][ef] != ef or self.act_on_g[x][ef] != x:
                raise ValueError("identity of F must be fixed")
        for x in range(ng):
            for b in range(nf):
                for c in range(nf):
                    lhs = self.act_on_f[x][f.mul(b, c)]
                    rhs = f.mul(self.act_on_f[x][b], self.act_on_f[self.act_on_g[x][b]][c])
                    if lhs != rhs:
                        raise ValueError(f"action on F incompatible at ({x}, {b}, {c})")
        for x in range(ng):
            for y in range(ng):
                for b in range(nf):
                    lhs = self.act_on_g[g.mul(x, y)][b]
                    rhs = g.mul(self.act_on_g[x][self.act_on_f[y][b]], self.act_on_g[y][b])
                    if lhs != rhs:
                        raise ValueError(f"action on G incompatible at ({x}, {y}, {b})")
        self.group = self.bowtie()

    def bowtie(self) -> FiniteGroup:
        """The double cross product F |><| G on pairs (b, x) at index
        b * |G| + x, with (b, x)(c, y) = (b (x |> c), (x <| c) y)."""
        nf, ng = self.f.order, self.g.order
        size = nf * ng
        table = []
        for i in range(size):
            b, x = divmod(i, ng)
            row = []
            for j in range(size):
                c, y = divmod(j, ng)
                row.append(
                    self.f.mul(b, self.act_on_f[x][c]) * ng
                    + self.g.mul(self.act_on_g[x][c], y)
                )
            table.append(row)
        name = f"{self.f.name}|><|{self.g.name}" if self.f.name and self.g.name else ""
        return FiniteGroup(table, name=name)

    def __repr__(self) -> str:
        return f"MatchedPair(F={self.f!r}, G={self.g!r})"


def s3_pair() -> MatchedPair:
    """C2 and C3 matched so that the double cross product is S3: the
    action on F is trivial and the transposition inverts the 3-cycle."""
    f = cyclic(2)
    g = cyclic(3)
    act_on_f = [[b for b in range(2)] for _ in range(3)]
    act_on_g = [[x if b == 0 else (-x) % 3 for b in range(2)] for x in range(3)]
    return MatchedPair(f, g, act_on_f, act_on_g)


def direct_product_pair(f: FiniteGroup, g: FiniteGroup) -> MatchedPair:
    """Both actions trivial; the double cross product is F x G."""
    act_on_f = [[b for b in range(f.order)] for _ in range(g.order)]
    act_on_g = [[x for _ in range(f.order)] for x in range(g.order)]
    return MatchedPair(f, g, act_on_f, act_on_g)


def matched_pair_hopf(m: MatchedPair, field: Field) -> tuple[HopfAlgebra, CoidealSubalgebra, Pams]:
    """The group algebra of the double cross product with its canonical
    certified system: B = kF along b -> (b, 1), the quotient is kG with
    projection (b, y) -> y and section y -> (1, y), and the retraction
    is zeta(b, y) = b, a left B-module map since (b, y) = (b, 1)(1, y)."""
    h = group_algebra(m.group, field)
    nf, ng = m.f.order, m.g.order
    n = nf * ng

    def columns(images: Sequence[int], rows: int) -> LinMap:  # the map e_j -> e_{images[j]}
        return LinMap(Matrix.from_columns(field, [Vector.basis(field, rows, i) for i in images], nrows=rows))

    bsub = certify_coideal(h, columns([b * ng + m.g.identity for b in range(nf)], n))
    pi, lift = columns([i % ng for i in range(n)], ng), columns([m.f.identity * ng + y for y in range(ng)], n)
    q = build_quotient(bsub, pi=pi, lift=lift)
    p = certify_pams(q, columns([i // ng for i in range(n)], nf))
    return h, bsub, p


def bismash_product(m: MatchedPair, field: Field) -> HopfAlgebra:
    """The bismash product k^G # kF of a matched pair, from the closed
    formulas on the basis p_x # b at index x * |F| + b, the antipode
    included: S(p_x # b) = p_{(x <| b)^-1} # (x |> b)^-1 (Takeuchi, Comm.
    Algebra 9, 1981).  The whole structure is verified on the way out."""
    nf, ng = m.f.order, m.g.order
    n = ng * nf
    mult: list[dict[int, int]] = [{} for _ in range(n * n)]  # (p_x # b)(p_y # c) = p_x # bc when y = x <| b
    for x, b, c in product(range(ng), range(nf), range(nf)):
        mult[(x * nf + b) * n + m.act_on_g[x][b] * nf + c] = {x * nf + m.f.mul(b, c): 1}
    comult = [
        {(m.g.mul(x, m.g.inverse(y)) * nf + m.act_on_f[y][b]) * n + y * nf + b: 1 for y in range(ng)}
        for x in range(ng) for b in range(nf)
    ]
    unit = Vector(field, [int(i % nf == m.f.identity) for i in range(n)])
    counit = Vector(field, [int(i // nf == m.g.identity) for i in range(n)])
    algebra, coalgebra = Algebra._of(field, (mult, 1), unit), Coalgebra._of(field, (comult, 1), counit)
    s = Matrix.from_columns(field, [
        Vector.basis(field, n, m.g.inverse(m.act_on_g[x][b]) * nf + m.f.inverse(m.act_on_f[x][b]))
        for x in range(ng) for b in range(nf)
    ], nrows=n)
    h = HopfAlgebra(algebra, coalgebra, s, name="bismash")
    report = verify_hopf(h)
    if not report.ok:
        raise CertificationError("bismash-internal", report.failures()[0][0], report)
    return h


def pams_from_split_projection(
    h: HopfAlgebra, a: HopfAlgebra, pi: LinMap, gamma: LinMap
) -> Pams:
    """A certified system from a split projection of Hopf algebras.

    `pi`: H -> A and `gamma`: A -> H must be bialgebra maps with
    pi gamma = id (kind "not-hopf-maps" otherwise).  B is carved out as
    the coinvariants of (id (x) pi) Delta, the quotient is identified
    with A along pi, and the retraction is reconstructed through the
    dual side, where gamma transposes into a retraction datum.  Raises
    kind "not-split" when the quotient does not match A.
    """
    field = h.field
    n = h.dim
    na = a.dim
    if pi.matrix.nrows != na or pi.matrix.ncols != n:
        raise CertificationError("not-hopf-maps", "pi has the wrong shape")
    if gamma.matrix.nrows != n or gamma.matrix.ncols != na:
        raise CertificationError("not-hopf-maps", "gamma has the wrong shape")

    def is_bialgebra_map(src: HopfAlgebra, dst: HopfAlgebra, f: LinMap) -> str:
        m, rows, deltas = f.matrix, _flat_rows(src.algebra), src.coalgebra.int_comult
        for ok, witness in (
            (f(src.unit) == dst.unit, "unit"),
            _multiplicative(rows, m, _pairs(dst.algebra), witness="multiplicativity at ({0}, {1})".format),
            _comultiplicative(deltas, m, dst.coalgebra.int_comult, witness="comultiplicativity at {0}".format),
        ):
            if not ok:
                return witness
        for i in range(src.dim):
            if dst.counit.dot(f.column(i)) != src.counit[i]:
                return f"counit at {i}"
        return ""

    bad = is_bialgebra_map(h, a, pi)
    if bad:
        raise CertificationError("not-hopf-maps", f"pi: {bad}")
    bad = is_bialgebra_map(a, h, gamma)
    if bad:
        raise CertificationError("not-hopf-maps", f"gamma: {bad}")
    if pi.matrix @ gamma.matrix != Matrix.identity(field, na):
        raise CertificationError("not-hopf-maps", "pi gamma is not the identity")

    # B is the space of coinvariants {x : sum x_1 (x) pi(x_2) = x (x) pi(1)}
    one = pi(h.unit)
    iota = LinMap(nullspace(Matrix.from_columns(field, [
        tensor_apply(h.coalgebra.comultiply_flat(e), (n, n), 1, pi.matrix) - e.tensor(one)
        for e in map(h.basis, range(n))
    ], nrows=n * na)).transpose())
    bsub = certify_coideal(h, iota)
    try:
        q = build_quotient(bsub, pi=pi, lift=gamma)
    except CertificationError as e:
        raise CertificationError("not-split", f"{e.kind}: {e.witness}") from e

    # retraction through the dual side
    # biop(dual(h)) of the h certify_coideal verified above is Hopf by construction
    b2 = _certify_inclusion(biopposite(dual(h)), LinMap(pi.matrix.transpose()))
    q2 = build_quotient(
        b2,
        pi=LinMap(bsub.iota.matrix.transpose()),
        lift=LinMap(_dual_section(q)),
    )
    g2 = gamma_from_zeta(q2, LinMap(gamma.matrix.transpose()))
    zeta = LinMap(g2.matrix.transpose())
    return certify_pams(q, zeta)
