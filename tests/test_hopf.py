"""Hopf layer: axiom verification, duals, convolution, hit actions."""

import hashlib
import random
from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest

from partialdual import hopf
from partialdual.hopf import (
    Algebra,
    CertificationError,
    Coalgebra,
    HopfAlgebra,
    LinMap,
    Report,
    _by,
    _flat as flat_form,
    _support,
    biopposite,
    convolution_inverse,
    convolution_product,
    convolution_unit,
    coopposite,
    dual,
    opposite,
    power_multiply,
    tensor_apply,
    tensor_comult_leg,
    tensor_of,
    verify_hopf,
)
from partialdual.examples import cyclic, group_algebra, symmetric, taft4
from partialdual.linalg import QQ, FieldMismatchError, Matrix, ModInt, PrimeField, Tensor3, Vector, contract
from partialdual.serialize import serialize

# the largest prime below 2**31: residues and their products outgrow a machine word
BIG_PRIME = PrimeField(2147483647)


def cyclic_group_hopf(n, field=QQ):
    """Group algebra of Z/n on the group-like basis e_i = g^i."""
    mult = Tensor3.from_entries(
        field, (n, n, n), [(((i, j, (i + j) % n)), 1) for i in range(n) for j in range(n)]
    )
    comult = Tensor3.from_entries(field, (n, n, n), [(((i, i, i)), 1) for i in range(n)])
    counit = Vector(field, [1] * n)
    unit = Vector.basis(field, n, 0)
    antipode = Matrix(
        field,
        [[1 if i == (-j) % n else 0 for j in range(n)] for i in range(n)],
    )
    return HopfAlgebra(Algebra(field, mult, unit), Coalgebra(field, comult, counit), antipode, name=f"kC{n}")


def kc2_on_basis(c):
    """kC2 on the basis (1, c g): (c g)^2 = c^2 1, Delta(c g) = (1/c) (c g) (x) (c g)
    and eps(c g) = c, so a non-integral c puts denominators into the structure constants."""
    c = Fraction(c)
    mult = Tensor3.from_entries(QQ, (2, 2, 2), [((0, 0, 0), 1), ((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, 0), c * c)])
    comult = Tensor3.from_entries(QQ, (2, 2, 2), [((0, 0, 0), 1), ((1, 1, 1), 1 / c)])
    unit, counit = Vector.basis(QQ, 2, 0), Vector(QQ, [1, c])
    return HopfAlgebra(
        Algebra(QQ, mult, unit), Coalgebra(QQ, comult, counit), Matrix.identity(QQ, 2), name=f"kC2 on (1, {c} g)"
    )


def test_scaled_bases_of_kc2_are_hopf():
    for c in (Fraction(1, 2), 2):
        report = verify_hopf(kc2_on_basis(c))
        assert report.ok, report.render()


# (c, entry of Delta raised by one) -> the coassociativity and comult-algebra-map witnesses
FRACTIONAL_WITNESSES = {
    (Fraction(2, 3), (1, 0, 0)): ("at e1: coordinate 1: 3/2 != 0", "Delta(e1 e1): coordinate 0: 4/9 != 13/9"),
    (Fraction(1, 2), (1, 0, 1)): ("at e1: coordinate 5: 0 != 2", "Delta(e1 e1): coordinate 0: 1/4 != 1/2"),
}


@pytest.mark.parametrize("c, entry", list(FRACTIONAL_WITNESSES), ids=["c=2/3", "c=1/2"])
def test_comultiplication_witnesses_over_fractional_coordinates(c, entry):
    h = kc2_on_basis(c)
    data = [[list(row) for row in plane] for plane in h.comult.data]
    i, j, k = entry
    data[i][j][k] += 1
    broken = HopfAlgebra(h.algebra, Coalgebra(QQ, Tensor3(QQ, data), h.counit), h.antipode)
    failed = dict(verify_hopf(broken).failures())
    assert (failed["coassociativity"], failed["comult-algebra-map"]) == FRACTIONAL_WITNESSES[c, entry]


def test_hopf_algebra_rejects_parts_that_do_not_fit():
    h, f5 = cyclic_group_hopf(3), cyclic_group_hopf(3, PrimeField(5))
    k2 = cyclic_group_hopf(2)
    for algebra, coalgebra, antipode in (
        (h.algebra, f5.coalgebra, h.antipode),
        (h.algebra, k2.coalgebra, h.antipode),
        (h.algebra, h.coalgebra, k2.antipode),
        (h.algebra, h.coalgebra, f5.antipode),
    ):
        with pytest.raises(ValueError):
            HopfAlgebra(algebra, coalgebra, antipode)


def test_cyclic_group_algebras_are_hopf():
    for n in (2, 3, 4):
        report = verify_hopf(cyclic_group_hopf(n))
        assert report.ok, report.render()


def test_cyclic_group_algebra_mod_p():
    report = verify_hopf(cyclic_group_hopf(3, PrimeField(5)))
    assert report.ok, report.render()


def test_report_lines_have_pass_prefix():
    report = verify_hopf(cyclic_group_hopf(2))
    assert all(line.startswith("PASS ") for line in report.lines())
    assert "PASS" in report.render()


def test_broken_antipode_is_caught_with_witness():
    h = cyclic_group_hopf(3)
    broken = HopfAlgebra(h.algebra, h.coalgebra, Matrix.identity(QQ, 3), name="broken")
    report = verify_hopf(broken)
    assert not report.ok
    failed = dict(report.failures())
    assert "antipode-left" in failed
    assert "coordinate" in failed["antipode-left"]
    with pytest.raises(CertificationError) as err:
        report.raise_if_failed()
    assert err.value.report is report


# kC4 is commutative and cocommutative, so the flips fix it and S^{-1} = S;
# the other inputs are neither commutative nor cocommutative, or have S^2 != id
TRANSPORT_INPUTS = {
    "kC4": lambda: cyclic_group_hopf(4),
    "taft4-Q": lambda: taft4(QQ, 1)[0],
    "taft4-F5": lambda: taft4(PrimeField(5), 1)[0],
    "kS3": lambda: _s3(),
    "kS3-dual": lambda: dual(_s3()),
}


def test_dual_is_hopf_and_involutive():
    for name, build in TRANSPORT_INPUTS.items():
        h = build()
        hd = dual(h)
        assert verify_hopf(hd).ok, name
        assert dual(hd) == h, name


def test_dual_of_group_algebra_is_function_algebra():
    hd = dual(cyclic_group_hopf(3))
    # dual basis elements are orthogonal idempotents
    for i in range(3):
        for j in range(3):
            prod = hd.algebra.multiply(hd.basis(i), hd.basis(j))
            expected = hd.basis(i) if i == j else Vector.zero(QQ, 3)
            assert prod == expected
    assert hd.unit == Vector(QQ, [1, 1, 1])


def test_opposites_are_hopf_and_involutive():
    for name, build in TRANSPORT_INPUTS.items():
        h = build()
        for variant in (opposite, coopposite, biopposite):
            assert verify_hopf(variant(h)).ok, (name, variant.__name__)
            assert variant(variant(h)) == h, (name, variant.__name__)


def test_biopposite_composes_op_and_cop():
    for name, build in TRANSPORT_INPUTS.items():
        h = build()
        assert biopposite(h) == opposite(coopposite(h)) == coopposite(opposite(h)), name


def test_antipode_is_convolution_inverse_of_identity():
    for n in (2, 3, 4):
        h = cyclic_group_hopf(n)
        s = convolution_inverse(
            LinMap.identity(h.field, h.dim), h.coalgebra, h.algebra
        )
        assert s.matrix == h.antipode


def test_convolution_unit_is_neutral():
    h = cyclic_group_hopf(3)
    u = convolution_unit(h.coalgebra, h.algebra)
    s = LinMap(h.antipode)
    assert convolution_product(u, s, h.coalgebra, h.algebra) == s
    assert convolution_product(s, u, h.coalgebra, h.algebra) == s


def test_convolution_product_between_spaces_of_different_dimensions():
    """Hom(C, A) with dim C != dim A, both ways round: (f * g)(x) =
    sum f(x_1) g(x_2), summed here over the entries of Delta_C; factors
    over another field than A are refused."""
    rng = random.Random(23)
    s3, taft = group_algebra(symmetric(3), QQ), taft4(QQ, 1)[0]
    for c, a in ((taft.coalgebra, s3.algebra), (s3.coalgebra, taft.algebra)):
        f, g = (LinMap(Matrix(QQ, [[rng.randint(-2, 2) for _ in range(c.dim)] for _ in range(a.dim)])) for _ in "fg")
        expected = []
        for i in range(c.dim):
            col = Vector.zero(QQ, a.dim)
            for j, k in product(range(c.dim), repeat=2):
                col = col + a.multiply(f.column(j), g.column(k)).scale(c.comult[i, j, k])
            expected.append(col)
        assert convolution_product(f, g, c, a).matrix == Matrix.from_columns(QQ, expected, nrows=a.dim)
    zeros = [LinMap(Matrix.zeros(field, s3.dim, taft.dim)) for field in (QQ, PrimeField(7))]
    for factors in (zeros, zeros[::-1]):
        with pytest.raises(FieldMismatchError):
            convolution_product(*factors, taft.coalgebra, s3.algebra)


def test_convolution_inverse_rejects_non_invertible():
    h = cyclic_group_hopf(2)
    zero = LinMap(Matrix.zeros(QQ, 2, 2))
    with pytest.raises(CertificationError) as err:
        convolution_inverse(zero, h.coalgebra, h.algebra)
    assert err.value.kind == "not-convolution-invertible"


def test_convolution_inverse_names_a_one_sided_inverse():
    """In a non-associative unital algebra a right inverse need not be a
    left one: with e1 e2 = e0 (the unit) and e2 e1 = e1, f(c) = e1 on the
    group-like c has f * X = unit at X(c) = e2, but X * f = e1."""
    unit_law = [((0, i, i), 1) for i in range(3)] + [((i, 0, i), 1) for i in (1, 2)]
    mult = Tensor3.from_entries(QQ, (3, 3, 3), unit_law + [((1, 2, 0), 1), ((2, 1, 1), 1)])
    algebra = Algebra(QQ, mult, Vector.basis(QQ, 3, 0))
    coalgebra = Coalgebra(QQ, Tensor3.from_entries(QQ, (1, 1, 1), [((0, 0, 0), 1)]), Vector(QQ, [1]))
    f = LinMap(Matrix.from_columns(QQ, [Vector.basis(QQ, 3, 1)], nrows=3))
    with pytest.raises(CertificationError) as err:
        convolution_inverse(f, coalgebra, algebra)
    assert err.value.kind == "convolution-inverse-one-sided"


def test_element_inverse_in_group_algebra():
    h = cyclic_group_hopf(4)
    g = h.basis(1)
    assert h.algebra.element_inverse(g) == h.basis(3)
    with pytest.raises(ValueError):
        dual(h).algebra.element_inverse(dual(h).basis(0))


# --- flat tensor utilities ----------------------------------------------------


def test_permuted_and_tensor_apply():
    u = Vector(QQ, [1, 2, 3, 4, 5, 6])  # dims (2, 3)
    swapped = hopf._permuted(hopf._sparse(u), (2, 3), (1, 0))
    assert hopf._dense(QQ, 6, swapped) == Vector(QQ, [1, 4, 2, 5, 3, 6])
    doubled = tensor_apply(u, (2, 3), 0, Matrix(QQ, [[2, 0], [0, 2]]))
    assert doubled == u.scale(2)


# --- leg functions against digit walkers ---------------------------------------
#
# The reference decodes every flat index into its row-major digits, edits
# the digits and encodes them again.  It is kept here only, so the leg
# functions are checked against an indexing that shares no code with them.


def _ref_decode(idx, dims):
    digits = []
    for n in reversed(dims):
        digits.append(idx % n)
        idx //= n
    return tuple(reversed(digits))


def _ref_encode(digits, dims):
    idx = 0
    for d, n in zip(digits, dims):
        idx = idx * n + d
    return idx


def _ref_walk(u, dims, new_dims, images):
    """sum c e_{new digits} over the nonzeros c e_{digits} of u and the
    (new digits, w) in images(digits)."""
    out = [u.field.zero] * prod(new_dims)
    for idx, c in enumerate(u.entries):
        if c:
            for new_digits, w in images(_ref_decode(idx, dims)):
                j = _ref_encode(new_digits, new_dims)
                out[j] = out[j] + c * w
    return Vector(u.field, out)


def _ref_apply(u, dims, leg, m):
    new_dims = dims[:leg] + (m.nrows,) + dims[leg + 1 :]
    return _ref_walk(u, dims, new_dims, lambda d: [
        (d[:leg] + (r,) + d[leg + 1 :], m.rows[r][d[leg]]) for r in range(m.nrows) if m.rows[r][d[leg]]
    ])


def _ref_functional(u, dims, leg, phi):
    new_dims = dims[:leg] + dims[leg + 1 :]
    return _ref_walk(u, dims, new_dims, lambda d: [(d[:leg] + d[leg + 1 :], phi[d[leg]])] if phi[d[leg]] else [])


def _ref_permute(u, dims, perm):
    new_dims = tuple(dims[p] for p in perm)
    return _ref_walk(u, dims, new_dims, lambda d: [(tuple(d[p] for p in perm), u.field.one)])


def _ref_comult_leg(coalgebra, u, dims, leg):
    n = coalgebra.dim
    new_dims = dims[:leg] + (n, n) + dims[leg + 1 :]
    comult = coalgebra.comult.data
    return _ref_walk(u, dims, new_dims, lambda d: [
        (d[:leg] + (j, k) + d[leg + 1 :], comult[d[leg]][j][k])
        for j in range(n) for k in range(n) if comult[d[leg]][j][k]
    ])


LEG_DIMS = [(3,), (2, 3), (3, 1), (2, 3, 4), (4, 2, 3), (2, 3, 1, 2)]


def _flat_operands(field, size, rng):
    """zero, one basis vector, a sparse and a dense flat tensor."""
    sparse = [field.zero] * size
    for i in rng.sample(range(size), min(3, size)):
        sparse[i] = _scalar(field, rng)
    return [
        Vector.zero(field, size),
        Vector.basis(field, size, rng.randrange(size)),
        Vector(field, sparse),
        Vector(field, [_scalar(field, rng) for _ in range(size)]),
    ]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_leg_functions_match_digit_walkers(field):
    rng = random.Random(11)
    for dims in LEG_DIMS:
        for u in _flat_operands(field, prod(dims), rng):
            for leg, n in enumerate(dims):
                for rows in (n, n + 1):
                    sparse = [[field.zero] * n for _ in range(rows)]
                    sparse[rng.randrange(rows)][rng.randrange(n)] = _scalar(field, rng)
                    dense = [[_scalar(field, rng) for _ in range(n)] for _ in range(rows)]
                    for m in (Matrix(field, sparse, ncols=n), Matrix(field, dense, ncols=n)):
                        assert tensor_apply(u, dims, leg, m) == _ref_apply(u, dims, leg, m), (dims, leg, m)
                for phi in _flat_operands(field, n, rng):
                    paired = hopf._apply_leg(u, dims, leg, 1, hopf._functional(phi))
                    assert paired == _ref_functional(u, dims, leg, phi), (dims, leg)
            for perm in permutations(range(len(dims))):
                permuted = hopf._permuted(hopf._sparse(u), dims, perm)
                assert hopf._dense(field, len(u), permuted) == _ref_permute(u, dims, perm), (dims, perm)


def _check_comult_leg(coalgebra, rng):
    field, n = coalgebra.field, coalgebra.dim
    for dims in [(n,), (n, 3), (2, n), (n, 2, 3), (2, n, 3), (2, 3, n), (2, n, 1, 3)]:
        for u in _flat_operands(field, prod(dims), rng):
            for leg in [l for l, d in enumerate(dims) if d == n]:
                got = tensor_comult_leg(coalgebra, u, dims, leg)
                assert got == _ref_comult_leg(coalgebra, u, dims, leg), (dims, leg, u)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_comult_leg_matches_digit_walker_on_taft(field):
    # Taft-4 is not cocommutative, so a swapped pair of new legs shows
    _check_comult_leg(taft4(field, 1)[0].coalgebra, random.Random(12))


# Delta(g/2) = 2 (g/2) (x) (g/2) and Delta(2g) = 1/2 (2g) (x) (2g); over
# F_2147483647 the residues of -1 and of the operands are near 2**31
SCALED_COALGEBRAS = {
    "kC2-half": lambda: kc2_on_basis(Fraction(1, 2)).coalgebra,
    "kC2-double": lambda: kc2_on_basis(2).coalgebra,
    "taft4-F2147483647": lambda: taft4(BIG_PRIME, 1)[0].coalgebra,
}


@pytest.mark.parametrize("name", list(SCALED_COALGEBRAS))
def test_comult_leg_matches_digit_walker_with_denominators_and_large_residues(name):
    _check_comult_leg(SCALED_COALGEBRAS[name](), random.Random(13))


def test_leg_functions_reject_malformed_input():
    kc2 = cyclic_group_hopf(2)
    u = Vector(QQ, [1, 2, 3, 4, 5, 6])  # dims (2, 3)
    with pytest.raises(ValueError):  # five entries for dims (2, 3)
        tensor_apply(Vector(QQ, [1, 2, 3, 4, 5]), (2, 3), 0, Matrix.identity(QQ, 2))
    with pytest.raises(ValueError):  # three entries for dims (2,)
        tensor_comult_leg(kc2.coalgebra, Vector(QQ, [1, 2, 3]), (2,), 0)


def _ref_kron(legs, dims):
    """The Kronecker product entry by entry: the product of legs[l][d_l]
    over the digits of each flat index."""
    field = legs[0].field
    entries = []
    for idx in range(prod(dims)):
        x = field.one
        for leg, d in zip(legs, _ref_decode(idx, dims)):
            x = x * leg[d]
        entries.append(x)
    return Vector(field, entries)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_tensor_of_and_vector_tensor_are_the_kronecker_product(field):
    rng = random.Random(13)
    for dims in [(3,), (2, 3), (3, 1), (3, 3), (2, 3, 4), (2, 3, 1, 2), (2, 2, 2)]:
        pools = [_flat_operands(field, n, rng) for n in dims]
        for _ in range(12):
            legs = [rng.choice(pool) for pool in pools]
            kron = _ref_kron(legs, dims)
            assert tensor_of(legs) == kron, dims
            chained = legs[0]
            for leg in legs[1:]:
                chained = chained.tensor(leg)
            assert chained == kron, dims
            assert all(type(x) is type(field.zero) for x in chained.entries), dims


SUPPORT_DIMS = [(3,), (2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (1, 1, 1, 1), (2, 2, 2, 2), (2, 3, 4), (4, 1, 3), (3, 2)]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_support_matches_digit_walker(field):
    """_support decodes a (support, den) form, inserted in shuffled order, into
    the leg indices and ints of its nonzeros in flat order, on equal and on
    unequal leg lengths."""
    rng = random.Random(14)
    for dims in SUPPORT_DIMS:
        operands = _flat_operands(field, prod(dims), rng) + [_ref_kron([_flat_operands(field, n, rng)[2] for n in dims], dims)]
        for u in operands:
            support, den = hopf._sparse(u)
            keys = list(support)
            rng.shuffle(keys)
            got = _support(({i: support[i] for i in keys}, den), dims)
            expected = [(_ref_decode(idx, dims), c) for idx, c in enumerate(u.entries) if c]
            assert [index for index, _ in got] == [index for index, _ in expected], (dims, u)
            assert field.from_ints([x for _, x in got], den) == [c for _, c in expected], (dims, u)


def _ref_grouped(t, axis):
    """Walk the other two legs in lexicographic order for each index on `axis`."""
    other = t.dims[:axis] + t.dims[axis + 1 :]
    out = []
    for d in range(t.dims[axis]):
        group = []
        for idx in range(prod(other)):
            rest = _ref_decode(idx, other)
            c = t[rest[:axis] + (d,) + rest[axis:]]
            if c:
                group.append((rest, c))
        out.append(group)
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_grouped_matches_nonzero_and_digit_walker(field):
    """_by(_flat(t), t.dims, perm) regroups the nonzeros of t by leg perm[0]
    as the digit walker does, on every axis, and a public Coalgebra groups
    its Delta by the first leg."""
    rng = random.Random(16)
    h, b, _ = taft4(field, 1)
    tensors = [h.mult, h.comult, b.coaction, b.mult, Tensor3.zeros(field, (2, 3, 1))]
    for dims in [(2, 3, 4), (3, 1, 2)]:
        for density in (0.3, 1.0):
            data = [
                [[_scalar(field, rng) if rng.random() < density else 0 for _ in range(dims[2])] for _ in range(dims[1])]
                for _ in range(dims[0])
            ]
            tensors.append(Tensor3(field, data))
    for t in tensors:
        nonzero = list(t.nonzero())
        for axis in range(3):
            others = [leg for leg in range(3) if leg != axis]
            table, den = _by(flat_form(t), t.dims, [axis] + others)
            width = t.dims[others[1]]
            groups = [
                [(divmod(key, width), field.from_ints([x], den)[0]) for key, x in sorted(image.items())]
                for image in table
            ]
            assert groups == _ref_grouped(t, axis), (t, axis)
            assert sorted(
                (rest[:axis] + (d,) + rest[axis:], c) for d, group in enumerate(groups) for rest, c in group
            ) == nonzero, (t, axis)
        if len(set(t.dims)) == 1:  # a cubic tensor can be a comultiplication
            n = t.dims[0]
            images, den = Coalgebra(field, t, Vector.zero(field, n)).int_comult
            values = [zip(image, field.from_ints(list(image.values()), den)) for image in images]
            assert [[(divmod(idx, n), x) for idx, x in group] for group in values] == _ref_grouped(t, 0), t


def test_power_multiply_in_tensor_square():
    h = cyclic_group_hopf(2)
    g = h.basis(1)
    gg = g.tensor(g)
    assert power_multiply(h.algebra, 2, gg, gg) == h.unit.tensor(h.unit)



# --- products against dense references ------------------------------------------
#
# Algebra.multiply and power_multiply both run _power_product over
# Algebra.int_terms.  The oracle for a single product is the dense
# left-multiplication matrix contracted from the dense view `mult`, kept
# here only.  An operand of
# power_multiply is a list of pure tensors (c, [x_1, ..., x_k]) standing
# for sum c x_1 (x) ... (x) x_k; its reference multiplies two of them
# leg by leg with the dense oracle and reassembles with tensor_of, so it
# shares nothing with the kernel but bilinearity.


def _dense_product(algebra, u, v):
    return contract(algebra.mult, 0, u).transpose() @ v


def _scalar(field, rng):
    if field is QQ and rng.random() < 0.5:
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((2, 3, 5)))
    return field.coerce(rng.choice((-3, -2, -1, 1, 2, 3)))


def _basis_tensor(field, n, digits):
    return [Vector.basis(field, n, d) for d in digits]


def _operands(field, n, k, rng):
    """zero, sparse, dense (every flat index) when small, and dense of rank 2."""
    ops = {
        "zero": [],
        "sparse": [
            (_scalar(field, rng), _basis_tensor(field, n, [rng.randrange(n) for _ in range(k)]))
            for _ in range(3)
        ],
        "dense": [
            (_scalar(field, rng), [Vector(field, [_scalar(field, rng) for _ in range(n)]) for _ in range(k)])
            for _ in range(2)
        ],
    }
    if n**k <= 36:
        ops["dense-full"] = [
            (_scalar(field, rng), _basis_tensor(field, n, [(i // n**(k - 1 - l)) % n for l in range(k)]))
            for i in range(n**k)
        ]
    return ops


def _flat(field, n, k, terms):
    out = [field.zero] * n**k
    for c, legs in terms:
        for i, x in enumerate(tensor_of([Vector(field, [c])] + legs)):
            if x:
                out[i] = out[i] + x
    return Vector(field, out)


def _reference_product(algebra, k, us, vs):
    field = algebra.field
    legs = {}

    def leg(x, y):
        key = (x.entries, y.entries)
        if key not in legs:
            legs[key] = _dense_product(algebra, x, y)
        return legs[key]

    terms = [
        (cu * cv, [leg(x, y) for x, y in zip(xs, ys)])
        for cu, xs in us
        for cv, ys in vs
    ]
    return _flat(field, algebra.dim, k, terms)


def _in_basis(algebra, columns):
    """The same algebra on the basis whose vectors are the columns of `columns`."""
    field, n = algebra.field, algebra.dim
    p = Matrix(field, columns)
    back = p.inverse()
    basis = [p.column(i) for i in range(n)]
    mult = [[list(back @ _dense_product(algebra, x, y)) for y in basis] for x in basis]
    return Algebra(field, Tensor3(field, mult), back @ algebra.unit)


def _s3():
    return group_algebra(symmetric(3), QQ)


POWER_ALGEBRAS = {
    "taft4-Q": lambda: taft4(QQ, 1)[0].algebra,
    "taft4-F5": lambda: taft4(PrimeField(5), 1)[0].algebra,
    "kS3": lambda: _s3().algebra,
    "kS3-dual": lambda: dual(_s3()).algebra,
    # basis (1, 2 + g): (2 + g)^2 = 4 (2 + g) - 3, so a product of basis
    # elements can have more than one term
    "kC2-tilted": lambda: _in_basis(cyclic_group_hopf(2).algebra, [[1, 2], [0, 1]]),
    # basis (2, g): the unit is b_0 / 2, a denominator in the unit
    "kC2-unit-half": lambda: _in_basis(cyclic_group_hopf(2).algebra, [[2, 0], [0, 1]]),
    # (g/2)^2 = 1/4: a denominator in the structure constants
    "kC2-half": lambda: kc2_on_basis(Fraction(1, 2)).algebra,
    # the basis whose comultiplication has the constant 1/2 (its products are integral)
    "kC2-double": lambda: kc2_on_basis(2).algebra,
    "taft4-F2147483647": lambda: taft4(BIG_PRIME, 1)[0].algebra,
}


@pytest.mark.parametrize("name", list(POWER_ALGEBRAS))
def test_power_multiply_matches_leg_by_leg_reference(name):
    algebra = POWER_ALGEBRAS[name]()
    field, n = algebra.field, algebra.dim
    for k in range(5):
        ops = _operands(field, n, k, random.Random(100 * k + n))
        flat = {a: _flat(field, n, k, terms) for a, terms in ops.items()}
        for a, us in ops.items():
            for b, vs in ops.items():
                if a.startswith("dense") and b.startswith("dense") and n**k > 256:
                    continue  # the group algebra makes every one of ~10^6 pairs contribute
                got = power_multiply(algebra, k, flat[a], flat[b])
                assert got == _reference_product(algebra, k, us, vs), (name, k, a, b)


def test_power_multiply_dense_four_legs_of_function_algebra():
    # e_i e_j = delta_ij e_i: of the dense pairs only the diagonal ones contribute
    algebra = POWER_ALGEBRAS["kS3-dual"]()
    ops = _operands(QQ, 6, 4, random.Random(7))
    us, vs = ops["dense"], ops["dense"][::-1]
    u, v = _flat(QQ, 6, 4, us), _flat(QQ, 6, 4, vs)
    assert power_multiply(algebra, 4, u, v) == _reference_product(algebra, 4, us, vs)


def test_power_multiply_allocates_one_residue_per_nonzero_of_the_result(monkeypatch):
    """The kernel computes on int residues: the only ModInt it constructs
    are the nonzero entries of its result."""
    field = PrimeField(5)
    algebra = taft4(field, 1)[0].algebra
    rng = random.Random(3)
    u, v = (Vector(field, [_scalar(field, rng) for _ in range(4**3)]) for _ in range(2))
    built = []
    init = ModInt.__init__

    def counting_init(self, value, p):
        built.append(value)
        init(self, value, p)

    monkeypatch.setattr(ModInt, "__init__", counting_init)
    result = power_multiply(algebra, 3, u, v)
    monkeypatch.undo()
    nonzeros = sum(1 for x in result if x)
    assert 0 < len(built) <= nonzeros


# --- the sparse (support, den) kernels against the dense references --------------
#
# The kernels are reached through the module, so that a test can swap one
# of them for a mutant; each mutant must make _check_sparse_kernels fail.

F5 = PrimeField(5)
SPARSE_ALGEBRAS = ["kC2-half", "kC2-double", "kC2-tilted", "kC2-unit-half", "taft4-F5", "taft4-F2147483647"]
# (field, lhs, rhs, whether their values agree) for hopf._comparable
COMPARISONS = [
    (QQ, ({0: 1, 2: 3}, 2), ({0: 2, 2: 6}, 4), True),  # 1/2 e_0 + 3/2 e_2 over two denominators
    (QQ, ({0: 1}, 2), ({0: 1}, 3), False),
    (QQ, ({0: 0, 1: 3}, 3), ({1: 1}, 1), True),  # a zero left in a support
    (F5, ({0: 7, 1: 5}, 1), ({0: 2}, 1), True),  # raw ints differ, residues agree
    (F5, ({0: 7}, 1), ({0: 3}, 1), False),
    (F5, ({0: 1}, 2), ({0: 3}, 1), True),  # 1/2 = 3 in F_5
    (BIG_PRIME, ({0: -1, 1: 2**31}, 1), ({0: 2147483646, 1: 1}, 1), True),
    # equal denominators, which are only reduced
    (QQ, ({0: 2, 1: 0, 2: 9}, 6), ({0: 2, 2: 9}, 6), True),
    (QQ, ({0: 1}, 3), ({0: 2}, 3), False),
    (F5, ({0: 7, 1: 5}, 2), ({0: 2}, 2), True),
    (F5, ({0: 1}, 3), ({0: 6}, 3), True),
    (F5, ({0: 1}, 3), ({0: 2}, 3), False),
]


def _unit_law_broken(algebra):
    """algebra with 1 added to the coefficient of e_0 in e_i e_{n-1}, e_i in
    the support of the unit: 1 e_{n-1} is no longer e_{n-1}."""
    field, n, mult = algebra.field, algebra.dim, algebra.mult
    i = next(j for j, x in enumerate(algebra.unit) if x)
    data = [[list(row) for row in plane] for plane in mult.data]
    data[i][n - 1][0] += field.one
    broken = Algebra(field, Tensor3(field, data, dims=mult.dims), algebra.unit)
    report = Report("broken unit")
    hopf.verify_algebra(broken, report)
    assert "unit-law" in dict(report.failures())
    return broken


def _check_unit_legs(algebra, rng):
    """_power_product over _with_unit, with a unit leg inserted into one operand
    at every position, against the product with the unit expanded by _kron: the
    same ints and den, for k = 2..4 and the unit's operand on either side."""
    field, n = algebra.field, algebra.dim
    au, one = hopf._with_unit(algebra), hopf._sparse(algebra.unit)
    for k in range(2, 5):
        t = hopf._sparse(Vector(field, [_scalar(field, rng) for _ in range(n ** (k - 1))]))
        x = hopf._tree(n, k, hopf._sparse(_flat_operands(field, n**k, rng)[2 if k == 4 else 3]))
        for leg in range(k):
            perm = [*range(leg), k - 1, *range(leg, k - 1)]
            expanded = hopf._tree(n, k, hopf._permuted(hopf._kron(t, one, n), (n,) * k, perm))
            with_unit = hopf._unit_leg(hopf._tree(n, k - 1, t)[0], leg, n), t[1] * one[1]
            for pair, ref in (((with_unit, x), (expanded, x)), ((x, with_unit), (x, expanded))):
                flat = hopf._power_product(algebra, k, *ref)
                assert hopf._power_product(au, k, *pair) == flat, (k, leg)
                assert hopf._power_product(au, k, *pair, tree=True) == hopf._tree(n, k, flat), (k, leg)


# Delta(e_d) = SPLIT_TABLE[d] / 3 on two legs of length 3, at j 3 + m: the images
# of e_0, e_1 and e_2 collide on every r but 0, and with equal coefficients
# they sum to 0 at r = 1 over Q and to 5 = 0 in F_5 at r = 2, 4 and 8
SPLIT_TABLE = [{1: 2, 2: 1, 4: 6}, {1: -2, 2: 4, 8: 3}, {0: 1, 4: -1, 8: 2}], 3


def _check_split_trees(field, rng):
    """_split_tree on every leg of two and three legs against _tree of
    _leg_map: the same ints, zeros of colliding images included, and den,
    so also the same reduced ints; the operand tree is left as it was."""
    n = 3
    for k in (2, 3):
        ones = Vector(field, [1] * n**k)  # every image collides with the other two
        for u in [ones] + _flat_operands(field, n**k, rng):
            flat = hopf._sparse(u)
            tree = hopf._tree(n, k, flat)
            for leg in range(k):
                got = hopf._split_tree(tree, k, leg, SPLIT_TABLE)
                ref = hopf._leg_map(flat, (n,) * k, leg, n * n, SPLIT_TABLE)
                assert got == hopf._tree(n, k + 1, ref), (field, k, leg, u)
                leaves = dict(_leaves(got[0], k + 1, n))
                assert (field.reduce(leaves), got[1]) == (field.reduce(ref[0]), ref[1]), (field, k, leg, u)
                assert u is not ones or len(field.reduce(leaves)) < len(leaves), "no image summed to zero"
            assert tree == hopf._tree(n, k, flat), (field, k)


def _check_sparse_kernels():
    """Raise AssertionError unless _power_product (on reused trees, on bare
    supports at k = 1, over the unit legs of _with_unit, and handing its
    product on as a tree), _split_tree, _leg_map, _kron and _comparable agree
    with the dense references."""
    for field in (QQ, F5):
        _check_split_trees(field, random.Random(5))
    for field, lhs, rhs, equal in COMPARISONS:
        sides = hopf._comparable(field, lhs, rhs)
        assert (sides[0] == sides[1]) == equal, (field, lhs, rhs)
    # a mismatch over one den renders its values over that den
    for field, text in ((QQ, "1/3 != 2/3"), (F5, "2 != 4")):
        assert hopf._slice_mismatch(field, "{1} != {2}".format, lambda _: (({0: 1}, 3), ({0: 2}, 3))) == (False, text)
    for name in SPARSE_ALGEBRAS:
        algebra = POWER_ALGEBRAS[name]()
        field, n = algebra.field, algebra.dim
        for k in range(1, 5):
            ops = _operands(field, n, k, random.Random(10 * k + n))
            flat = {a: _flat(field, n, k, terms) for a, terms in ops.items()}
            # each operand's tree is built once and serves every pair it is in; at k = 1
            # the supports go to the direct path as they are
            trees = {a: hopf._tree(n, k, hopf._sparse(u)) if k > 1 else hopf._sparse(u) for a, u in flat.items()}
            pairs = [("zero", "dense"), ("sparse", "zero"), ("sparse", "dense"), ("dense", "sparse"), ("dense", "dense")]
            for a, b in pairs:
                got = hopf._power_product(algebra, k, trees[a], trees[b])
                ref = _reference_product(algebra, k, ops[a], ops[b])
                assert hopf._dense(field, n**k, got) == ref, (name, k, a, b)
                lhs, rhs = hopf._comparable(field, got, hopf._sparse(ref))
                assert lhs == rhs, (name, k, a, b)
                # the product handed on as a tree is the tree of the flat product
                assert hopf._power_product(algebra, k, trees[a], trees[b], tree=True) == hopf._tree(n, k, got)
            assert trees == {a: hopf._tree(n, k, hopf._sparse(u)) for a, u in flat.items()}, (name, k)
        for a in (algebra, _unit_law_broken(algebra)):
            _check_unit_legs(a, random.Random(n))
        # one to four legs, one of them split by a coalgebra with denominators (Q) or large residues
        coalgebra = (kc2_on_basis(Fraction(1, 2)) if field is QQ else taft4(field, 1)[0]).coalgebra
        c, rng = coalgebra.dim, random.Random(n)
        for dims in [(c,), (2, c), (c, 3, 1), (2, 1, c, 2)]:
            for u, v in zip(_flat_operands(field, prod(dims), rng), _flat_operands(field, 3, rng)):
                kron = hopf._kron(hopf._sparse(u), hopf._sparse(v), 3)
                assert hopf._dense(field, len(u) * 3, kron) == u.tensor(v), (name, dims)
                for leg, d in enumerate(dims):
                    m = Matrix(field, [[_scalar(field, rng) for _ in range(d)] for _ in range(2)])
                    images = hopf._int_supports(field, [[(r, m.rows[r][col]) for r in range(2)] for col in range(d)])
                    got = hopf._leg_map(hopf._sparse(u), dims, leg, 2, images)
                    assert hopf._dense(field, len(u) // d * 2, got) == _ref_apply(u, dims, leg, m), (name, dims, leg)
                leg = dims.index(c)
                got = hopf._leg_map(hopf._sparse(u), dims, leg, c * c, coalgebra.int_comult)
                assert hopf._dense(field, len(u) * c, got) == _ref_comult_leg(coalgebra, u, dims, leg), (name, dims)


def test_sparse_kernels_match_dense_references():
    _check_sparse_kernels()


def _unreduced(self, support):  # drops the zeros, keeps the ints as they are
    return {i: x for i, x in support.items() if x}


def _denominator_dropped(field, lhs, rhs):
    return (field.reduce(lhs[0]), 1), (field.reduce(rhs[0]), 1)


def _shifted_kron(u, v, width):  # the support of v shifted by width - 1 per index of u
    return {i * (width - 1) + j: x * y for i, x in u[0].items() for j, y in v[0].items()}, u[1] * v[1]


def _unit_assumed(a):  # e_i 1 = e_i and 1 e_j = e_j taken for granted, not read from the table
    n, (terms, den), d1 = a.dim, a.int_terms, hopf._sparse(a.unit)[1]
    rows = [[*row, {i: d1 * den}] for i, row in enumerate(terms)] + [[{j: d1 * den} for j in range(n)]]
    view = object.__new__(Algebra)
    hopf._set_slots(view, field=a.field, dim=n, unit=a.unit, int_terms=(rows, den))
    return view


def _leaves(node, depth, n, base=0):
    """(flat index, int) for every leaf of a prefix tree of `depth` levels over legs of length n."""
    for d, x in node.items():
        if depth == 1:
            yield base * n + d, x
        else:
            yield from _leaves(x, depth - 1, n, base * n + d)


def _split_overwriting(t, k, leg, images):  # a colliding image replaces the one before it, not added to it
    (table, den), n = images, len(images[0])
    inner, out = n ** (k - 1 - leg), {}
    for idx, c in _leaves(t[0], k, n):
        outer, rest = divmod(idx, n * inner)
        d, low = divmod(rest, inner)
        for r, w in table[d].items():
            out[(outer * n * n + r) * inner + low] = c * w
    return hopf._tree(n, k + 1, (out, t[1] * den))


MUTANTS = {
    "no-mod-p-reduction": (PrimeField, "reduce", _unreduced),
    "unit-law-assumed": (hopf, "_with_unit", _unit_assumed),
    "split-overwrites-collisions": (hopf, "_split_tree", _split_overwriting),
    "dropped-denominator": (hopf, "_comparable", _denominator_dropped),
    "wrong-kronecker-shift": (hopf, "_kron", _shifted_kron),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_sparse_kernel_checks_catch_mutants(mutant, monkeypatch):
    owner, name, fake = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, fake)
    with pytest.raises(AssertionError):
        _check_sparse_kernels()


def _vectors(field, n, rng):
    """zero, every basis vector, two-term sparse vectors, and dense ones."""
    out = [Vector.zero(field, n)] + [Vector.basis(field, n, i) for i in range(n)]
    for _ in range(3):
        entries = [field.zero] * n
        for i in rng.sample(range(n), min(2, n)):
            entries[i] = _scalar(field, rng)
        out.append(Vector(field, entries))
    out += [Vector(field, [_scalar(field, rng) for _ in range(n)]) for _ in range(3)]
    return out


@pytest.mark.parametrize("name", list(POWER_ALGEBRAS))
def test_algebra_multiply_matches_dense_contract(name):
    algebra = POWER_ALGEBRAS[name]()
    field, n = algebra.field, algebra.dim
    vectors = _vectors(field, n, random.Random(n))
    es = [algebra.basis(i) for i in range(n)]
    for u in vectors:
        for v in vectors:
            assert algebra.multiply(u, v) == _dense_product(algebra, u, v), (name, u, v)
        left, right = algebra.left_mult_matrix(u), algebra.right_mult_matrix(u)
        for j in range(n):
            assert left.column(j) == algebra.multiply(u, es[j]), (name, u, j)
            assert right.column(j) == algebra.multiply(es[j], u), (name, u, j)


def test_algebra_multiply_rejects_mixed_fields_and_wrong_lengths():
    algebra = cyclic_group_hopf(3).algebra
    one = algebra.unit
    residue = Vector.basis(PrimeField(5), 3, 0)
    for u, v in ((one, residue), (residue, one)):
        with pytest.raises(FieldMismatchError):
            algebra.multiply(u, v)
    short = Vector.basis(QQ, 2, 0)
    for u, v in ((one, short), (short, one)):
        with pytest.raises(ValueError):
            algebra.multiply(u, v)


# SHA-256 over the documents of dual, opposite, coopposite, biopposite and
# dual of dual, in that order, for each parent of TRANSPORT_PARENTS in turn
TRANSPORT_DIGEST = "c921ccf19b60979fdf723d9b5fe31103c3ce2e84055f126df989555d38bce927"
TRANSPORT_PARENTS = [
    lambda: taft4(QQ, 1)[0],
    lambda: taft4(PrimeField(7), 3)[0],
    lambda: group_algebra(symmetric(3), QQ),
    lambda: group_algebra(symmetric(3), PrimeField(7)),
    lambda: group_algebra(cyclic(4), PrimeField(7)),
]


def test_transport_documents_are_pinned():
    digest = hashlib.sha256()
    for parent in TRANSPORT_PARENTS:
        h = parent()
        for t in (dual(h), opposite(h), coopposite(h), biopposite(h), dual(dual(h))):
            digest.update(serialize(t).encode())
    assert digest.hexdigest() == TRANSPORT_DIGEST


def test_power_multiply_rejects_operands_of_the_wrong_length():
    """Each operand must have length dim**k; a longer one is not read past
    dim**k as a wrapped index."""
    algebra = cyclic_group_hopf(2).algebra
    for k, (lu, lv) in ((0, (5, 4)), (0, (1, 2)), (1, (3, 2)), (1, (2, 3)), (2, (5, 4)), (2, (4, 3))):
        u = Vector.basis(QQ, lu, lu - 1)
        v = Vector.basis(QQ, lv, 0)
        with pytest.raises(ValueError):
            power_multiply(algebra, k, u, v)
    one = Vector.basis(QQ, 1, 0)
    assert power_multiply(algebra, 0, one, one) == one


def test_trusted_constructors_match_the_public_ones_over_a_scaled_denominator():
    """Algebra._of and Coalgebra._of take a table over any den: the tables of
    kC2 on the basis (1, 2 g), scaled to den 6 (from 1 and 2), give the
    objects that the public constructors build from the dense tensors.  The
    trusted constructors are the subject here, so they are called as plain
    functions, as the counting tests call Vector._of."""
    h = kc2_on_basis(2)
    (terms, den), (images, cden) = h.algebra.int_terms, h.coalgebra.int_comult
    assert (den, cden) == (1, 2)

    def scaled(table, den):
        return [{k: x * (6 // den) for k, x in image.items()} for image in table], 6

    algebra = Algebra.__dict__["_of"].__func__(Algebra, QQ, scaled([p for row in terms for p in row], den), h.unit)
    coalgebra = Coalgebra.__dict__["_of"].__func__(Coalgebra, QQ, scaled(images, cden), h.counit)
    assert (algebra.int_terms[1], coalgebra.int_comult[1]) == (6, 6)
    assert algebra == h.algebra and h.algebra == algebra and coalgebra == h.coalgebra
    assert algebra.mult == h.mult and coalgebra.comult == h.comult
    vectors = [h.unit, h.basis(1), Vector(QQ, [Fraction(1, 3), -2])]
    for u in vectors:
        assert algebra.left_mult_matrix(u) == h.algebra.left_mult_matrix(u)
        assert coalgebra.comultiply(u) == h.coalgebra.comultiply(u)
        for v in vectors:
            assert algebra.multiply(u, v) == h.algebra.multiply(u, v)
    assert verify_hopf(HopfAlgebra(algebra, coalgebra, h.antipode)).ok
