"""Hopf layer: axiom verification, duals, convolution, hit actions."""

import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest

from partialdual.hopf import (
    Algebra,
    CertificationError,
    HopfAlgebra,
    LinMap,
    _grouped,
    _support,
    _weighted_sum,
    biopposite,
    convolution_inverse,
    convolution_product,
    convolution_unit,
    coopposite,
    dual,
    hit_actions,
    hit_left,
    hit_right,
    opposite,
    power_multiply,
    tensor_apply,
    tensor_comult_leg,
    tensor_functional,
    tensor_of,
    tensor_permute,
    verify_hopf,
)
from partialdual.examples import group_algebra, symmetric, taft4
from partialdual.linalg import QQ, FieldMismatchError, Matrix, PrimeField, Tensor3, Vector, _kron_acc, contract


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
    return HopfAlgebra(field, mult, unit, comult, counit, antipode, name=f"kC{n}")


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
    broken = HopfAlgebra(
        h.field,
        h.mult,
        h.unit,
        h.comult,
        h.counit,
        Matrix.identity(QQ, 3),
        name="broken",
    )
    report = verify_hopf(broken)
    assert not report.ok
    failed = dict(report.failures())
    assert "antipode-left" in failed
    assert "coordinate" in failed["antipode-left"]
    with pytest.raises(CertificationError) as err:
        report.raise_if_failed()
    assert err.value.report is report


def test_dual_is_hopf_and_involutive():
    h = cyclic_group_hopf(3)
    hd = dual(h)
    assert verify_hopf(hd).ok
    assert dual(hd) == h


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
    h = cyclic_group_hopf(4)
    for variant in (opposite, coopposite, biopposite):
        k = variant(h)
        assert verify_hopf(k).ok, variant.__name__
        assert variant(variant(h)) == h


def test_biopposite_composes_op_and_cop():
    h = cyclic_group_hopf(4)
    assert biopposite(h) == opposite(coopposite(h))


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


def test_convolution_inverse_rejects_non_invertible():
    h = cyclic_group_hopf(2)
    zero = LinMap(Matrix.zeros(QQ, 2, 2))
    with pytest.raises(CertificationError) as err:
        convolution_inverse(zero, h.coalgebra, h.algebra)
    assert err.value.kind == "not-convolution-invertible"


def test_hit_actions_on_group_likes():
    h = cyclic_group_hopf(3)
    hstar = Vector(QQ, [2, 5, 7])
    for i in range(3):
        g = h.basis(i)
        left, right = hit_actions(h, hstar, g)
        # group-likes rescale by the functional value on both sides
        assert left == g.scale(hstar[i])
        assert right == g.scale(hstar[i])
        assert left == hit_left(h, hstar, g)
        assert right == hit_right(h, g, hstar)


def test_element_inverse_in_group_algebra():
    h = cyclic_group_hopf(4)
    g = h.basis(1)
    assert h.algebra.element_inverse(g) == h.basis(3)
    with pytest.raises(ValueError):
        dual(h).algebra.element_inverse(dual(h).basis(0))


# --- flat tensor utilities ----------------------------------------------------


def test_tensor_permute_and_apply():
    u = Vector(QQ, [1, 2, 3, 4, 5, 6])  # dims (2, 3)
    swapped = tensor_permute(u, (2, 3), (1, 0))
    assert swapped == Vector(QQ, [1, 4, 2, 5, 3, 6])
    doubled = tensor_apply(u, (2, 3), 0, Matrix(QQ, [[2, 0], [0, 2]]))
    assert doubled == u.scale(2)


def test_tensor_functional_removes_leg():
    u = Vector(QQ, [1, 2, 3, 4, 5, 6])  # dims (2, 3)
    phi = Vector(QQ, [1, 1, 1])
    assert tensor_functional(u, (2, 3), 1, phi) == Vector(QQ, [6, 15])


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
                    assert tensor_functional(u, dims, leg, phi) == _ref_functional(u, dims, leg, phi), (dims, leg)
            for perm in permutations(range(len(dims))):
                assert tensor_permute(u, dims, perm) == _ref_permute(u, dims, perm), (dims, perm)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_comult_leg_matches_digit_walker_on_taft(field):
    # Taft-4 is not cocommutative, so a swapped pair of new legs shows
    coalgebra = taft4(field, 1)[0].coalgebra
    rng = random.Random(12)
    for dims in [(4,), (4, 3), (2, 4), (4, 2, 3), (2, 4, 3), (2, 3, 4), (2, 4, 1, 3)]:
        for u in _flat_operands(field, prod(dims), rng):
            for leg in [l for l, n in enumerate(dims) if n == 4]:
                got = tensor_comult_leg(coalgebra, u, dims, leg)
                assert got == _ref_comult_leg(coalgebra, u, dims, leg), (dims, leg, u)


def test_leg_functions_reject_malformed_input():
    kc2 = cyclic_group_hopf(2)
    u = Vector(QQ, [1, 2, 3, 4, 5, 6])  # dims (2, 3)
    with pytest.raises(ValueError):  # five entries for dims (2, 3)
        tensor_apply(Vector(QQ, [1, 2, 3, 4, 5]), (2, 3), 0, Matrix.identity(QQ, 2))
    with pytest.raises(ValueError):  # seven entries for dims (2, 3)
        tensor_functional(Vector(QQ, [1] * 7), (2, 3), 1, Vector(QQ, [1, 1, 1]))
    with pytest.raises(ValueError):  # three entries for dims (2,)
        tensor_comult_leg(kc2.coalgebra, Vector(QQ, [1, 2, 3]), (2,), 0)
    with pytest.raises(ValueError):
        tensor_permute(Vector(QQ, [1, 2, 3, 4, 5]), (2, 3), (1, 0))
    for perm in ((0, 0), (1,), (0, 1, 2), (1, 2)):
        with pytest.raises(ValueError):
            tensor_permute(u, (2, 3), perm)


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
def test_kron_acc_adds_the_kronecker_product(field):
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
            start = [_scalar(field, rng) for _ in range(len(kron))]
            for c in (field.zero, field.one, _scalar(field, rng)):
                out = list(start)
                _kron_acc(out, c, *legs)
                assert out == [s + c * x for s, x in zip(start, kron.entries)], (dims, c)


SUPPORT_SHAPES = [(3, 1), (2, 2), (3, 2), (2, 3), (3, 3), (1, 4), (2, 4)]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_support_matches_digit_walker(field):
    rng = random.Random(14)
    for n, k in SUPPORT_SHAPES:
        dims = (n,) * k
        operands = _flat_operands(field, n**k, rng) + [_ref_kron(_flat_operands(field, n, rng)[2:3] * k, dims)]
        for u in operands:
            expected = [(_ref_decode(idx, dims), c) for idx, c in enumerate(u.entries) if c]
            assert _support(u, n, k) == expected, (n, k, u)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_weighted_sum_matches_dense_sum(field):
    rng = random.Random(15)
    width = 4
    for n, k in SUPPORT_SHAPES:
        dims = (n,) * k
        # term(*digits) is a fixed vector per flat index, zero for some of them
        table = [rng.choice(_flat_operands(field, width, rng)) for _ in range(n**k)]

        def term(*digits):
            return table[_ref_encode(digits, dims)]

        for u in _flat_operands(field, n**k, rng):
            expected = Vector.zero(field, width)
            for idx in range(n**k):
                expected = expected + table[idx].scale(u[idx])
            assert _weighted_sum(field, width, _support(u, n, k), term) == expected, (n, k, u)


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
            groups = _grouped(t, axis)
            assert groups == _ref_grouped(t, axis), (t, axis)
            assert sorted(
                (rest[:axis] + (d,) + rest[axis:], c) for d, group in enumerate(groups) for rest, c in group
            ) == nonzero, (t, axis)


def test_power_multiply_in_tensor_square():
    h = cyclic_group_hopf(2)
    g = h.basis(1)
    gg = g.tensor(g)
    assert power_multiply(h.algebra, 2, gg, gg) == h.unit.tensor(h.unit)



# --- products against dense references ------------------------------------------
#
# Algebra.multiply and power_multiply both read Algebra.terms.  The
# oracle for a single product is the dense left-multiplication matrix
# built from the multiplication tensor, kept here only.  An operand of
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
