"""Differential oracle: the pipeline over Q, reduced mod 7, is the pipeline over F_7.

Every structure constant of a group algebra is an integer, so for a
coideal subalgebra kK of kG the whole construction can be run over Q and
over F_7 from the same cointegral: the one find_cointegral returns over
Q, reduced mod 7.  Each tensor of both partial duals must then agree
after reduction, entry by entry.
"""

import json
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from partialdual.coideal import build_quotient, certify_coideal
from partialdual.examples import cyclic, group_algebra, symmetric
from partialdual.hopf import LinMap
from partialdual.linalg import QQ, Matrix, PrimeField, Vector
from partialdual.pams import certify_pams, find_cointegral
from partialdual.partial_dual import left_partial_dual, right_partial_dual
from partialdual.serialize import serialize

F7 = PrimeField(7)
GROUPS = {
    "C4": cyclic(4),
    "C2xC2": cyclic(2).direct_product(cyclic(2)),
    "S3": symmetric(3),
    "C6": cyclic(6),
}


def _subgroups(g):
    """Every subgroup, the trivial and the whole group included, as sorted
    element tuples: each group here is generated by two elements, so the
    closures of all pairs reach them all."""
    found = set()
    for a, b in combinations_with_replacement(range(g.order), 2):
        members = {g.identity, a, b}
        while True:
            grown = members | {g.mul(x, y) for x in members for y in members}
            if grown == members:
                break
            members = grown
        found.add(tuple(sorted(members)))
    return sorted(found, key=lambda k: (len(k), k))


SYSTEMS = [(name, k) for name, g in GROUPS.items() for k in _subgroups(g)]


def _mod7(x) -> int:
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, 7) % 7


def _reduced(doc: str):
    """A document's kind, dimensions and nonzero tensor entries, each reduced mod 7."""
    obj = json.loads(doc)
    tensors = {
        name: {tuple(index): r for index, value in entries if (r := _mod7(value))}
        for name, entries in obj["tensors"].items()
    }
    return obj["kind"], obj["dims"], tensors


def _partial_duals(group, k, field, zeta=None):
    h = group_algebra(group, field)
    iota = Matrix.from_columns(field, [Vector.basis(field, group.order, e) for e in k], nrows=group.order)
    q = build_quotient(certify_coideal(h, LinMap(iota)))
    p = certify_pams(q, find_cointegral(q) if zeta is None else zeta)
    left = left_partial_dual(p)
    return p, left, right_partial_dual(p, left)


def test_the_sweep_covers_every_subgroup():
    assert len(SYSTEMS) == 18
    assert [k for name, k in SYSTEMS if name == "S3"] == [(0,), (0, 1), (0, 2), (0, 5), (0, 3, 4), tuple(range(6))]


@pytest.mark.parametrize("name, k", SYSTEMS, ids=[f"{name}-{'.'.join(map(str, k))}" for name, k in SYSTEMS])
def test_rational_partial_duals_reduce_to_the_f7_ones(name, k):
    group = GROUPS[name]
    p, *rational = _partial_duals(group, k, QQ)
    zeta = LinMap(Matrix(F7, [[_mod7(x) for x in row] for row in p.zeta.matrix.rows]))
    _, *modular = _partial_duals(group, k, F7, zeta)
    for over_q, over_f7 in zip(rational, modular):
        assert _reduced(serialize(over_q)) == _reduced(serialize(over_f7))
