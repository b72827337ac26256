"""Differential oracle: the pipeline over Q, reduced mod 7, is the pipeline over F_7.

Every structure constant of a group algebra is an integer, so for a
coideal subalgebra kK of kG the whole construction can be run over Q and
over F_7 from the same cointegral: the one find_cointegral returns over
Q, reduced mod 7.  Each tensor of both partial duals must then agree
after reduction, entry by entry.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from partialdual.coideal import build_quotient, certify_coideal
from partialdual.examples import cyclic, group_algebra, symmetric
from partialdual.hopf import LinMap, convolution_inverse
from partialdual.linalg import QQ, Matrix, PrimeField, Vector
from partialdual.pams import certify_pams, find_cointegral, gamma_from_zeta, induced_pams
from partialdual.partial_dual import biop_iso_check, detect_hopf, left_partial_dual, right_partial_dual
from partialdual.serialize import serialize

F7 = PrimeField(7)
GROUPS = {
    "C4": cyclic(4),
    "C2xC2": cyclic(2).direct_product(cyclic(2)),
    "S3": symmetric(3),
    "C6": cyclic(6),
    "C8": cyclic(8),
    "C2xC2xC2": cyclic(2).direct_product(cyclic(2)).direct_product(cyclic(2)),
    "S3xC2": symmetric(3).direct_product(cyclic(2)),
}


def _closure(g, members):
    """The subgroup generated by a set of elements."""
    while True:
        grown = members | {g.mul(x, y) for x in members for y in members}
        if grown == members:
            return members
        members = grown


def _subgroups(g):
    """Every subgroup, the trivial and the whole group included, as sorted
    element tuples: every subgroup is reached from the trivial one by
    joining one element at a time, so the search joins one more element
    to each subgroup found until nothing new appears."""
    found = frontier = {frozenset([g.identity])}
    while frontier:
        frontier = {_closure(g, k | {x}) for k in frontier for x in range(g.order) if x not in k} - found
        found = found | frontier
    return sorted((tuple(sorted(k)) for k in found), key=lambda k: (len(k), k))


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


def _quotient(group, k, field):
    h = group_algebra(group, field)
    iota = Matrix.from_columns(field, [Vector.basis(field, group.order, e) for e in k], nrows=group.order)
    return build_quotient(certify_coideal(h, LinMap(iota)))


def _partial_duals(group, k, field, zeta=None):
    q = _quotient(group, k, field)
    p = certify_pams(q, find_cointegral(q) if zeta is None else zeta)
    left = left_partial_dual(p)
    return p, left, right_partial_dual(p, left)


def test_the_sweep_covers_every_subgroup():
    assert len(SYSTEMS) == 54
    assert len(_subgroups(GROUPS["C2xC2xC2"])) == 16  # C2^3 itself needs three generators
    assert [k for name, k in SYSTEMS if name == "S3"] == [(0,), (0, 1), (0, 2), (0, 5), (0, 3, 4), tuple(range(6))]


# per system, the first 16 hex digits of the SHA-256 over its left and right documents,
# each over Q then over F_7, in that order
DOCUMENT_DIGESTS = {
    "C4-0": "7ab09ab53a15975e",
    "C4-0.2": "e9a7a2a61565cf15",
    "C4-0.1.2.3": "ec6807bcb23126c8",
    "C2xC2-0": "85731f9517496cc1",
    "C2xC2-0.1": "89fdc3614deba204",
    "C2xC2-0.2": "89fdc3614deba204",
    "C2xC2-0.3": "eb1301c9341b447c",
    "C2xC2-0.1.2.3": "4a3f9be70907f1e3",
    "S3-0": "62225b2b4d4b0857",
    "S3-0.1": "7081f25d3c237d19",
    "S3-0.2": "7081f25d3c237d19",
    "S3-0.5": "0b8f1047e7788fba",
    "S3-0.3.4": "898c6c1f9c6576e3",
    "S3-0.1.2.3.4.5": "1af81e71e208ebe8",
    "C6-0": "351fde0efe5a9676",
    "C6-0.3": "4f0b8b7d9a08ebac",
    "C6-0.2.4": "f797ac07252d6cae",
    "C6-0.1.2.3.4.5": "847d240fbbc663f7",
    "C8-0": "a1d1a91c343afed4",
    "C8-0.4": "d0d4a37a1458a08d",
    "C8-0.2.4.6": "324c1bd268a7fcfc",
    "C8-0.1.2.3.4.5.6.7": "214fea94bb3dc28c",
    "C2xC2xC2-0": "b553222cab0b4bde",
    "C2xC2xC2-0.1": "67614aef4d03529e",
    "C2xC2xC2-0.2": "67614aef4d03529e",
    "C2xC2xC2-0.3": "8546b25f3c384302",
    "C2xC2xC2-0.4": "67614aef4d03529e",
    "C2xC2xC2-0.5": "8546b25f3c384302",
    "C2xC2xC2-0.6": "4cf62e38538df53c",
    "C2xC2xC2-0.7": "86f4faf8d2b58b27",
    "C2xC2xC2-0.1.2.3": "09077f4e80a058ac",
    "C2xC2xC2-0.1.4.5": "09077f4e80a058ac",
    "C2xC2xC2-0.1.6.7": "d9b269084bf1ee28",
    "C2xC2xC2-0.2.4.6": "09077f4e80a058ac",
    "C2xC2xC2-0.2.5.7": "d9b269084bf1ee28",
    "C2xC2xC2-0.3.4.7": "d9b269084bf1ee28",
    "C2xC2xC2-0.3.5.6": "09077f4e80a058ac",
    "C2xC2xC2-0.1.2.3.4.5.6.7": "15a84bc54898099f",
    "S3xC2-0": "8b79be20c8dfe2dc",
    "S3xC2-0.1": "915d34885c392ee3",
    "S3xC2-0.2": "f365e0b8c62e0e0c",
    "S3xC2-0.3": "d8ea129cb307f574",
    "S3xC2-0.4": "f365e0b8c62e0e0c",
    "S3xC2-0.5": "d8ea129cb307f574",
    "S3xC2-0.10": "942edc2165d3d941",
    "S3xC2-0.11": "671b8fc176ffaa8c",
    "S3xC2-0.6.8": "05e23a77b912fcbe",
    "S3xC2-0.1.2.3": "26c7f299680c44af",
    "S3xC2-0.1.4.5": "26c7f299680c44af",
    "S3xC2-0.1.10.11": "073add260c523b14",
    "S3xC2-0.1.6.7.8.9": "aa3bb2564aaf5c59",
    "S3xC2-0.2.4.6.8.10": "aa888c52ebef2d5d",
    "S3xC2-0.3.5.6.8.11": "da202da079fa9337",
    "S3xC2-0.1.2.3.4.5.6.7.8.9.10.11": "2887a4376d18a5d5",
}


@pytest.mark.parametrize("name, k", SYSTEMS, ids=[f"{name}-{'.'.join(map(str, k))}" for name, k in SYSTEMS])
def test_rational_partial_duals_reduce_to_the_f7_ones(name, k):
    group = GROUPS[name]
    p, *rational = _partial_duals(group, k, QQ)
    zeta = LinMap(Matrix(F7, [[_mod7(x) for x in row] for row in p.zeta.matrix.rows]))
    _, *modular = _partial_duals(group, k, F7, zeta)
    digest = hashlib.sha256()
    for over_q, over_f7 in zip(rational, modular):
        docs = serialize(over_q), serialize(over_f7)
        assert _reduced(docs[0]) == _reduced(docs[1])
        digest.update("".join(docs).encode())
    assert digest.hexdigest()[:16] == DOCUMENT_DIGESTS[f"{name}-{'.'.join(map(str, k))}"]


def _text(m):
    return [[m.field.to_str(x) for x in row] for row in m.rows]


# one SHA-256 over the outcomes of every system of order <= 8, the same over
# Q and F_7: each matrix entry here has the same text in both fields
MAP_LAW_DIGEST = "e0e07f5dee73c7d187085bf5b29fa5640c60853766fd5f7c7ced2c8754148f55"


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_map_law_diagnostics_and_convolution_inverses_are_pinned(field):
    """detect_hopf's bialgebra-map diagnostics, gamma_from_zeta(q, zeta)
    and convolution_inverse(zeta) on every system of order <= 8, from the
    cointegral found over the field itself: a rewrite of the map-law
    checks or of the convolution kernel must give the same outcomes."""
    digest = hashlib.sha256()
    for name, k in SYSTEMS:
        if GROUPS[name].order > 8:
            continue
        q = _quotient(GROUPS[name], k, field)
        zeta = find_cointegral(q)
        outcome = (
            detect_hopf(left_partial_dual(certify_pams(q, zeta))).diagnostics,
            _text(gamma_from_zeta(q, zeta).matrix),
            _text(convolution_inverse(zeta, q.parent.coalgebra, q.coideal.algebra).matrix),
        )
        digest.update(repr(outcome).encode())
    assert digest.hexdigest() == MAP_LAW_DIGEST


def _reversal_symmetric(phi: Vector, n: int) -> bool:
    """phi equals itself with its three legs reversed."""
    return all(phi[(a * n + b) * n + c] == phi[(c * n + b) * n + a] for a in range(n) for b in range(n) for c in range(n))


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_biop_transport_on_every_leg_asymmetric_associator(field):
    """biop_iso_check against the left dual of the biop-dual system, on each
    proper subgroup system of order <= 8 whose phi changes when its legs
    are reversed: only there does a biop transport that leaves the legs
    of phi in place fail."""
    asymmetric = []
    for name, k in SYSTEMS:
        if GROUPS[name].order > 8 or len(k) in (1, GROUPS[name].order):
            continue
        q = _quotient(GROUPS[name], k, field)
        p = certify_pams(q, find_cointegral(q))
        qh = left_partial_dual(p)
        if _reversal_symmetric(qh.phi, qh.dim):
            continue
        asymmetric.append(f"{name}-{'.'.join(map(str, k))}")
        assert biop_iso_check(qh, left_partial_dual(induced_pams(p, "biop-dual"))).ok
    assert len(asymmetric) == 13, asymmetric
