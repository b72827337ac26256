"""
A strictly quasi-Hopf partial dual
==================================

Not every coideal subalgebra leads back to a Hopf algebra.  Take H = kC4
and B = k{1, g^2}: the quotient has dimension two, a cointegral exists,
but the resulting associator is a genuine 3-tensor.  The pentagon holds,
quasi-coassociativity holds, and the preantipode normalizes to the
distinguished element upsilon rather than the unit.
"""

from partialdual.coideal import build_quotient, certify_coideal
from partialdual.examples import cyclic, group_algebra
from partialdual.hopf import LinMap, flat_nonzeros, power_unit
from partialdual.linalg import QQ, Matrix
from partialdual.pams import certify_pams, find_cointegral
from partialdual.partial_dual import detect_hopf, left_partial_dual

h = group_algebra(cyclic(4), QQ)
iota = LinMap(Matrix(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]]))  # B = k{1, g^2}
b = certify_coideal(h, iota)
q = build_quotient(b)

# the deterministic search solves the module-map constraints exactly and
# walks candidates in a fixed order; seed 0 is the default everywhere
zeta = find_cointegral(q, {"seed": 0})
p = certify_pams(q, zeta)
qh = left_partial_dual(p)

print("phi == 1x1x1:", qh.phi == power_unit(qh.algebra, 3))
print("phi supported on", sum(1 for _ in flat_nonzeros(qh.phi)), "basis tensors:")
for idx, c in flat_nonzeros(qh.phi):
    i, rest = divmod(idx, 16)
    j, k = divmod(rest, 4)
    print(f"  ({i},{j},{k}) -> {c}")

print("upsilon:", qh.upsilon, " unit:", qh.algebra.unit)
print("upsilon invertible:", qh.upsilon_invertible)

det = detect_hopf(qh)
print("detection:", det.kind)
print("sufficient criteria for a trivial associator:", det.diagnostics)

# all 30 checks: the quasi-Hopf axiom suite with the pentagon and the
# preantipode identities; the construction adds none of its own
assert qh.report.ok
print(qh.report.render().splitlines()[0], "-", len(qh.report.checks), "checks")
