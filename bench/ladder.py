"""Per-stage process_time medians of left_partial_dual and serialize on the scale ladder.

    python3 bench/ladder.py CHECKOUT SYSTEM RUNS

prints one JSON line of medians in seconds for the checkout's src/, after
one warm-up build, and the peak RSS of the process in MB (ru_maxrss, so
run each rung in a fresh process).  SYSTEM is one rung of the ladder:

    kC4>k1         kC4 over the trivial coideal, zeta = eps, Q (dim 4, phi dense)
    kS4>kC2        kS4 over a transposition's kC2, Q (dim 24)
    kS4>k1         kS4 over the trivial coideal, zeta = eps, F_7 (dim 24, phi dense)
    k(S4xC2)>kS4   k(S4 x C2) over kS4, F_7 (dim 48)
    kS5>kC5        kS5 over a 5-cycle's kC5, F_7 (dim 120)

The four verifier checks (associator-invertible, quasi-coassociativity,
pentagon, comult-algebra-map) are each timed from the previous Report.add
to their own, which covers exactly the evaluation of their two sides.
Run the parent and the change back to back, on one otherwise idle core.
"""

import json
import resource
import statistics
import sys
import time
from itertools import permutations

checkout, name, runs = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, checkout + "/src")

from partialdual import hopf  # noqa: E402
from partialdual.coideal import build_quotient, certify_coideal  # noqa: E402
from partialdual.examples import cyclic, group_algebra, symmetric  # noqa: E402
from partialdual.hopf import LinMap  # noqa: E402
from partialdual.linalg import QQ, Matrix, PrimeField  # noqa: E402
from partialdual.pams import certify_pams, find_cointegral  # noqa: E402
from partialdual.partial_dual import left_partial_dual  # noqa: E402
from partialdual.serialize import serialize  # noqa: E402

STAGES = ("associator-invertible", "quasi-coassociativity", "pentagon", "comult-algebra-map")


def closure(g, gens):
    """The subgroup of g generated by gens, as sorted element indices."""
    out, grow = {g.identity}, True
    while grow:
        grow = False
        for a in list(out):
            for s in gens:
                b = g.mul(a, s)
                if b not in out:
                    out.add(b)
                    grow = True
    return sorted(out)


def perm_index(n, p):
    return sorted(permutations(range(n))).index(tuple(p))


def system(name):
    """The certified mapping system of one rung."""
    zeta = None
    if name == "kC4>k1":
        g, f = cyclic(4), QQ
        k = [g.identity]
        zeta = "eps"
    elif name == "kS4>k1":
        g, f = symmetric(4), PrimeField(7)
        k = [g.identity]
        zeta = "eps"
    elif name == "kS4>kC2":
        g, f = symmetric(4), QQ
        k = closure(g, [perm_index(4, (1, 0, 2, 3))])
    elif name == "k(S4xC2)>kS4":
        g, f = symmetric(4).direct_product(cyclic(2)), PrimeField(7)
        k = [i * 2 for i in range(24)]
    elif name == "kS5>kC5":
        g, f = symmetric(5), PrimeField(7)
        k = closure(g, [perm_index(5, (1, 2, 3, 4, 0))])
    else:
        raise SystemExit(f"unknown rung {name!r}")
    h = group_algebra(g, f)
    q = build_quotient(certify_coideal(h, LinMap(Matrix.from_columns(f, [h.basis(i) for i in k], nrows=h.dim))))
    return certify_pams(q, LinMap(Matrix(f, [[f.one] * h.dim])) if zeta == "eps" else find_cointegral(q))


p = system(name)
samples = {s: [] for s in STAGES + ("left_partial_dual", "serialize")}
current, last = {}, [0.0]
add = hopf.Report.add


def timed_add(self, check, ok, witness=""):
    if check in STAGES:
        current[check] = current.get(check, 0.0) + time.process_time() - last[0]
    out = add(self, check, ok, witness)
    last[0] = time.process_time()
    return out


hopf.Report.add = timed_add
left_partial_dual(p)
for _ in range(runs):
    current.clear()
    start = last[0] = time.process_time()
    qh = left_partial_dual(p)
    samples["left_partial_dual"].append(time.process_time() - start)
    for s in STAGES:
        samples[s].append(current[s])
    start = time.process_time()
    serialize(qh)
    samples["serialize"].append(time.process_time() - start)
print(json.dumps({"system": name, "dim": p.parent.dim, "runs": runs,
                  "median_s": {key: round(statistics.median(v), 5) for key, v in samples.items()},
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}))
