"""Workload inputs, generated from a seed.

Each system is a set of documents as a user would hand them to the
engine: a `hopf` document, a bare inclusion-matrix file for the coideal
B inside H and, when the mapping is given rather than searched for, a
matrix file for zeta.  The seed relabels the basis of H with a seeded
permutation (for a group algebra kG this relabels the group elements),
so the same seed always gives the same documents.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

from partialdual.examples import cyclic, group_algebra, symmetric, taft4
from partialdual.linalg import QQ, PrimeField
from partialdual.serialize import serialize

WORKLOADS = ("dense-assoc", "subgroup-sweep", "cli-pipe")
DEFAULT_SEED = 0

_HOPF_TENSORS = ("mult", "unit", "comult", "counit", "antipode")


@dataclass(frozen=True)
class System:
    """One input system: documents plus how the pipeline treats them."""

    id: str
    hopf: str
    iota: str
    zeta: str | None = None


def _groups():
    c2 = cyclic(2)
    return {
        "C3": cyclic(3),
        "C4": cyclic(4),
        "C2xC2": c2.direct_product(c2),
        "S3": symmetric(3),
    }


def _fields():
    return {"Q": QQ, "F7": PrimeField(7)}


def subgroups(g) -> list[tuple[int, ...]]:
    """Every subgroup other than {e}, as sorted element tuples.

    Each group used here is generated by at most two elements, so the
    closures of all pairs reach every subgroup.
    """
    found = set()
    for a, b in itertools.combinations(range(g.order), 2):
        members = {g.identity, a, b}
        while True:
            grown = members | {g.mul(x, y) for x in members for y in members}
            if grown == members:
                break
            members = grown
        found.add(tuple(sorted(members)))
    found.discard((g.identity,))
    return sorted(found, key=lambda s: (len(s), s))


def relabel(doc: str, perm: list[int]) -> str:
    """Move basis vector e_i of a hopf document to e_perm[i].

    The result is again a canonical document: entries stay sorted by
    index and the JSON layout is the one `serialize` writes.
    """
    obj = json.loads(doc)
    tensors = obj["tensors"]
    for name in _HOPF_TENSORS:
        moved = [[[perm[i] for i in idx], c] for idx, c in tensors[name]]
        tensors[name] = sorted(moved)
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _matrix_text(rows) -> str:
    return json.dumps([[str(x) for x in row] for row in rows])


def _inclusion(n: int, columns: list[int], perm: list[int]) -> str:
    """The n x len(columns) matrix sending e_t to e_perm[columns[t]]."""
    targets = [perm[c] for c in columns]
    return _matrix_text([[1 if targets[t] == r else 0 for t in range(len(targets))] for r in range(n)])


def _perm(seed: int, system_id: str, n: int) -> list[int]:
    perm = list(range(n))
    random.Random(f"{seed}:{system_id}").shuffle(perm)
    return perm


def _dense_assoc(seed: int) -> list[System]:
    groups, fields = _groups(), _fields()
    out = []
    # dim 3 -> dim 4; the dim-6 kS3 item (7-16 s) is too long for a run to
    # time it often enough for a steady figure
    for gname, fname in itertools.product(("C3", "C4", "C2xC2"), fields):
        g = groups[gname]
        sid = f"k{gname}>k1/{fname}"
        perm = _perm(seed, sid, g.order)
        doc = relabel(serialize(group_algebra(g, fields[fname])), perm)
        # zeta = epsilon: the counit of kG is 1 on every group element
        out.append(System(sid, doc, _inclusion(g.order, [g.identity], perm), _matrix_text([[1] * g.order])))
    return out


def _subgroup_sweep(seed: int) -> list[System]:
    out = []
    groups = _groups()
    for fname, field in _fields().items():
        # S3, C6 and C8 are left out, largest first, so that a run times
        # every system often enough for a steady median
        for gname in ("C4", "C2xC2"):
            g = groups[gname]
            base = serialize(group_algebra(g, field))
            for k in subgroups(g):
                sid = f"k{gname}>{'-'.join(map(str, k))}/{fname}"
                perm = _perm(seed, sid, g.order)
                out.append(System(sid, relabel(base, perm), _inclusion(g.order, list(k), perm)))
    return out


def _cli_pipe(seed: int) -> list[System]:
    out = []
    for fname, field in (("Q", QQ), ("F5", PrimeField(5))):
        h, b, _ = taft4(field, 0)
        sid = f"taft4>B/{fname}"
        perm = _perm(seed, sid, 4)
        rows = [[field.to_str(x) for x in row] for row in b.iota.matrix.rows]
        moved = [rows[perm.index(r)] for r in range(4)]
        out.append(System(sid, relabel(serialize(h), perm), _matrix_text(moved)))
    groups = _groups()
    # kS3>C3 and kC6>C2 are left out so that a run gets four or more rounds
    for gname, order in (("S3", 2), ("C2xC2", 2)):
        g = groups[gname]
        k = next(s for s in subgroups(g) if len(s) == order)
        sid = f"k{gname}>{'-'.join(map(str, k))}/Q"
        perm = _perm(seed, sid, g.order)
        out.append(System(sid, relabel(serialize(group_algebra(g, QQ)), perm), _inclusion(g.order, list(k), perm)))
    return out


def generate(workload: str, seed: int) -> list[System]:
    """The systems of one workload for one seed."""
    by_name = {"dense-assoc": _dense_assoc, "subgroup-sweep": _subgroup_sweep, "cli-pipe": _cli_pipe}
    return by_name[workload](seed)
