"""The certify -> dualize pipeline of one system, and the correctness gate.

`run_system` is the timed work: it calls only the library's public entry
points, starting from the input documents.  `gate` runs after the timed
pass and decides whether the system's outputs are correct.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from partialdual.coideal import build_quotient, certify_coideal
from partialdual.hopf import LinMap
from partialdual.pams import certify_pams, find_cointegral
from partialdual.partial_dual import left_partial_dual, right_partial_dual, verify_quasi_hopf
from partialdual.serialize import parse, parse_matrix_text, serialize

from workloads import System


@dataclass
class Outcome:
    """What one system's pipeline left behind for the gate."""

    dims: tuple[int, int, int] = (0, 0, 0)  # dim H, dim B, dim C
    reports: list = field(default_factory=list)
    documents: dict[str, str] = field(default_factory=dict)
    reparsed: dict[str, object] = field(default_factory=dict)
    error: str = ""


def run_system(system: System, seed: int, round_trip: bool) -> Outcome:
    """Certify the coideal, its quotient and a PAMS, then build and verify
    both partial duals.  With `round_trip` the PAMS and quasi-Hopf
    documents are also parsed back, which re-runs their certification."""
    out = Outcome()
    h = parse(system.hopf)
    b = certify_coideal(h, LinMap(parse_matrix_text(system.iota, h.field)))
    q = build_quotient(b)
    if system.zeta is None:
        zeta = find_cointegral(q, {"kind": "deterministic-search", "seed": seed})
    else:
        zeta = LinMap(parse_matrix_text(system.zeta, h.field))
    p = certify_pams(q, zeta)
    qh = left_partial_dual(p)
    verified = verify_quasi_hopf(qh)
    co = right_partial_dual(p, qh)
    out.dims = (h.dim, b.dim, q.dim)
    out.reports = [b.report, q.report, p.report, qh.report, verified, co.report]
    out.documents = {"quasi-hopf": serialize(qh), "coquasi-hopf": serialize(co)}
    if round_trip:
        out.documents["pams"] = serialize(p)
        for kind in ("pams", "quasi-hopf"):
            out.reparsed[kind] = parse(out.documents[kind])
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def gate(outcome: Outcome, reference: str | None) -> list[str]:
    """Every reason the system failed; empty when it passed.

    A system fails when a stage raised, a report holds a FAIL, a document
    does not survive serialize(parse(doc)), dim B * dim C != dim H, or the
    quasi-Hopf document differs from the recorded reference digest.
    """
    if outcome.error:
        return [f"raised: {outcome.error}"]
    bad = []
    for report in outcome.reports:
        if report is not None and not report.ok:
            bad.append(f"report {report.title!r} failed {report.failures()[0][0]}")
    for kind, doc in outcome.documents.items():
        obj = outcome.reparsed.get(kind)
        if obj is None:
            obj = parse(doc)
        if serialize(obj) != doc:
            bad.append(f"{kind} document does not round-trip")
    n, bdim, cdim = outcome.dims
    if bdim * cdim != n:
        bad.append(f"dim B * dim C = {bdim} * {cdim} != {n}")
    if reference is not None and digest(outcome.documents.get("quasi-hopf", "")) != reference:
        bad.append("quasi-hopf document differs from the reference digest")
    return bad
