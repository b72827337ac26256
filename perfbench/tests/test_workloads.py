"""Input generation: deterministic per seed, and every relabelled input certifies."""

import json
from pathlib import Path

import pytest

import pipeline
import workloads
from partialdual.coideal import build_quotient, certify_coideal
from partialdual.hopf import LinMap, verify_hopf
from partialdual.serialize import parse, parse_matrix_text, serialize


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_the_labels_not_the_systems(workload):
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert [s.id for s in a] == [s.id for s in b]
    assert any(x.hopf != y.hopf for x, y in zip(a, b))


def test_workload_sizes():
    sizes = {w: len(workloads.generate(w, 0)) for w in workloads.WORKLOADS}
    assert sizes == {"dense-assoc": 6, "subgroup-sweep": 12, "cli-pipe": 4}


def test_subgroups_of_s3():
    s3 = workloads._groups()["S3"]
    assert [len(k) for k in workloads.subgroups(s3)] == [2, 2, 2, 3, 6]


def test_identity_relabel_keeps_the_document():
    h = workloads.group_algebra(workloads.symmetric(3), workloads.QQ)
    doc = serialize(h)
    assert workloads.relabel(doc, list(range(6))) == doc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_relabelled_inputs_certify(workload):
    for system in workloads.generate(workload, 3):
        h = parse(system.hopf)
        assert serialize(h) == system.hopf
        assert verify_hopf(h).ok, system.id
        b = certify_coideal(h, LinMap(parse_matrix_text(system.iota, h.field)))
        q = build_quotient(b)
        assert b.dim * q.dim == h.dim, system.id
        if system.zeta is not None:
            assert json.loads(system.zeta) == [["1"] * h.dim]


def test_small_relabelled_system_passes_the_gate():
    system = workloads.generate("subgroup-sweep", 5)[0]
    outcome = pipeline.run_system(system, 5, round_trip=True)
    assert pipeline.gate(outcome, None) == []


def test_gate_catches_a_wrong_reference_and_a_broken_document():
    system = workloads.generate("subgroup-sweep", 0)[0]
    outcome = pipeline.run_system(system, 0, round_trip=False)
    good = pipeline.digest(outcome.documents["quasi-hopf"])
    assert pipeline.gate(outcome, good) == []
    assert pipeline.gate(outcome, "0" * 64) == ["quasi-hopf document differs from the reference digest"]
    outcome.documents["coquasi-hopf"] = outcome.documents["coquasi-hopf"].replace(" ", "  ", 1)
    assert pipeline.gate(outcome, good) == ["coquasi-hopf document does not round-trip"]
    outcome.dims = (4, 2, 3)
    assert "dim B * dim C = 2 * 3 != 4" in pipeline.gate(outcome, good)


def test_reference_digests_cover_every_default_system():
    refs = json.loads(Path(pipeline.__file__).with_name("reference.json").read_text())
    for workload in workloads.WORKLOADS:
        ids = {s.id for s in workloads.generate(workload, workloads.DEFAULT_SEED)}
        assert set(refs[workload]) == ids
