"""A tiny end-to-end run of each mode on the smallest systems."""

import json
import resource
import subprocess
import sys

import pytest

import run
import tracing
import workloads

REPO = run.HERE.parent


@pytest.fixture
def tmp_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    return tmp_path


def small(workload, count=1):
    return workloads.generate(workload, 0)[:count]


@pytest.mark.parametrize("workload", ["dense-assoc", "subgroup-sweep"])
def test_in_process_end_to_end(tmp_dirs, workload):
    refs = json.loads((run.HERE / "reference.json").read_text())[workload]
    runner = run.Runner(workload, 0, small(workload), refs)
    metrics, notes = run.end_to_end(runner, 0.0, 0.5)
    assert not runner.failures and runner.attempted == 1
    assert set(metrics) == {"setup_s", "pass_s", "system_p50_s", "system_tail_s", "peak_rss_mb"}
    assert all(value > 0 for value, _ in metrics.values())


def test_cli_pipe_end_to_end_and_traced(tmp_dirs):
    refs = json.loads((run.HERE / "reference.json").read_text())["cli-pipe"]
    runner = run.Runner("cli-pipe", 0, small("cli-pipe"), refs)
    metrics, _ = run.end_to_end(runner, 0.0, 0.5)
    assert not runner.failures
    # the largest CLI process, not the larger process that runs the benchmark
    assert 10 < metrics["peak_rss_mb"][0] < resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    runner = run.Runner("cli-pipe", 0, small("cli-pipe"), refs)
    layers, _ = run.per_layer(runner)
    assert not runner.failures
    assert layers["cli.processes"][0] == 7
    assert layers["pams.induced_pams.self_s"][0] > 0
    assert layers["pams.find_cointegral.candidates"][0] >= 1
    assert layers["linalg.q_ops"][0] > 0


def test_traced_run_reports_every_layer_metric(tmp_dirs):
    runner = run.Runner("subgroup-sweep", 0, small("subgroup-sweep"), None)
    layers, notes = run.per_layer(runner)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert layers["coideal.certify_coideal.self_s"][0] > 0
    assert layers["linalg.elim.calls"][0] > 0 and layers["linalg.elim.cells"][0] > 0
    assert layers["trace.overhead_s"][0] > 0
    assert (tmp_dirs / "out" / "spans-subgroup-sweep-0.json").is_file()


def test_operation_counts_hold_only_the_library(tmp_dirs):
    # an F_7 system does no Fraction arithmetic; the calibration loop does
    (system,) = [s for s in workloads.generate("subgroup-sweep", 0) if s.id.endswith("/F7")][:1]
    layers, _ = run.per_layer(run.Runner("subgroup-sweep", 0, [system], None))
    assert layers["linalg.q_ops"][0] == 0 and layers["linalg.fp_ops"][0] > 0


def test_missing_reference_fails_the_default_seed(tmp_dirs):
    runner = run.Runner("subgroup-sweep", 0, small("subgroup-sweep"), {})
    runner.round()
    assert list(runner.failures) == [small("subgroup-sweep")[0].id]
    assert runner.failed == runner.attempted == 1


def test_calibrated_times_scale_by_the_calibration():
    runner = run.Runner("subgroup-sweep", 0, small("subgroup-sweep"), None)
    sid = small("subgroup-sweep")[0].id
    runner.samples[sid] = [[(1.0, run.CALIBRATION_S)], [(3.0, 2 * run.CALIBRATION_S)], [(9.0, run.CALIBRATION_S)]]
    assert runner.system_times() == [1.5]
    assert runner.system_times(calibrated=False) == [3.0]


def test_tracer_restores_the_library():
    from partialdual import hopf, linalg, pams

    before = (pams.certify_pams, hopf.Algebra.multiply, linalg.Matrix.__matmul__, pams.convolution_inverse)
    tracer = tracing.Tracer()
    tracer.install()
    assert pams.certify_pams is not before[0] and pams.convolution_inverse is not before[3]
    tracer.uninstall()
    assert (pams.certify_pams, hopf.Algebra.multiply, linalg.Matrix.__matmul__, pams.convolution_inverse) == before


def test_self_time_excludes_children():
    spans = [
        ["pams.certify_pams", 0.0, 10.0, -1, "s", None],
        ["hopf.convolution_inverse", 1.0, 3.0, 0, "s", None],
        ["linalg.solve", 4.0, 8.0, 0, "s", 12],
        ["linalg.rref", 5.0, 7.0, 2, "s", 12],
    ]
    m = tracing.layer_metrics(spans)
    assert m["pams.certify_pams.self_s"] == 4.0
    assert m["linalg.elim.self_s"] == 4.0
    assert m["linalg.elim.calls"] == 1 and m["linalg.elim.cells"] == 12


def test_bare_directory_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "cli-pipe", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
