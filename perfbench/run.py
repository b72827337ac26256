"""Benchmark of the partialdual certify -> dualize pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dense-assoc --seed 0 --seconds 40 --trace 0

One client drives one system at a time, in a closed loop, from a single
process (`cli-pipe`: one child process at a time).  A run repeats rounds
over every system of the workload and starts another round only while it
still ends within `--seconds`.  A system's time is the sum over its
stages (one in-process pipeline, or one CLI process each) of the stage's
median over the rounds, in calibrated seconds (see `calibration`).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds in process, then makes one operation-counting round,
and prints the per-layer metrics (see `per_layer`).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
status is non-zero when any system fails the correctness gate.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 11
TRACE_PAIRS = 3
# calibration() on an undisturbed core of the 2-core host the baseline
# comes from (about the 10th percentile of 400 readings); calibrated times
# are wall times scaled to that CPU speed
CALIBRATION_S = 0.0014


def calibration() -> float:
    """Current CPU speed, as the mean time of three runs of a fixed loop.

    The host is shared: other tenants slow the CPU by up to 2x, in bursts
    of seconds and in shifts that last minutes, and `process_time` slows
    with wall time.  Every timed sample is therefore scaled by
    CALIBRATION_S over the mean of calibration() measured just before and
    just after it.  The loop does
    exact rational arithmetic like the library, but with the standard
    library's Fraction only, so no change to the library can move it.
    """
    start = time.perf_counter()
    for _ in range(3):
        acc = Fraction(0)
        for i in range(1, 200):
            x = Fraction(i, i + 1)
            acc = acc + x * x - x
    return (time.perf_counter() - start) / 3


def _import_library():
    """Import partialdual from ./src of the checkout, and nothing else."""
    if not (SRC / "partialdual" / "__init__.py").is_file():
        sys.exit(f"perfbench: no partialdual sources under {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import partialdual

    if Path(partialdual.__file__).resolve().parent != (SRC / "partialdual").resolve():
        sys.exit(f"perfbench: partialdual was imported from {partialdual.__file__}, not {SRC}")


def _setup_probe(workload: str, seed: int, t0: float) -> None:
    """Child process: import, generate the inputs, report seconds since spawn."""
    _import_library()
    import workloads

    workloads.generate(workload, seed)
    print(time.monotonic() - t0)


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of process start -> inputs ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = calibration()
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", str(t0), "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, check=True,
        )
        wall = float(out.stdout.strip().splitlines()[-1])
        samples.append(wall * CALIBRATION_S / ((before + calibration()) / 2))
    return statistics.median(samples)


def measure_cli_import() -> float:
    """Seconds to import the CLI module in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import partialdual.cli; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return float(out.stdout.strip())


class Runner:
    """Runs rounds of one workload.  Per system it keeps, for each round,
    the (wall s, calibration s) pair of every stage, where the calibration
    is the mean of the readings just before and just after the stage."""

    def __init__(self, workload: str, seed: int, systems, references: dict[str, str] | None):
        import pipeline

        self.workload = workload
        self.seed = seed
        self.systems = systems
        self.references = references
        self.pipeline = pipeline
        self.samples: dict[str, list[list[tuple[float, float]]]] = {s.id: [] for s in systems}
        self.failures: dict[str, list[str]] = {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.peak_child_kib = 0
        self.process_times: list[float] = []
        self.calibrate = True
        self.tracer = None
        if workload == "cli-pipe":
            import clipipe

            self.clipipe = clipipe
            self.env = clipipe.child_env(SRC)
            for s in systems:
                clipipe.write_inputs(s, self._folder(s))

    def _calibration(self) -> float:
        """calibration(), except in the counting round: its arithmetic
        would enter the library's operation counts."""
        return calibration() if self.calibrate else CALIBRATION_S

    def _folder(self, system) -> Path:
        return WORK / system.id.replace("/", "_").replace(">", "_")

    def _fail(self, system, reasons: list[str]) -> None:
        if reasons:
            self.failures.setdefault(system.id, reasons)

    def _reference(self, system) -> str | None:
        """The recorded digest, or None when the seed has no references."""
        if self.references is None:
            return None
        return self.references.get(system.id, "missing")

    def _check_digest(self, system, text: str) -> None:
        """The first round is gated; later rounds must repeat its output."""
        d = self.pipeline.digest(text)
        if self.digests.setdefault(system.id, d) != d:
            self._fail(system, ["output differs between rounds"])

    def run_system(self, system, in_process: bool = True) -> list[tuple[float, float]]:
        self.attempted += 1
        if self.workload == "cli-pipe":
            return self._run_cli(system, in_process)
        outcome = self.pipeline.Outcome()
        before = self._calibration()
        start = time.perf_counter()
        try:
            outcome = self.pipeline.run_system(system, self.seed, self.workload == "subgroup-sweep")
        except Exception as exc:  # any raise fails the system; the run goes on
            outcome.error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cal = (before + self._calibration()) / 2
        if system.id not in self.digests:
            self._fail(system, self.pipeline.gate(outcome, self._reference(system)))
        self._check_digest(system, outcome.documents.get("quasi-hopf", ""))
        return [(wall, cal)]

    def _run_cli(self, system, in_process: bool) -> list[tuple[float, float]]:
        if in_process:
            return self._run_stages(system, None)
        with self.clipipe.Launcher(self.env) as launcher:
            return self._run_stages(system, launcher)

    def _run_stages(self, system, launcher) -> list[tuple[float, float]]:
        """The CLI stages of one system, through `launcher`, or in process when None."""
        folder = self._folder(system)
        stages = []
        for stage, out, argv in self.clipipe.stage_args(folder, self.seed):
            before = self._calibration()
            if launcher is None:
                wall, code = self.clipipe.run_in_process(argv, out)
            else:
                wall, rss, code = launcher.run(argv, out)
                self.peak_child_kib = max(self.peak_child_kib, rss)
                self.process_times.append(wall)
            stages.append((wall, (before + self._calibration()) / 2))
            if code != 0:
                self._fail(system, [f"stage {stage} exited with {code}"])
                return stages
        if system.id not in self.digests:
            self._fail(system, self.clipipe.gate(folder, self._reference(system)))
        self._check_digest(system, (folder / "quasi-hopf.json").read_text())
        return stages

    def round(self, in_process: bool = True, record: bool = True) -> tuple[float, float]:
        """One pass over every system: (wall s, calibrated s)."""
        gc.collect()
        calibrated = 0.0
        start = time.perf_counter()
        for s in self.systems:
            if self.tracer is not None:
                self.tracer.system = s.id
            stages = self.run_system(s, in_process)
            calibrated += sum(w * CALIBRATION_S / c for w, c in stages)
            if record:
                self.samples[s.id].append(stages)
        return time.perf_counter() - start, calibrated

    def warm_up(self) -> None:
        """Load lazily imported code and fill the OS file cache, untimed."""
        if self.workload == "cli-pipe":
            subprocess.run([sys.executable, "-m", "partialdual.cli", "--help"], env=self.env,
                           stdout=subprocess.DEVNULL, check=True)
            return
        self.pipeline.run_system(self.systems[0], self.seed, self.workload == "subgroup-sweep")
        gc.collect()
        gc.freeze()

    def system_times(self, calibrated: bool = True) -> list[float]:
        """Per system: the sum over stages of the stage's median round."""
        out = []
        for rounds in self.samples.values():
            total = 0.0
            for stage in zip(*rounds):
                total += statistics.median(w * CALIBRATION_S / c if calibrated else w for w, c in stage)
            out.append(total)
        return out

    @property
    def failed(self) -> int:
        """System runs that failed: every run of a system that failed once."""
        return len(self.failures) * self.attempted // len(self.systems)


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> tuple[dict, list[str]]:
    runner.warm_up()
    in_process = runner.workload != "cli-pipe"
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(runner.round(in_process)[0])
        if time.perf_counter() - start + rounds[-1] > seconds:
            break
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"samples-{runner.workload}-{runner.seed}.json", "w") as fh:
        json.dump({"rounds": rounds, "samples": runner.samples}, fh)
    times = runner.system_times()
    if in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = runner.peak_child_kib
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(times), "s"),
        "system_p50_s": (statistics.median(times), "s"),
        "system_tail_s": (max(times), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    notes = [
        f"rounds {len(rounds)}: " + " ".join(f"{r:.3f}" for r in rounds) + " s wall",
        f"pass uncalibrated {sum(runner.system_times(calibrated=False)):.3f} s wall",
        f"system_tail_s is the slowest of {len(times)} systems",
        f"failed_frac {runner.failed / runner.attempted:.4f} ({runner.failed}/{runner.attempted})",
    ]
    return metrics, notes


def per_layer(runner: Runner) -> tuple[dict, list[str]]:
    """Per-layer metrics.  Self times are wall seconds, the median over
    TRACE_PAIRS traced rounds.  trace.pass_s is the median traced round
    and trace.overhead_s what the spans of one round cost: their number
    times the cost of one span, measured on as many spans of a no-op;
    both are calibrated.  The overhead is not traced minus untraced
    rounds: that difference, printed as a note, is below the noise of a
    round where spans are few (dense-assoc), and where it resolves it is
    larger, by indirect costs that the no-op does not see."""
    import tracing

    cli = runner.workload == "cli-pipe"
    processes = []
    if cli:
        runner.warm_up()
        runner.round(in_process=False, record=False)
        processes = list(runner.process_times)
    # every later round runs in process, the CLI's through its click entry
    # point, so that the wrappers see the calls; one untimed round warms up
    runner.round(record=False)
    gc.collect()
    gc.freeze()

    extra = [runner.pipeline] + ([runner.clipipe] if cli else [])
    untraced, traced, tracers = [], [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(runner.round(record=False)[1])
        runner.tracer = tracing.Tracer(extra_modules=extra)
        runner.tracer.install()
        try:
            traced.append(runner.round(record=False)[1])
        finally:
            runner.tracer.uninstall()
        tracers.append(runner.tracer)
    runner.tracer = None

    counter = tracing.OpCounter()
    runner.calibrate = False
    counter.install()
    try:
        runner.round(record=False)
    finally:
        counter.uninstall()
        runner.calibrate = True

    per_round = [tracing.layer_metrics(t.spans) for t in tracers]
    values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    values["linalg.q_ops"] = counter.counts["linalg.q_ops"]
    values["linalg.fp_ops"] = counter.counts["linalg.fp_ops"]
    values["cli.processes"] = len(processes)
    values["cli.process_s"] = statistics.median(processes) if processes else 0.0
    values["cli.import_s"] = measure_cli_import()
    spans = len(tracers[0].spans)
    before = calibration()
    span_s = tracing.span_cost(spans) * CALIBRATION_S / ((before + calibration()) / 2)
    values["trace.pass_s"] = statistics.median(traced)
    values["trace.overhead_s"] = spans * span_s
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{runner.workload}-{runner.seed}.json"
    with open(spans_path, "w") as fh:
        json.dump({"rounds": [t.spans for t in tracers]}, fh)
    units = {"_s": "s", "ratio": "ratio"}
    metrics = {k: (v, next((u for suf, u in units.items() if k.endswith(suf)), "count")) for k, v in values.items()}
    notes = [
        "untraced rounds " + " ".join(f"{t:.3f}" for t in untraced) + " s, traced rounds "
        + " ".join(f"{t:.3f}" for t in traced) + " s (calibrated); median traced - untraced "
        f"{statistics.median(traced) - statistics.median(untraced):+.3f} s",
        f"{spans} spans a round at {span_s * 1e6:.3f} us each",
        f"{sum(len(t.spans) for t in tracers)} spans written to {spans_path}",
        f"failed_frac {runner.failed / runner.attempted:.4f} ({runner.failed}/{runner.attempted})",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe is not None:
        _setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    # one core for this process and every child, so that each calibration
    # measures the core the next sample runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    _import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed)
    systems = workloads.generate(args.workload, args.seed)
    references = None
    if args.seed == workloads.DEFAULT_SEED:
        references = json.loads((HERE / "reference.json").read_text()).get(args.workload, {})

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        runner = Runner(args.workload, args.seed, systems, references)
        if args.trace:
            metrics, notes = per_layer(runner)
        else:
            metrics, notes = end_to_end(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  systems {len(systems)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    for note in notes:
        print(f"  {note}")
    for sid, reasons in runner.failures.items():
        print(f"  FAILED {sid}: {'; '.join(reasons)}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not runner.failures else 1


if __name__ == "__main__":
    sys.exit(main())
