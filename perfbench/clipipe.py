"""The `cli-pipe` workload: the `partialdual` CLI driven stage by stage
over files, as a user would run it from a shell.

Timed runs start one interpreter per stage, one at a time, through a
small helper process (`Launcher`).  The traced run sends the same
argument lists through the click entry point in this process, so the
tracing wrappers see the calls.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from click.testing import CliRunner

from partialdual import cli

import pipeline
from workloads import System

# (stage name, output file, argument list with {placeholders})
STAGES = (
    ("coideal", "coideal.json", ["coideal", "{hopf}", "--iota", "{iota}"]),
    ("pams-find", "pams.json", ["pams", "find", "{hopf}", "--coideal", "{coideal}", "--seed", "{seed}"]),
    ("pams-verify", "pams-verify.txt", ["pams", "verify", "{pams}"]),
    ("partial-dual-left", "quasi-hopf.json", ["partial-dual", "left", "{pams}"]),
    ("verify-quasi-hopf", "verify-quasi-hopf.txt", ["verify-quasi-hopf", "{quasi-hopf}"]),
    ("partial-dual-right", "coquasi-hopf.json", ["partial-dual", "right", "{pams}"]),
    ("pams-induce-op", "pams-op.json", ["pams", "induce", "{pams}", "--kind", "op"]),
)


def write_inputs(system: System, folder: Path) -> None:
    folder.mkdir(parents=True, exist_ok=True)
    (folder / "hopf.json").write_text(system.hopf)
    (folder / "iota.json").write_text(system.iota)


def stage_args(folder: Path, seed: int) -> list[tuple[str, Path, list[str]]]:
    names = {"seed": str(seed), "hopf": str(folder / "hopf.json"), "iota": str(folder / "iota.json")}
    for _, out, _ in STAGES:
        names[out.split(".")[0]] = str(folder / out)
    return [(stage, folder / out, [a.format(**names) for a in argv]) for stage, out, argv in STAGES]


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


# A child's peak RSS as wait4 reports it is at least the RSS of the
# process that forked it, and the benchmark's process is larger than a
# CLI process.  So the CLI processes are forked by this helper, which
# stays smaller than one.  It reads one stage a line, "out NUL err NUL args",
# runs it and answers "wall_s peak_rss_kib exit_code".
LAUNCHER = r"""
import os, sys, time
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
for line in sys.stdin:
    out, err, *argv = line.rstrip("\n").split("\0")
    files = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "partialdual.cli", *argv], os.environ,
                         file_actions=files)
    _, status, usage = os.wait4(pid, 0)
    print(time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status), flush=True)
"""


class Launcher:
    """The LAUNCHER helper process, for the duration of a `with` block."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=env)

    def run(self, argv: list[str], out: Path) -> tuple[float, int, int]:
        """One CLI stage in a fresh interpreter: (wall s, peak RSS KiB, exit code)."""
        err = out.with_suffix(out.suffix + ".err")
        self.proc.stdin.write("\0".join([str(out), str(err), *argv]) + "\n")
        self.proc.stdin.flush()
        wall, rss, code = self.proc.stdout.readline().split()
        return float(wall), int(rss), int(code)

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def run_in_process(argv: list[str], out: Path) -> tuple[float, int]:
    """One CLI stage through the click entry point: (wall s, exit code)."""
    runner = CliRunner()
    start = perf_counter()
    result = runner.invoke(cli.main, argv)
    wall = perf_counter() - start
    out.write_text(result.stdout)
    out.with_suffix(out.suffix + ".err").write_text(result.stderr)
    return wall, result.exit_code


def gate(folder: Path, reference: str | None) -> list[str]:
    """Correctness of one system's stage outputs: no FAIL line in any
    stage's output, then `pipeline.gate` on the documents produced."""
    bad = []
    for _, out, _ in STAGES:
        path = folder / out
        for text in (path.read_text(), path.with_suffix(path.suffix + ".err").read_text()):
            fails = [line for line in text.splitlines() if line.lstrip().startswith("FAIL")]
            if fails:
                bad.append(f"{out}: {fails[0].strip()}")
    documents = {out.split(".")[0]: (folder / out).read_text() for _, out, _ in STAGES if out.endswith(".json")}
    dims = json.loads(documents["pams"])["dims"]
    outcome = pipeline.Outcome(dims=(dims["dim"], dims["bdim"], dims["cdim"]), documents=documents)
    return bad + pipeline.gate(outcome, reference)
