"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py run --base PARENT_CHECKOUT --head CHANGE_CHECKOUT \
        [--first-seed 100] --out results.jsonl
    python3 perfbench/compare.py verdict results.jsonl

`run` measures both checkouts with this directory's benchmark code, so the
two sides share code and settings.  It always makes ten pairs over every
workload of BENCHMARK.json.  Pair i runs both sides on seed
first-seed + i, alternating which side goes first.  Each result is
appended to the JSON-lines file as
{"side": "base"|"head", "pair": i, "workload": ..., "seed": ..., "result": {...}}.

`verdict` gives one verdict per workload and end-to-end metric of
BENCHMARK.json:

- unresolved: fewer than two pairs of the workload and metric;
- improved: at least ten pairs, the head wins at least 9/10 of them (ties
  count for neither side), and its median is better than the base median
  by more than the base's interquartile range;
- unresolved: otherwise, when the interquartile range of either side
  exceeds the metric's bound (as a share of the base median), unless
  every head run reads better than every base run;
- worse: otherwise, when the head median is worse than the base median
  by more than the bound;
- no worse: everything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
PAIRS = 10


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    """The verdict for one metric from paired runs (base[i] pairs head[i])."""
    if len(base) != len(head) or len(base) < 2:
        raise ValueError("need at least two pairs of runs")
    sign = 1.0 if better == "lower" else -1.0
    q1, median_base, q3 = statistics.quantiles(base, n=4)
    h1, median_head, h3 = statistics.quantiles(head, n=4)
    gain = sign * (median_base - median_head)
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    scale = abs(median_base)
    if len(base) >= 10 and wins >= 0.9 * len(base) and gain > q3 - q1:
        return "improved"
    every_run_better = all(sign * (b - h) > 0 for b in base for h in head)
    if max(q3 - q1, h3 - h1) > bound * scale and not every_run_better:
        return "unresolved"
    if -gain > bound * scale:
        return "worse"
    return "no worse"


def load(path: Path) -> dict:
    """{(workload, metric): {"base": {pair: value}, "head": {pair: value}}}"""
    table: dict = defaultdict(lambda: {"base": {}, "head": {}})
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for metric, entry in rec["result"]["metrics"].items():
            table[(rec["workload"], metric)][rec["side"]][rec["pair"]] = entry["value"]
    return table


def report(path: Path, spec: dict) -> list[dict]:
    table = load(path)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            sides = table.get((workload, m["name"]), {"base": {}, "head": {}})
            pairs = sorted(set(sides["base"]) & set(sides["head"]))
            base = [sides["base"][p] for p in pairs]
            head = [sides["head"][p] for p in pairs]
            row = {"workload": workload, "metric": m["name"], "pairs": len(pairs)}
            if len(pairs) < 2:
                row["verdict"] = "unresolved"
            else:
                row.update(
                    base_median=statistics.median(base),
                    head_median=statistics.median(head),
                    verdict=verdict(base, head, m["better"], m["bound"]),
                )
            rows.append(row)
    return rows


def run_side(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark failed in {checkout} ({workload}, seed {seed}):\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare benchmark results of two commits.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="measure two checkouts in alternating pairs")
    run.add_argument("--base", type=Path, required=True)
    run.add_argument("--head", type=Path, required=True)
    run.add_argument("--first-seed", type=int, default=100)
    run.add_argument("--out", type=Path, required=True)
    ver = sub.add_parser("verdict", help="verdicts from a results file")
    ver.add_argument("results", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())

    if args.cmd == "run":
        workloads = [w["name"] for w in spec["workloads"]]
        with open(args.out, "a") as fh:
            for pair in range(PAIRS):
                seed = args.first_seed + pair
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for workload in workloads:
                    for side in order:
                        checkout = args.base if side == "base" else args.head
                        result = run_side(checkout, workload, seed, spec["run_seconds"])
                        rec = {"side": side, "pair": pair, "workload": workload, "seed": seed, "result": result}
                        fh.write(json.dumps(rec) + "\n")
                        fh.flush()
        path = args.out
    else:
        path = args.results

    rows = report(path, spec)
    for r in rows:
        medians = ""
        if "base_median" in r:
            medians = f"{r['base_median']:12.6g} -> {r['head_median']:12.6g}"
        print(f"{r['workload']:16s} {r['metric']:16s} {r['pairs']:3d} pairs {medians:30s} {r['verdict']}")
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
