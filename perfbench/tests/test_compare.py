"""The compare verdicts on synthetic paired runs."""

import json

import pytest

import compare

BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def shifted(values, factor):
    return [v * factor for v in values]


def test_clear_gain_is_improved():
    assert compare.verdict(BASE, shifted(BASE, 0.8), "lower", 0.1) == "improved"


def test_gain_on_a_higher_is_better_metric():
    assert compare.verdict(BASE, shifted(BASE, 1.2), "higher", 0.1) == "improved"
    assert compare.verdict(BASE, shifted(BASE, 1.2), "lower", 0.1) == "worse"


def test_same_distribution_is_no_worse():
    assert compare.verdict(BASE, list(reversed(BASE)), "lower", 0.1) == "no worse"


def test_small_slowdown_within_the_bound_is_no_worse():
    assert compare.verdict(BASE, shifted(BASE, 1.05), "lower", 0.1) == "no worse"


def test_slowdown_beyond_the_bound_is_worse():
    assert compare.verdict(BASE, shifted(BASE, 1.15), "lower", 0.1) == "worse"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0]
    assert compare.verdict(noisy, shifted(noisy, 1.3), "lower", 0.1) == "unresolved"


def test_every_run_better_overrides_a_wide_spread():
    base = [20.0, 30.0, 25.0, 22.0, 28.0, 24.0, 26.0, 21.0, 29.0, 23.0]
    head = [v - 15.0 for v in base]
    assert compare.verdict(base, head, "lower", 0.1) == "improved"
    # with too few pairs to claim a gain it is still not unresolved
    assert compare.verdict(base[:4], head[:4], "lower", 0.1) == "no worse"


def test_wins_below_nine_tenths_are_not_a_gain():
    head = shifted(BASE, 0.85)
    head[0], head[1] = 12.0, 12.0  # two of ten pairs lost
    assert compare.verdict(BASE, head, "lower", 0.3) == "no worse"


def test_ties_count_for_neither_side():
    head = shifted(BASE, 0.8)
    head[0] = BASE[0]
    assert compare.verdict(BASE, head, "lower", 0.1) == "improved"
    head[1] = BASE[1]
    assert compare.verdict(BASE, head, "lower", 0.1) != "improved"


def test_too_few_pairs_raise():
    with pytest.raises(ValueError):
        compare.verdict([1.0], [1.0], "lower", 0.1)


def test_report_reads_paired_records(tmp_path):
    lines = []
    for pair, (b, h) in enumerate(zip(BASE, shifted(BASE, 0.7))):
        for side, value in (("base", b), ("head", h)):
            result = {"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {"pass_s": {"value": value, "unit": "s"}}}
            lines.append(json.dumps({"side": side, "pair": pair, "workload": "cli-pipe", "seed": pair,
                                     "result": result}))
    path = tmp_path / "results.jsonl"
    path.write_text("\n".join(lines) + "\n")
    spec = {"workloads": [{"name": "cli-pipe"}, {"name": "dense-assoc"}],
            "end_to_end": [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1},
                           {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    rows = {(r["workload"], r["metric"]): r for r in compare.report(path, spec)}
    assert rows["cli-pipe", "pass_s"]["pairs"] == 10 and rows["cli-pipe", "pass_s"]["verdict"] == "improved"
    # a workload or metric without results is reported, as unresolved
    assert len(rows) == 4
    for key in (("cli-pipe", "setup_s"), ("dense-assoc", "pass_s"), ("dense-assoc", "setup_s")):
        assert rows[key]["pairs"] == 0 and rows[key]["verdict"] == "unresolved"
