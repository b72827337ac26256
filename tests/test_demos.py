"""The demo scripts run to completion and print what they promise."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script, expected",
    [
        ("01_taft_partial_dual.py", "checks run: 30"),
        ("02_strictly_quasi_associator.py", "- 30 checks"),
    ],
)
def test_demo_runs(script, expected, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expected in capsys.readouterr().out
