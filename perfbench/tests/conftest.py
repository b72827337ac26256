"""Self-tests of the benchmark, kept out of the tier-1 suite.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
