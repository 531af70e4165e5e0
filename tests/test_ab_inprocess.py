"""scripts/ab_inprocess.py: two trees timed in one process on a workload."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_inprocess.py"


def test_this_tree_against_itself_reads_identical_outcomes():
    out = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--workload",
                          "bnb_hard", "--seed", "1", "--count", "3", "--passes", "2"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "c bnb_hard seed=1 count=3 passes=2 decided=3"
    sums = [float(re.fullmatch(rf"{side} \S+ sum_of_minima_ms=([0-9.]+)", line).group(1))
            for side, line in zip("AB", lines[1:3])]
    assert all(s > 0 for s in sums)
    assert re.fullmatch(r"ratio A/B [0-9.]+", lines[3])
    assert lines[4:] == ["outcomes identical: yes"]
