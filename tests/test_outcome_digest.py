"""scripts/outcome_digest.py: one deterministic digest of a workload's outcomes."""

import json
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "outcome_digest.py"


def _run(*args):
    out = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
                         check=True, timeout=120)
    return out.stdout.splitlines()


def test_digest_is_deterministic_and_hashes_the_records():
    args = ("--workload", "bnb_hard", "--seed", "1", "--count", "3")
    plain = _run(*args)
    verbose = _run(*args, "--records")
    assert plain[-1] == verbose[-1]
    assert re.fullmatch(r"bnb_hard seed=1 count=3 sha256=[0-9a-f]{64}", plain[-1])
    records = [json.loads(line) for line in verbose[:-2]]
    assert [r["index"] for r in records] == [0, 1, 2]
    for r in records:
        assert r["status"] in ("SAT", "UNSAT")
        assert {"nodes_expanded", "rule_fires", "simplify_fires", "fixpoint_calls"} <= set(r)
    # another seed builds other instances
    assert _run("--workload", "bnb_hard", "--seed", "2", "--count", "3")[-1] != plain[-1]
