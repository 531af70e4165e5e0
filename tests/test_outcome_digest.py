"""scripts/outcome_digest.py: one deterministic digest of a workload's outcomes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "outcome_digest.py"
# the last line of scripts/outcome_digest.py for each pinned workload prefix,
# at seeds 1 and 7
DIGESTS = json.loads((Path(__file__).resolve().parent / "data" / "outcome_digests.json").read_text())


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


def _digest_id(line):
    """The workload of a pinned line; lines of seeds other than 1 add it."""
    workload, seed = line.split()[:2]
    return workload if seed == "seed=1" else f"{workload}-{seed}"


@pytest.mark.parametrize("line", DIGESTS, ids=_digest_id)
def test_outcome_digest_is_the_recorded_one(line):
    """Statuses, models, node counts and rule and simplification fires are
    pinned. A change that moves any of them re-records the line with
    ``python3 scripts/outcome_digest.py --workload W --seed S --count N``
    and says why in CHANGES.md."""
    workload, seed, count = re.fullmatch(
        r"(\w+) seed=(\d+) count=(\d+) sha256=[0-9a-f]{64}", line).groups()
    assert _run("--workload", workload, "--seed", seed, "--count", count)[-1] == line
