"""Self-checks of the benchmark: determinism, seeding and the correctness gate.

    python3 -m pytest perfbench -q

Runs use a short ``--seconds``, so each workload solves its minimum instance
count (a prefix of the full runs' instances).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SECONDS = "0.5"


def bench(tmp_root, workload: str, seed: int, trace: int):
    """Run the benchmark command; returns (exit code, stdout, run-details file)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=tmp_root, capture_output=True, text=True, timeout=300,
    )
    details = os.path.join(tmp_root, "perfbench", "out", f"run-{workload}-{seed}-trace{trace}.json")
    saved = None
    if proc.returncode == 0:
        with open(details) as fh:
            saved = json.load(fh)
    return proc.returncode, proc.stdout, saved


def exact_part(saved: dict) -> dict:
    """Statuses plus every count and count ratio; no times."""
    exact = {name: value for name, (value, unit) in saved["metrics"].items()
             if unit in ("count", "ratio") and name != "trace_overhead_frac"}
    return {"statuses": saved["statuses"], "metrics": exact}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_statuses_nodes_and_layer_counts(workload):
    a = bench(run.ROOT, workload, 7, 1)
    b = bench(run.ROOT, workload, 7, 1)
    assert a[0] == b[0] == 0
    assert exact_part(a[2]) == exact_part(b[2])
    assert a[2]["metrics"]["search_nodes"] == b[2]["metrics"]["search_nodes"]


def test_untraced_run_reports_every_end_to_end_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench_spec = json.load(fh)
    code, out, saved = bench(run.ROOT, "chain_endgame", 7, 0)
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in bench_spec["end_to_end"]}
    # the chain past the recursion limit fails, counted but not timed
    assert result["failed"] >= 1 and saved["metrics"]["failed_frac"][0] > 0
    assert saved["detail"]["recursion_limit"] == sys.getrecursionlimit()


def test_different_seed_different_instances():
    gx = run.load_gixsat()
    for workload in workloads.WORKLOADS.values():
        a = workloads.build(gx, workload, 0, workloads.MIN_COUNT)
        b = workloads.build(gx, workload, 1, workloads.MIN_COUNT)
        again = workloads.build(gx, workload, 0, workloads.MIN_COUNT)
        assert [i.text for i in a] == [i.text for i in again]
        assert all(x.text != y.text for x, y in zip(a, b))


def test_expected_statuses_cover_a_full_default_run():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    with open(run.EXPECTED) as fh:
        expected = json.load(fh)
    assert expected["seed"] == run.DEFAULT_SEED
    for name, workload in workloads.WORKLOADS.items():
        assert len(expected["workloads"][name]) == workloads.instance_count(workload, seconds)


def test_wrong_answer_is_refused():
    gx = run.load_gixsat()
    checker = run.Checker(gx.textio.parse, gx.formula.evaluate, [])
    instances = workloads.build(gx, workloads.WORKLOADS["bnb_hard"], 1, 3)
    planted = next(inst for inst in instances if inst.known_sat)
    unplanted = next(inst for inst in instances if not inst.known_sat)
    with pytest.raises(run.WrongAnswer):
        run.check(checker, planted, run.Solved(0.0, 0.01, "UNSAT"))
    with pytest.raises(run.WrongAnswer):
        run.check(checker, planted, run.Solved(0.0, 0.01, "SAT", model={1: 1}))
    expected = run.Checker(gx.textio.parse, gx.formula.evaluate, ["SAT"] * 3)
    with pytest.raises(run.WrongAnswer):
        run.check(expected, unplanted, run.Solved(0.0, 0.01, "UNSAT"))


def test_wrong_answer_exits_nonzero_without_metrics(monkeypatch, capsys):
    monkeypatch.setattr(run, "solve_one",
                        lambda gx, workload, inst: run.Solved(0.0, 0.01, "UNSAT"))
    code = run.main(["--workload", "bnb_hard", "--seed", "1", "--seconds", SECONDS])
    assert code == run.EXIT_WRONG
    assert '"metrics"' not in capsys.readouterr().out


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, out, _ = bench(tmp_path, "bnb_hard", 0, 0)
    assert code != 0
    assert '"metrics"' not in out
