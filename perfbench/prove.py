#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads bnb_hard,...] [--record]

For every workload and end-to-end metric this prints the median of the runs
and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json. Runs go one after another.
With ``--record`` one traced run per workload (first seed) is added, and the
medians, spreads, per-layer figures, seeds, commit and machine are written to
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_once(command: list, workload: str, seed: int, seconds: int, trace: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["detail"] = next(json.loads(line) for line in reversed(lines) if line.startswith('{"workload"'))
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(bench["command"], name, seed, bench["run_seconds"], 0))
            print(f"{name} seed {seed}: {runs[-1]['wall_s']:.1f} s", file=sys.stderr, flush=True)
        rows = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            rows[metric] = {"median": statistics.median(values), "spread": spread(values),
                            "third_of_bound": bound / 3, "values": values}
            wall = [r["detail"]["wall_clock"].get(metric) for r in runs]
            if None not in wall:
                rows[metric]["wall_clock_spread"] = spread(wall)
            print(f"{name:14s} {metric:16s} median {rows[metric]['median']:12.5g} "
                  f"spread {rows[metric]['spread']:.4f} (bound/3 {bound / 3:.4f})")
        summary[name] = {"metrics": rows, "wall_s": [r["wall_s"] for r in runs],
                         "failed": [r["failed"] for r in runs],
                         "attempted": [r["attempted"] for r in runs]}
        if args.record:
            layers = run_once(bench["command"], name, seeds[0], bench["run_seconds"], 1)
            summary[name]["per_layer_seed"] = seeds[0]
            summary[name]["per_layer"] = {k: v["value"] for k, v in layers["metrics"].items()}
    if args.record:
        import numpy

        record = {
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": numpy.__version__, "cpu": cpu_model()},
            "commit": commit(),
            "seeds": seeds,
            "run_seconds": bench["run_seconds"],
            "workloads": summary,
        }
        with open(os.path.join(HERE, "baseline.json"), "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
