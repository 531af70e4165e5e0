#!/usr/bin/env python3
"""In-process A/B of two source trees on a benchmark workload's instances.

    python3 scripts/ab_inprocess.py OLD_TREE NEW_TREE --workload chain_endgame --seed 0

Each tree is a checkout holding ``src/gixsat``; the two packages are loaded
into one process under distinct names (``gixsat_a``, ``gixsat_b``), so both
sides run on the same interpreter, heap and host load. The instances are
built by ``perfbench/workloads.py`` with side A's generator, as the benchmark
builds them. Every pass parses and solves each instance once on each side,
timing both as the benchmark does, and alternates which side goes first from
one instance to the next and from one pass to the next. A side's figure is
the sum, over the instances both sides decide, of the instance's minimum
time over the passes; the minimum drops the passes a busy host slowed down.

The first pass of each side records every instance's outcome: its status (or
the exception type of a failed solve), node count and model. The last lines
printed are each side's sum, their ratio and whether the outcomes are
identical; the exit status is 1 when they are not.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

MODULES = ("dpll", "mitm", "formula", "generator", "textio")


def load(tree: str, name: str) -> argparse.Namespace:
    """The gixsat modules of tree, imported as the package name."""
    pkg = os.path.join(os.path.abspath(tree), "src", "gixsat")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return argparse.Namespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def run_one(gx, workload, text: str):
    """Seconds to parse and solve text, and the outcome."""
    solver = getattr(getattr(gx, workload.module), workload.solver)
    parse = gx.textio.parse
    started = perf_counter()
    try:
        result = solver(parse(text))
    except Exception as exc:  # noqa: BLE001  a failed solve is an outcome too
        return perf_counter() - started, (type(exc).__name__, None, None)
    took = perf_counter() - started
    nodes = getattr(result.stats, "nodes_expanded", None)
    return took, (result.status, nodes, sorted(result.model.items()) if result.sat else None)


def compare(sides, workload, instances, passes: int):
    """Per side, each instance's minimum time; and per side, the outcomes."""
    best = [[float("inf")] * len(instances) for _ in sides]
    outcomes = [[None] * len(instances) for _ in sides]
    for p in range(passes):
        for i, inst in enumerate(instances):
            for s in ((0, 1) if (p + i) % 2 == 0 else (1, 0)):
                gc.collect()
                took, outcome = run_one(sides[s], workload, inst.text)
                best[s][i] = min(best[s][i], took)
                if p == 0:
                    outcomes[s][i] = outcome
    return best, outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a", help="checkout whose src/gixsat is side A (the baseline)")
    ap.add_argument("tree_b", help="checkout whose src/gixsat is side B (the change)")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, help="instances (default: those of a 30 s benchmark run)")
    ap.add_argument("--passes", type=int, default=7)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    count = workloads.instance_count(workload, 30) if args.count is None else args.count
    if count < 1 or args.passes < 1:
        ap.error("--count and --passes must be at least 1")

    sides = (load(args.tree_a, "gixsat_a"), load(args.tree_b, "gixsat_b"))
    instances = workloads.build(sides[0], workload, args.seed, count)
    best, outcomes = compare(sides, workload, instances, args.passes)
    same = outcomes[0] == outcomes[1]
    for i, (a, b) in enumerate(zip(*outcomes)):
        if a != b:
            differ = " (models differ)" if a[:2] == b[:2] else ""
            print(f"c instance {i}: A {a[:2]} B {b[:2]}{differ}")
    decided = [i for i in range(count)
               if {outcomes[0][i][0], outcomes[1][i][0]} <= {"SAT", "UNSAT"}]
    sums = [sum(side[i] for i in decided) * 1e3 for side in best]
    print(f"c {args.workload} seed={args.seed} count={count} passes={args.passes} "
          f"decided={len(decided)}")
    for label, tree, total in zip("AB", (args.tree_a, args.tree_b), sums):
        print(f"{label} {tree} sum_of_minima_ms={total:.2f}")
    print(f"ratio A/B {sums[0] / sums[1]:.4f}" if sums[1] else "ratio A/B n/a")
    print(f"outcomes identical: {'yes' if same else 'no'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
