#!/usr/bin/env python3
"""Write expected.json: the status of every default-seed benchmark instance.

    python3 perfbench/make_expected.py

Each instance is decided twice, by the workload's solver and by an
independent one (g2 instances also by the g4 rules; MITM instances also by
branch and bound), and the two must agree. Satisfiable-by-construction
instances are recorded as SAT without solving when the workload's solver
cannot finish them (the chains past the recursion limit). Every SAT model is
verified on the parsed formula. The instance count per workload is the one
a run of ``run_seconds`` (BENCHMARK.json) solves.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def cross_solver(gx, workload):
    if workload.module == "mitm":
        return gx.dpll.solve_auto
    return gx.dpll.solve_g4


def status_of(gx, solver, inst) -> str:
    formula = gx.textio.parse(inst.text)
    result = solver(formula)
    if result.sat and not gx.formula.evaluate(formula, result.model):
        raise SystemExit(f"instance {inst.index} ({inst.kind}): model fails verification")
    return result.status


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    gx = run.load_gixsat()
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        count = workloads.instance_count(workload, seconds)
        solver = getattr(getattr(gx, workload.module), workload.solver)
        statuses = []
        for inst in workloads.build(gx, workload, run.DEFAULT_SEED, count):
            try:
                first = status_of(gx, solver, inst)
            except RecursionError:
                if not inst.known_sat:
                    raise
                first = "SAT"
            second = "SAT" if inst.known_sat else status_of(gx, cross_solver(gx, workload), inst)
            if first != second:
                raise SystemExit(f"{name} instance {inst.index}: solvers disagree ({first} vs {second})")
            statuses.append(first)
        out[name] = statuses
        print(f"{name}: {count} instances, {statuses.count('SAT')} SAT", file=sys.stderr)
    with open(run.EXPECTED, "w") as fh:
        json.dump({"seed": run.DEFAULT_SEED, "run_seconds": seconds, "workloads": out}, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
