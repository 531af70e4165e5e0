#!/usr/bin/env python3
"""Digest of the solver outcomes on a benchmark workload's instances.

    python3 scripts/outcome_digest.py --workload bnb_hard --seed 1 --count 300

Run from the repository root; the library is imported from ``src/`` and the
instances are built by ``perfbench/workloads.py``, exactly as the benchmark
builds them. Each instance's text is parsed and solved once. Its record holds
the status (or the exception type of a failed solve), the sorted model and
the deterministic counters of the solver's stats: nodes, rule, fallback and
simplification fires and fixpoint calls for the branch-and-bound solvers,
the cover and table sizes for MITM. No timing goes in.

The last line printed is ``<workload> seed=<S> count=<N> sha256=<hex>``, the
hash of all records in order, so two trees give the same line exactly when
every outcome and counter matches. ``--records`` prints each record first,
to find the instance where two trees differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

# counters of SearchStats and MitmStats; a stats object records those it has
STATS_FIELDS = (
    "nodes_expanded", "max_depth", "rule_fires", "fallback_fires", "simplify_fires",
    "fixpoint_calls", "fixpoint_unsat",
    "cover_size", "covered_vars", "complement_vars", "emitted", "index_size", "sweep_count",
)


def record(gx, workload, inst) -> dict:
    solver = getattr(getattr(gx, workload.module), workload.solver)
    try:
        result = solver(gx.textio.parse(inst.text))
    except Exception as exc:  # noqa: BLE001  a failed solve is an outcome too
        return {"index": inst.index, "error": type(exc).__name__}
    out = {"index": inst.index, "status": result.status,
           "model": sorted(result.model.items()) if result.sat else None}
    for name in STATS_FIELDS:
        if hasattr(result.stats, name):
            out[name] = getattr(result.stats, name)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--records", action="store_true", help="print every instance's record")
    args = ap.parse_args(argv)
    if args.count < 1:
        ap.error("--count must be at least 1")

    gx = argparse.Namespace(**{name: importlib.import_module(f"gixsat.{name}")
                               for name in ("dpll", "mitm", "formula", "generator", "textio")})
    workload = workloads.WORKLOADS[args.workload]
    digest = hashlib.sha256()
    outcomes = Counter()
    for inst in workloads.build(gx, workload, args.seed, args.count):
        rec = record(gx, workload, inst)
        line = json.dumps(rec, sort_keys=True)
        if args.records:
            print(line)
        digest.update(line.encode() + b"\n")
        outcomes[rec.get("status") or rec["error"]] += 1
    summary = " ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
    print(f"c outcomes {summary}")
    print(f"{args.workload} seed={args.seed} count={args.count} sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
