#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the gixsat solvers.

    python3 perfbench/run.py --workload bnb_hard --seed 3 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``. One
process, one thread; instances are solved one after another (closed loop).

A run builds the workload's instances from the seed (set-up, repeated and
timed), then solves every instance once: ``textio.parse`` of its text and the
solver call. Answers are checked outside the timed region: every SAT model is
re-verified with ``formula.evaluate`` on the parsed formula, satisfiable-by-
construction instances must be SAT, and under the default seed each status
must match ``expected.json``. A wrong answer exits with status 3 and prints
no metrics. An exception from the library is a failed operation, recorded by
type; it counts as infinitely slow and as undecided. While run time remains,
instances are solved again in order, and each instance's latency is the
median of its samples. Times are rescaled to a fixed host speed by a
reference loop timed between instances (``HostClock``); wall-clock figures
are kept in the details.

With ``--trace 0`` the result line holds the end-to-end metrics. With
``--trace 1`` each instance is solved once untraced and once with every
public gixsat function wrapped (see ``tracing.py``); the result line holds
the per-layer metrics, and the spans are written to ``perfbench/out/``.
The last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 11
REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW_S = 1.0
REFERENCE_WARMUP_ROUNDS = 2_000
# a fixed duration for reference_work(), within the 3-6 ms it took on the
# baseline machine (perfbench/baseline.json); it sets only the scale of the
# rescaled figures
REFERENCE_NOMINAL_S = 0.004
MODULES = ("formula", "simplify", "analysis", "dpll", "mitm", "textio", "generator")
EXIT_WRONG = 3

import workloads  # noqa: E402  (sibling modules; the script directory is on sys.path)
from tracing import NAMES, Tracer  # noqa: E402


class WrongAnswer(Exception):
    """The library returned an answer the checks refute."""


@dataclass
class Solved:
    """Outcome of one instance in one pass."""

    started: float                    # perf_counter() at the start
    seconds: float
    status: str                       # "SAT", "UNSAT" or "error"
    error: Optional[str] = None       # exception type of a failed operation
    message: str = ""
    stats: object = None
    model: Optional[dict] = None


@dataclass
class Run:
    first: list                                   # Solved per instance, first pass
    raw: list                                     # (start, wall seconds) per instance, all passes
    samples: list                                 # the same at nominal host speed
    repeats: int = 0                              # solves after the first pass


@dataclass(frozen=True)
class Checker:
    """Untraced parse and evaluate, taken before any wrapper is installed."""

    parse: object
    evaluate: object
    expected: list                                # statuses under the default seed


def reference_work(rounds: int = 12_000) -> int:
    """A fixed pure-Python loop (dict, tuple and list traffic) timing the host."""
    table: dict = {}
    items: list = []
    acc = 0
    for i in range(rounds):
        key = (i * 7919) & 511
        table[key] = table.get(key, 0) + i
        items.append((key, i & 3))
        if len(items) > 64:
            acc += sum(m for _, m in items)
            items = []
    return acc + len(table)


class HostClock:
    """Samples reference_work() between instances to follow the host's speed.

    The host is shared, and its speed drifts by tens of percent within
    seconds. ``nominal`` rescales a measured interval by the median reference
    sample within REFERENCE_WINDOW_S of it, to the time it would take on a
    host that runs reference_work() in REFERENCE_NOMINAL_S.
    """

    def __init__(self):
        self.at: list[float] = []         # sample midpoints, increasing
        self.took: list[float] = []       # sample durations
        self._last = -math.inf

    def sample(self) -> None:
        reference_work(REFERENCE_WARMUP_ROUNDS)  # the instance before may have evicted its data
        started = perf_counter()
        reference_work()
        self._last = perf_counter()
        self.at.append((started + self._last) / 2)
        self.took.append(self._last - started)

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample()

    def nominal(self, started: float, seconds: float) -> float:
        lo = bisect.bisect_left(self.at, started - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(self.at, started + seconds + REFERENCE_WINDOW_S)
        if lo == hi:  # no sample close by: the nearest one on each side
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return seconds * REFERENCE_NOMINAL_S / statistics.median(self.took[lo:hi])


def load_gixsat():
    """Import the library from src/ afresh; returns a namespace of its modules."""
    if not os.path.isfile(os.path.join(SRC, "gixsat", "__init__.py")):
        raise SystemExit(f"error: no gixsat package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for key in [k for k in sys.modules if k == "gixsat" or k.startswith("gixsat.")]:
        del sys.modules[key]
    gx = argparse.Namespace(package=importlib.import_module("gixsat"))
    for name in MODULES:
        setattr(gx, name, importlib.import_module(f"gixsat.{name}"))
    if not os.path.abspath(gx.package.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: gixsat imported from {gx.package.__file__}, not {SRC}")
    return gx


def set_up(workload, seed: int, count: int, clock: HostClock):
    """Import, generate and serialise SETUP_REPEATS times; median seconds."""
    spans = []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        started = perf_counter()
        gx = load_gixsat()
        instances = workloads.build(gx, workload, seed, count)
        spans.append((started, perf_counter() - started))
    clock.sample()
    raw = statistics.median(took for _, took in spans)
    return gx, instances, raw, statistics.median(clock.nominal(*span) for span in spans)


def solve_one(gx, workload, inst) -> Solved:
    solver = getattr(getattr(gx, workload.module), workload.solver)
    parse = gx.textio.parse
    started = perf_counter()
    try:
        result = solver(parse(inst.text))
    except Exception as exc:  # noqa: BLE001  a raising operation is a failed one
        return Solved(started, perf_counter() - started, "error", type(exc).__name__, str(exc)[:200])
    elapsed = perf_counter() - started
    return Solved(started, elapsed, "SAT" if result.sat else "UNSAT", stats=result.stats,
                  model=result.model)


def check(checker: Checker, inst, solved: Solved, reference: Optional[Solved] = None) -> None:
    """Raise WrongAnswer unless the answer survives every check.

    A failed operation is not an answer; it must only fail the same way on
    every pass, like every answer must repeat its first pass's status.
    """
    where = f"instance {inst.index} ({inst.kind})"
    if reference is not None and (reference.status, reference.error) != (solved.status, solved.error):
        raise WrongAnswer(f"{where}: {reference.status}/{reference.error} on one pass, "
                          f"{solved.status}/{solved.error} on another")
    if solved.status == "error":
        return
    if solved.status == "SAT":
        formula = checker.parse(inst.text)
        model = solved.model
        if model is None or any(model.get(v) not in (0, 1) for v in range(1, formula.num_vars + 1)):
            raise WrongAnswer(f"{where}: SAT without a total 0/1 model")
        if not checker.evaluate(formula, model):
            raise WrongAnswer(f"{where}: model does not satisfy the formula")
    elif inst.known_sat:
        raise WrongAnswer(f"{where}: satisfiable by construction, reported UNSAT")
    if inst.index < len(checker.expected) and solved.status != checker.expected[inst.index]:
        raise WrongAnswer(f"{where}: reported {solved.status}, expected {checker.expected[inst.index]}")


def expected_statuses(workload, seed: int) -> list:
    """Committed statuses of the default seed's instances; empty for other seeds."""
    if seed != DEFAULT_SEED:
        return []
    with open(EXPECTED) as fh:
        data = json.load(fh)
    return data["workloads"][workload.name]


def solve_all(gx, checker: Checker, workload, instances, clock: HostClock) -> list:
    """One pass over the instances; returns the Solved of each."""
    out = []
    for inst in instances:
        gc.collect()
        clock.maybe_sample()
        solved = solve_one(gx, workload, inst)
        check(checker, inst, solved)
        out.append(solved)
    clock.sample()
    return out


def measure(gx, checker: Checker, workload, instances, seconds: float, clock: HostClock) -> Run:
    """First pass over every instance, then repeats in order while time remains.

    Failed operations are not repeated: they fail the same way each time.
    """
    began = perf_counter()
    first = solve_all(gx, checker, workload, instances, clock)
    run = Run(first, [[(s.started, s.seconds)] for s in first], [])
    ok = [i for i, s in enumerate(first) if s.status != "error"]
    while ok and perf_counter() - began < seconds:
        i = ok[run.repeats % len(ok)]
        gc.collect()
        clock.maybe_sample()
        solved = solve_one(gx, workload, instances[i])
        check(checker, instances[i], solved, first[i])
        run.raw[i].append((solved.started, solved.seconds))
        run.repeats += 1
    clock.sample()
    # rescale only now, when every interval has reference samples on both sides
    run.samples = [[clock.nominal(*timed) for timed in raw] for raw in run.raw]
    return run


def tail_rank(n: int) -> tuple[int, int]:
    """Highest whole percentile with at least ten samples beyond it, and its rank."""
    p = math.floor(100 * (n - 10) / n)
    return p, max(1, math.ceil(p * n / 100))


def latency_metrics(first: list, samples: list) -> dict:
    """Throughput and latency percentiles from per-instance seconds."""
    latency = sorted(statistics.median(s) * 1e3 if f.status != "error" else math.inf
                     for s, f in zip(samples, first))
    decided = sum(f.status != "error" for f in first)
    _, rank = tail_rank(len(latency))
    return {
        "solve_per_s": decided / sum(statistics.median(s) for s in samples),
        "solve_ms.p50": statistics.median(latency),
        "solve_ms.tail": latency[rank - 1],
    }


def end_to_end(run: Run, setup_raw: float, setup_s: float) -> tuple[dict, dict, dict]:
    """Bounded end-to-end metrics, the two exact ones, and run details.

    Times are at nominal host speed (HostClock); the wall-clock figures go
    into the details.
    """
    n = len(run.first)
    p, rank = tail_rank(n)
    nominal = latency_metrics(run.first, run.samples)
    raw = latency_metrics(run.first, [[took for _, took in r] for r in run.raw])
    metrics = {
        "solve_per_s": (nominal["solve_per_s"], "1/s"),
        "solve_ms.p50": (nominal["solve_ms.p50"], "ms"),
        "solve_ms.tail": (nominal["solve_ms.tail"], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    exact = {
        "search_nodes": (search_nodes(run.first), "count"),
        "failed_frac": (failed_frac(run.first), "ratio"),
    }
    detail = {"tail_percentile": p, "tail_samples_beyond": n - rank, "samples": n,
              "repeat_solves": run.repeats, "wall_clock": {**raw, "setup_s": setup_raw}}
    return metrics, exact, detail


def search_nodes(solved: list) -> int:
    return sum(getattr(s.stats, "nodes_expanded", 0) for s in solved if s.stats is not None)


def failed_frac(solved: list) -> float:
    return sum(s.status == "error" for s in solved) / len(solved)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer(solved: list, spans: dict, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of the traced pass; layers absent from a workload read 0."""
    ids = {name: i for i, name in enumerate(NAMES)}
    in_solve = spans["instance"] >= 0

    def pick(*names, solving=True):
        mask = spans["name"] == ids[names[0]]
        for name in names[1:]:
            mask |= spans["name"] == ids[name]
        return mask & in_solve if solving else mask & ~in_solve

    def total(key, mask):
        return float(spans[key][mask].sum())

    dpll_names = ("dpll.solve_g2", "dpll.solve_g3", "dpll.solve_g4", "dpll.solve_auto")
    dpll = pick(*dpll_names)
    top_dpll = dpll & ~np.isin(spans["parent"], np.flatnonzero(dpll))
    fixpoint = pick("simplify.simplify_to_fixpoint")
    assign, link = pick("formula.assign"), pick("formula.link")
    copy, evaluate = pick("formula.Formula.copy", "formula.Trail.copy"), pick("formula.evaluate")
    measure_ = pick("analysis.measure")
    cover, enum_, mitm = pick("mitm.choose_cover"), pick("mitm.enumerate_cover_side"), pick("mitm.solve_mitm")

    search = [s.stats for s in solved if s.stats is not None and hasattr(s.stats, "nodes_expanded")]
    mitm_stats = [s.stats for s in solved if s.stats is not None and hasattr(s.stats, "sweep_count")]
    nodes = sum(st.nodes_expanded for st in search)
    emitted = int(spans["flag"][enum_].sum())
    sweeps = sum(st.sweep_count for st in mitm_stats)
    index_sweep_s = total("self", mitm)
    enumerate_s = total("dur", enum_)
    assign_link = int((assign | link).sum())
    return {
        "search_nodes": (nodes, "count"),
        "failed_frac": (failed_frac(solved), "ratio"),
        "simplify.fixpoint_s": (total("self", fixpoint), "s"),
        "simplify.fixpoint_calls": (int(fixpoint.sum()), "count"),
        "simplify.unsat_frac": (_ratio(int(spans["flag"][fixpoint].sum()), int(fixpoint.sum())), "ratio"),
        "formula.assign_s": (total("self", assign), "s"),
        "formula.assign_calls": (int(assign.sum()), "count"),
        "formula.link_s": (total("self", link), "s"),
        "formula.link_calls": (int(link.sum()), "count"),
        "formula.conflict_frac": (_ratio(int(spans["flag"][assign | link].sum()), assign_link), "ratio"),
        "formula.copy_s": (total("self", copy), "s"),
        "formula.copy_calls": (int(copy.sum()), "count"),
        "formula.evaluate_s": (total("self", evaluate), "s"),
        "formula.evaluate_calls": (int(evaluate.sum()), "count"),
        "analysis.measure_s": (total("self", measure_), "s"),
        "analysis.measure_calls": (int(measure_.sum()), "count"),
        "dpll.self_s": (total("self", dpll), "s"),
        "dpll.ms_per_node": (_ratio(total("dur", top_dpll), nodes, 1e3), "ms/node"),
        "dpll.max_depth": (max((st.max_depth for st in search), default=0), "count"),
        "dpll.rule_fires": (sum(sum(st.rule_fires.values()) for st in search), "count"),
        "dpll.fallback_fires": (sum(sum(st.fallback_fires.values()) for st in search), "count"),
        "dpll.endgame_fires": (sum(st.rule_fires.get("g2.18", 0) for st in search), "count"),
        "mitm.cover_s": (total("self", cover), "s"),
        "mitm.enumerate_s": (enumerate_s, "s"),
        "mitm.emitted": (emitted, "count"),
        "mitm.enumerate_us_per_emitted": (_ratio(enumerate_s, emitted, 1e6), "us/emitted"),
        "mitm.index_size": (sum(st.index_size for st in mitm_stats), "count"),
        "mitm.sweep_count": (sweeps, "count"),
        "mitm.index_sweep_s": (index_sweep_s, "s"),
        "mitm.sweep_us_per_assignment": (_ratio(index_sweep_s, sweeps, 1e6), "us/assignment"),
        "textio.parse_s": (total("self", pick("textio.parse")), "s"),
        "generator.generate_s": (total("self", pick("generator.generate", solving=False)), "s"),
        "trace_overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    }


def traced(gx, checker: Checker, workload, seed, instances, clock: HostClock):
    """Solve every instance untraced and traced, alternating which goes first.

    Back-to-back pairs see the same host, and alternating the order cancels
    any gain of the second solve from the first, so the traced-to-untraced
    ratio shows the cost of the wrappers. The instances are also generated
    once more under tracing, for the generator's spans.
    """
    tracer = Tracer()
    tracer.install()
    try:
        workloads.build(gx, workload, seed, len(instances))
    finally:
        tracer.uninstall()
    untraced, solved = [], []
    for inst in instances:
        for with_trace in (False, True) if inst.index % 2 == 0 else (True, False):
            gc.collect()
            clock.maybe_sample()
            if not with_trace:
                untraced.append(solve_one(gx, workload, inst))
                continue
            tracer.install()
            tracer.instance_id = inst.index
            try:
                solved.append(solve_one(gx, workload, inst))
            finally:
                tracer.instance_id = -1
                tracer.uninstall()
        check(checker, inst, untraced[-1])
        check(checker, inst, solved[-1], untraced[-1])
    clock.sample()
    return untraced, solved, tracer


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def emit(metrics: dict, shown: dict, solved: list) -> None:
    """Print every metric as a table, then the result line with ``metrics``."""
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    result = {
        "correct": True,
        "attempted": len(solved),
        "failed": sum(s.status == "error" for s in solved),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    count = workloads.instance_count(workload, args.seconds)
    gx, instances, setup_raw, setup_s = set_up(workload, args.seed, count, HostClock())
    checker = Checker(gx.textio.parse, gx.formula.evaluate, expected_statuses(workload, args.seed))
    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "instances": count,
        "recursion_limit": sys.getrecursionlimit(), "machine": machine(),
        "expected_statuses_checked": min(len(checker.expected), count),
    }
    try:
        if args.trace == 0:
            clock = HostClock()
            run = measure(gx, checker, workload, instances, args.seconds, clock)
            metrics, shown, more = end_to_end(run, setup_raw, setup_s)
            more["reference_s"] = statistics.median(clock.took)
            per_instance_ms = [statistics.median(t) * 1e3 for t in run.samples]
            detail.update(more)
            solved = run.first
        else:
            clock = HostClock()
            untraced, solved, tracer = traced(gx, checker, workload, args.seed, instances, clock)
            spans = tracer.arrays()
            metrics = per_layer(solved, spans,
                                sum(clock.nominal(s.started, s.seconds) for s in untraced),
                                sum(clock.nominal(s.started, s.seconds) for s in solved))
            shown = {}
            per_instance_ms = [clock.nominal(s.started, s.seconds) * 1e3 for s in solved]
            os.makedirs(OUT, exist_ok=True)
            span_file = os.path.join(OUT, f"spans-{workload.name}-{args.seed}.npz")
            tracer.save(span_file)
            detail["spans"] = {"count": len(spans["name"]), "file": os.path.relpath(span_file, ROOT)}
    except WrongAnswer as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        return EXIT_WRONG

    failures: dict = {}
    for s in solved:
        if s.error:
            failures.setdefault(s.error, {"count": 0, "message": s.message})["count"] += 1
    detail["failures"] = failures
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"run-{workload.name}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"detail": detail, "metrics": {**metrics, **shown},
                   "statuses": [s.error or s.status for s in solved],
                   "kinds": [inst.kind for inst in instances],
                   "solve_ms": per_instance_ms}, fh)
    print(json.dumps(detail))
    emit(metrics, shown, solved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
