"""Seeded instance families for the benchmark workloads.

Instance ``i`` of a workload is a pure function of (workload, seed, i), so a
run with fewer instances solves a prefix of a longer run's instances, and the
committed expected statuses of the default seed cover every shorter run.
Each family cycles through a fixed list of slots; a slot fixes the instance
shape (size, clause lengths, targets) and the seed draws everything else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Instance:
    index: int
    kind: str          # family slot label, e.g. "g2-unplanted"
    text: str          # "p gxsat" text handed to textio.parse
    known_sat: bool    # satisfiable by construction


@dataclass(frozen=True)
class Workload:
    name: str
    module: str        # gixsat module holding the solver
    solver: str        # solver function name in that module
    per_second: float  # instances per second of run length
    make: Callable     # (gx, rng, seed, i) -> (kind, Formula, known_sat)


# never fewer instances, so that ten can lie beyond the tail percentile
MIN_COUNT = 12


def instance_seed(seed: int, i: int) -> int:
    """Generator seed of instance i; distinct for every (seed, i) with i < 10**6."""
    return seed * 1_000_003 + i


def _bnb(gx, rng, seed, i):
    s = instance_seed(seed, i)
    if i % 3 != 2:
        spec = gx.generator.GenSpec(num_vars=48, num_clauses=24, min_len=5, max_len=5,
                                    max_target=2, neg_prob=0.0, seed=s)
        return "g2-unplanted", gx.generator.generate(spec)[0], False
    spec = gx.generator.GenSpec(num_vars=38, num_clauses=19, min_len=6, max_len=8,
                                max_target=4, neg_prob=0.0, planted=True, seed=s)
    return "g34-planted", gx.generator.generate(spec)[0], True


def _mitm(gx, rng, seed, i):
    s = instance_seed(seed, i)
    slot = i % 4
    if slot == 0:
        spec = gx.generator.GenSpec(num_vars=34, num_clauses=17, min_len=4, max_len=6,
                                    max_target=2, planted=True, seed=s)
        return "planted-t2", gx.generator.generate(spec)[0], True
    if slot == 1:
        spec = gx.generator.GenSpec(num_vars=32, num_clauses=16, min_len=4, max_len=6,
                                    max_target=3, planted=True, seed=s)
        return "planted-t3", gx.generator.generate(spec)[0], True
    if slot == 2:
        spec = gx.generator.GenSpec(num_vars=30, num_clauses=15, min_len=4, max_len=6,
                                    max_target=4, seed=s)
        return "unplanted-t4", gx.generator.generate(spec)[0], False
    # one wide exactly-1 clause: the boundary clause is enumerated as a full
    # product over its inside variables, for two index entries
    width = 20 + (i // 4) % 5
    lits = [v if rng.random() < 0.5 else -v for v in range(1, width + 1)]
    rng.shuffle(lits)
    return f"exactly1-w{width}", gx.formula.Formula(width, [gx.formula.Clause(1, lits)]), True


# Chain lengths per slot: 34 short chains, log-spaced over 100..300 clauses,
# one long chain, and one past the interpreter's default recursion limit
# (1000 frames), which the recursive endgame cannot solve today. Successful
# slots stay far enough below 1000 clauses that the few extra frames of the
# tracing wrappers cannot change an outcome.
_SHORT = tuple(round(100 * 3 ** (k / 33)) for k in range(34))
CHAIN_LENGTHS = _SHORT[:1] + (1050,) + _SHORT[1:17] + (840,) + _SHORT[17:]


def _chain(gx, rng, seed, i):
    length = CHAIN_LENGTHS[i % len(CHAIN_LENGTHS)]
    # clause k holds the variable it shares with clause k-1, three private
    # variables and the variable it shares with clause k+1; exactly-2 of 5 is
    # satisfiable whatever the two shared variables take, so chains are SAT
    clauses = []
    for k in range(length):
        lits = [v if rng.random() < 0.5 else -v for v in range(4 * k + 1, 4 * k + 6)]
        clauses.append(gx.formula.Clause(2, lits))
    kind = "chain-past-limit" if length >= 1000 else "chain"
    return kind, gx.formula.Formula(4 * length + 1, clauses), True


# BENCHMARK.json and README.md say why each workload is in the benchmark
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bnb_hard",
            module="dpll",
            solver="solve_auto",
            per_second=22.0,
            make=_bnb,
        ),
        Workload(
            name="mitm_split",
            module="mitm",
            solver="solve_mitm",
            per_second=9.0,
            make=_mitm,
        ),
        Workload(
            name="chain_endgame",
            module="dpll",
            solver="solve_auto",
            per_second=1.2,
            make=_chain,
        ),
    )
}


def instance_count(workload: Workload, seconds: float) -> int:
    return max(MIN_COUNT, round(workload.per_second * seconds))


def build(gx, workload: Workload, seed: int, count: int) -> list[Instance]:
    """Generate and serialise the first ``count`` instances of a workload."""
    out = []
    for i in range(count):
        rng = random.Random(instance_seed(seed, i))
        kind, formula, known_sat = workload.make(gx, rng, seed, i)
        out.append(Instance(i, kind, gx.textio.serialize(formula), known_sat))
    return out
