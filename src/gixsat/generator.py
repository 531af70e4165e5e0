"""Seeded random instance generation, with an optional planted solution.

Random mode draws clause lengths, literals, and targets independently.
Planted mode first draws a hidden assignment and sets each clause's target
to the number of its literals the assignment makes true, resampling when
that count falls outside 1..max_target, so planted instances are
satisfiable by construction. After 200 resamples, or one that spent its
draw budget, the clause is built directly: a target is drawn from those the
spec can meet, and that many true and the rest false literals are drawn. A
clause holds only literals the spec allows (each at most max_repeat times,
one literal per variable when max_repeat is 1, only the signs neg_prob can
draw), however it is built; when no target can be met, generate raises
ValueError. Everything is a pure function of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .formula import MAX_TARGET, Clause, Formula


@dataclass(frozen=True)
class GenSpec:
    num_vars: int
    num_clauses: int
    min_len: int = 3
    max_len: int = 5
    max_target: int = 2
    neg_prob: float = 0.5
    max_repeat: int = 1
    planted: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.min_len < 1 or self.max_len < self.min_len:
            raise ValueError("bad clause length range")
        if not (1 <= self.max_target <= MAX_TARGET):
            raise ValueError(f"max_target must be 1..{MAX_TARGET}")
        if self.max_repeat < 1:
            raise ValueError("max_repeat must be >= 1")
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        if self.num_clauses < 0:
            raise ValueError("num_clauses must not be negative")
        if not (0.0 <= self.neg_prob <= 1.0):  # also rejects NaN
            raise ValueError("neg_prob must lie in [0, 1]")
        if self.max_repeat == 1 and self.max_len > self.num_vars:
            raise ValueError("distinct literals require max_len <= num_vars")
        # a clause holds each literal the signs allow at most max_repeat times
        capacity = self.num_vars * self.max_repeat * (2 if 0.0 < self.neg_prob < 1.0 else 1)
        if self.max_len > capacity:
            raise ValueError(f"max_len {self.max_len} exceeds the {capacity} literals the spec allows")


def _allowed(spec: GenSpec, counts: dict[int, int], lit: int) -> bool:
    return counts.get(lit, 0) < spec.max_repeat and not (spec.max_repeat == 1 and -lit in counts)


def _signs(spec: GenSpec) -> list[int]:
    """The signs neg_prob can draw."""
    return [s for s, p in ((1, 1.0 - spec.neg_prob), (-1, spec.neg_prob)) if p > 0]


def _draw_literals(rng: random.Random, spec: GenSpec, length: int) -> tuple[list[int], bool]:
    """Draw literals until the clause is full; once the draw budget is spent (a
    skewed neg_prob can do that), draw each slot left from the allowed literals.
    Also says whether the budget was spent."""
    lits: list[int] = []
    counts: dict[int, int] = {}
    draws_left = max(10000, 20 * length)  # a full clause takes about length * ln(length)
    while len(lits) < length:
        draws_left -= 1
        if draws_left < 0:
            signs = _signs(spec)
            lit = rng.choice([s * v for v in range(1, spec.num_vars + 1) for s in signs
                              if _allowed(spec, counts, s * v)])
        else:
            v = rng.randint(1, spec.num_vars)
            lit = v if rng.random() >= spec.neg_prob else -v
            if not _allowed(spec, counts, lit):
                continue
        counts[lit] = counts.get(lit, 0) + 1
        lits.append(lit)
    return lits, draws_left < 0


def _planted_fallback(rng: random.Random, spec: GenSpec, hidden: dict[int, int],
                      length: int) -> Clause:
    """A clause the hidden model meets, built directly: target true and
    length - target false literals the spec allows, target drawn from those
    that can be met."""
    pools = ([], [])  # the literals hidden makes false, and true
    signs = _signs(spec)
    for v in range(1, spec.num_vars + 1):
        for s in signs:
            pools[hidden[v] == (s > 0)].append(s * v)
    # each literal holds up to max_repeat copies; at max_repeat 1 a variable
    # gives one literal, and GenSpec keeps length within num_vars
    targets = [t for t in range(1, min(spec.max_target, length) + 1)
               if t <= len(pools[1]) * spec.max_repeat
               and length - t <= len(pools[0]) * spec.max_repeat]
    if not targets:
        raise ValueError(f"no planted clause of length {length} has a target in "
                         f"1..{spec.max_target} under this spec")
    target = rng.choice(targets)
    lits: list[int] = []
    counts: dict[int, int] = {}
    for k in range(length):
        lit = rng.choice([l for l in pools[k < target] if _allowed(spec, counts, l)])
        counts[lit] = counts.get(lit, 0) + 1
        lits.append(lit)
    return Clause(target, lits)


def generate(spec: GenSpec) -> tuple[Formula, Optional[dict[int, int]]]:
    """Build a formula (and the hidden model when planted)."""
    rng = random.Random(spec.seed)
    hidden = None
    if spec.planted:
        hidden = {v: rng.randint(0, 1) for v in range(1, spec.num_vars + 1)}
    clauses = []
    for _ in range(spec.num_clauses):
        length = rng.randint(spec.min_len, spec.max_len)
        if not spec.planted:
            lits, _ = _draw_literals(rng, spec, length)
            target = rng.randint(1, min(spec.max_target, length))
            clauses.append(Clause(target, lits))
            continue
        clause = None
        for _ in range(200):
            lits, spent = _draw_literals(rng, spec, length)
            count = sum(1 for l in lits if (hidden[abs(l)] if l > 0 else 1 - hidden[abs(l)]))
            if 1 <= count <= spec.max_target:
                clause = Clause(count, lits)
                break
            if spent:  # a skewed spec: the next draws would spend it again
                break
        if clause is None:
            clause = _planted_fallback(rng, spec, hidden, length)
        clauses.append(clause)
    return Formula(spec.num_vars, clauses), hidden
