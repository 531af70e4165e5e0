"""Exponential-space solver: asymmetric split plus vector matching.

One side of the variable split is a union of whole clauses (the cover) and
is enumerated clause by clause, generating only assignments that satisfy
every covered clause exactly. Each survivor is summarised by its
contribution vector: per remaining clause, how many literals it makes true.
Vectors index representative assignments in a table; a brute-force sweep of
the complement side then looks up the complementary vector it needs. One
clause may straddle the cut, in which case its inside part is enumerated
like a cover clause but only capped by the target, exactly as for the other
straddling clauses.

The cover fraction alpha defaults to the value balancing the per-variable
enumeration cost of the worst clause against the 2^((1-alpha) n) sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .analysis import alpha_for
from .formula import Clause, Formula, SolveResult, evaluate, true_count


class ResourceLimitError(RuntimeError):
    """Raised when the vector table cannot be held in memory."""


def default_alpha(max_target: int) -> float:
    """Split fraction for the worst single-occurrence clause of the class."""
    worst = {1: 3 ** (1.0 / 3.0),        # k-literal exactly-1: k^(1/k), peak k=3
             2: math.comb(5, 2) ** 0.2,  # exactly-2 peak at 5 literals
             3: math.comb(7, 3) ** (1.0 / 7.0),
             4: math.comb(9, 4) ** (1.0 / 9.0)}
    return alpha_for(worst[max(1, min(4, max_target))])[0]


@dataclass
class SplitPlan:
    alpha: float
    cover: list[int]                      # clause indices fully inside
    shared: list[int]                     # every other clause index
    boundary: Optional[int] = None        # straddling clause index, if any
    boundary_inside: frozenset = frozenset()
    covered_vars: tuple = ()
    complement_vars: tuple = ()
    free_vars: tuple = ()


@dataclass
class MitmStats:
    alpha: float = 0.0
    cover_size: int = 0
    covered_vars: int = 0
    complement_vars: int = 0
    index_size: int = 0
    sweep_count: int = 0


def choose_cover(formula: Formula, alpha: float) -> SplitPlan:
    """Greedy clause cover of about alpha * n constrained variables.

    Clauses join the cover largest-new-variable-count first (ties on index).
    The clause that would cross the cut-off may be split, keeping inside the
    number of its new variables that lands closest to the target (ties
    toward more inside). Variables in no clause are reported free.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be strictly between 0 and 1")
    constrained = set()
    for c in formula.clauses:
        constrained |= c.variables()
    goal = alpha * len(constrained)
    covered: set[int] = set()
    cover: list[int] = []
    boundary = None
    boundary_inside: frozenset = frozenset()
    remaining = set(range(len(formula.clauses)))
    while remaining and len(covered) < goal:
        pick = max(
            remaining,
            key=lambda i: (len(formula.clauses[i].variables() - covered), -i),
        )
        new_vars = sorted(formula.clauses[pick].variables() - covered)
        if len(covered) + len(new_vars) >= goal:
            best_h = min(
                range(len(new_vars) + 1),
                key=lambda h: (abs(len(covered) + h - goal), -h),
            )
            if best_h == len(new_vars):
                cover.append(pick)
                covered |= set(new_vars)
                remaining.remove(pick)
            elif best_h > 0:
                boundary = pick
                inside = set(new_vars[:best_h]) | (
                    formula.clauses[pick].variables() & covered
                )
                boundary_inside = frozenset(inside)
                covered |= set(new_vars[:best_h])
                remaining.remove(pick)
            break
        cover.append(pick)
        covered |= set(new_vars)
        remaining.remove(pick)
    shared = [i for i in range(len(formula.clauses)) if i not in cover and i != boundary]
    complement = sorted(constrained - covered)
    free = [v for v in range(1, formula.num_vars + 1) if v not in constrained]
    return SplitPlan(
        alpha=alpha,
        cover=cover,
        shared=shared,
        boundary=boundary,
        boundary_inside=boundary_inside,
        covered_vars=tuple(sorted(covered)),
        complement_vars=tuple(complement),
        free_vars=tuple(free),
    )


def _clause_extensions(clause: Clause, fixed: dict):
    """Assignments of the clause's unfixed variables and the resulting counts.

    Yields (extension dict, true-literal count over fixed plus extension).
    """
    base = true_count(clause, fixed)
    unfixed = sorted(v for v in clause.variables() if v not in fixed)
    for combo in product((0, 1), repeat=len(unfixed)):
        ext = dict(zip(unfixed, combo))
        yield ext, base + true_count(clause, ext)


def enumerate_cover_side(formula: Formula, plan: SplitPlan) -> Iterator[tuple[dict, tuple]]:
    """All covered-side assignments exactly satisfying the cover clauses.

    Each yield is (assignment over covered_vars, contribution vector). The
    vector lists, for every non-cover clause (straddling clause last), how
    many of its literals the assignment makes true; assignments pushing any
    entry past the clause target are discarded.
    """
    covered = set(plan.covered_vars)
    cover_clauses = [formula.clauses[i] for i in plan.cover]

    def emit(k: int, fixed: dict) -> Iterator[dict]:
        if k == len(cover_clauses):
            # give values to covered vars no cover clause mentions (boundary-only vars)
            rest = [v for v in plan.covered_vars if v not in fixed]
            for combo in product((0, 1), repeat=len(rest)):
                yield {**fixed, **dict(zip(rest, combo))}
            return
        c = cover_clauses[k]
        for ext, cnt in _clause_extensions(c, fixed):
            if cnt == c.target:
                yield from emit(k + 1, {**fixed, **ext})

    watch = [formula.clauses[i] for i in plan.shared]
    if plan.boundary is not None:
        watch.append(formula.clauses[plan.boundary])
    for assignment in emit(0, {}):
        vec = []
        ok = True
        for c in watch:
            cnt = true_count(c, assignment)
            if cnt > c.target:
                ok = False
                break
            vec.append(cnt)
        if ok:
            yield assignment, tuple(vec)


def solve_mitm(formula: Formula, alpha: Optional[float] = None) -> SolveResult:
    """Decide by cover-side enumeration against a complement sweep."""
    for c in formula.clauses:
        if c.target > 4:
            raise ValueError(f"solve_mitm handles targets up to 4, got {c.target}")
    if alpha is None:
        alpha = default_alpha(max((c.target for c in formula.clauses), default=1))
    plan = choose_cover(formula, alpha)
    stats = MitmStats(
        alpha=alpha,
        cover_size=len(plan.cover) + (plan.boundary is not None),
        covered_vars=len(plan.covered_vars),
        complement_vars=len(plan.complement_vars),
    )

    index: dict[tuple, dict] = {}
    try:
        for assignment, vec in enumerate_cover_side(formula, plan):
            if vec not in index:
                index[vec] = assignment
    except MemoryError as exc:
        raise ResourceLimitError("vector table exceeded available memory") from exc
    stats.index_size = len(index)
    if not index:
        return SolveResult(False, None, stats)

    watch = list(plan.shared)
    if plan.boundary is not None:
        watch.append(plan.boundary)
    watch_clauses = [formula.clauses[i] for i in watch]
    comp = list(plan.complement_vars)
    for bits in range(1 << len(comp)):
        stats.sweep_count += 1
        values = {v: (bits >> k) & 1 for k, v in enumerate(comp)}
        need = []
        ok = True
        for c in watch_clauses:
            want = c.target - true_count(c, values)
            if want < 0:
                ok = False
                break
            need.append(want)
        if not ok:
            continue
        rep = index.get(tuple(need))
        if rep is None:
            continue
        model = {v: 0 for v in plan.free_vars}
        model.update(rep)
        model.update(values)
        if not evaluate(formula, model):
            raise RuntimeError("internal error: matched vectors gave a bad model")
        return SolveResult(True, model, stats)
    return SolveResult(False, None, stats)
