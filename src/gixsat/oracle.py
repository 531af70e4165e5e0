"""Ground-truth brute force: exhaustive decision and model counting.

No pruning anywhere; correctness over speed. The enumeration is vectorised
with numpy in blocks, but every one of the 2^n assignments is checked.
Variable 1 is the lowest-order bit of the assignment index, so first_model
is reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .formula import Clause, Formula

DEFAULT_LIMIT = 24
_BLOCK_BITS = 18


@dataclass
class OracleReport:
    model_count: int
    first_model: Optional[dict[int, int]] = None

    @property
    def sat(self) -> bool:
        return self.model_count > 0


def env_limit() -> int:
    """The variable cap: GIXSAT_ORACLE_LIMIT, or DEFAULT_LIMIT when unset."""
    raw = os.environ.get("GIXSAT_ORACLE_LIMIT")
    if raw is None:
        return DEFAULT_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError(f"GIXSAT_ORACLE_LIMIT must be a non-negative integer, got {raw!r}")
    return limit


def brute_solve(formula: Formula) -> OracleReport:
    """Count satisfying assignments by checking all 2^n of them (n <= env_limit())."""
    limit = env_limit()
    n = formula.num_vars
    if n > limit:
        raise ValueError(f"oracle refuses n={n} > limit {limit}")
    total = 1 << n
    count = 0
    first_idx = None
    block = 1 << min(_BLOCK_BITS, n)
    for start in range(0, total, block):
        stop = min(start + block, total)
        idx = np.arange(start, stop, dtype=np.int64)
        ok = np.ones(stop - start, dtype=bool)
        for c in formula.clauses:
            acc = np.zeros(stop - start, dtype=np.int64)
            for lit, mult in c.occ.items():
                bit = (idx >> (abs(lit) - 1)) & 1
                truth = bit if lit > 0 else 1 - bit
                acc += mult * truth
            ok &= acc == c.target
        hits = int(ok.sum())
        count += hits
        if hits and first_idx is None:
            first_idx = int(idx[np.argmax(ok)])
    first_model = None
    if first_idx is not None:
        first_model = {v: (first_idx >> (v - 1)) & 1 for v in range(1, n + 1)}
    return OracleReport(model_count=count, first_model=first_model)


def count_clause_solutions(clause: Clause) -> int:
    """Assignments of Var(C) giving exactly `target` true literals."""
    variables = sorted(clause.variables())
    count = 0
    for values in product((0, 1), repeat=len(variables)):
        model = dict(zip(variables, values))
        acc = 0
        for lit, mult in clause.occ.items():
            truth = model[abs(lit)] if lit > 0 else 1 - model[abs(lit)]
            acc += mult * truth
        if acc == clause.target:
            count += 1
    return count
