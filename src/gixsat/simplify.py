"""Shared polynomial-time simplification rules.

simplify_to_fixpoint applies, in a fixed priority order, every reduction that
is forced regardless of branching:

  (a) reject clauses no counting argument can satisfy
  (b) cancel x / -x pairs against the target
  (c) falsify literals whose multiplicity exceeds the target
  (d) divide a clause through by a uniform literal multiplicity
  (e) turn 2-literal exactly-1 clauses into links
  (f) assign whole clauses whose target is 0 or equals their size
  (g) negate clauses whose target exceeds half their length
  (h) drop satisfied empty clauses

The result is a fixpoint: none of the rules applies to it. Unsatisfiability
is a normal outcome (returned as None), never an exception.
"""

from __future__ import annotations

from typing import Optional

from .formula import (
    Clause,
    Formula,
    Trail,
    apply_literal,
    link_literals,
)

_UNSAT = "unsat"
_NOFIRE = "nofire"


def _rule_a(f: Formula, trail: Trail):
    for c in f.clauses:
        if c.target < 0 or c.target > c.size():
            return _UNSAT
        if c.occ and len(c.variables()) == 1:
            v = next(iter(c.variables()))
            p = c.occ.get(v, 0)
            q = c.occ.get(-v, 0)
            if c.target not in (p, q):
                return _UNSAT
    return _NOFIRE


def _rule_b(f: Formula, trail: Trail):
    for i, c in enumerate(f.clauses):
        for v in sorted(c.variables()):
            p = c.occ.get(v, 0)
            q = c.occ.get(-v, 0)
            if p and q:
                cancel = min(p, q)
                nc = c.copy()
                nc.target -= cancel
                for lit, m in ((v, p - cancel), (-v, q - cancel)):
                    if m:
                        nc.occ[lit] = m
                    else:
                        nc.occ.pop(lit, None)
                f.clauses[i] = nc
                return f
    return _NOFIRE


def _rule_c(f: Formula, trail: Trail):
    for c in f.clauses:
        for lit in c.sorted_literals():
            if c.occ[lit] > c.target:
                nf = apply_literal(f, trail, lit, 0)
                return _UNSAT if nf is None else nf
    return _NOFIRE


def _rule_d(f: Formula, trail: Trail):
    for i, c in enumerate(f.clauses):
        if not c.occ:
            continue
        mults = set(c.occ.values())
        if len(mults) != 1:
            continue
        m = next(iter(mults))
        if m >= 2 and c.target % m == 0:
            nc = Clause(c.target // m, {lit: 1 for lit in c.occ})
            f.clauses[i] = nc
            return f
    return _NOFIRE


def _rule_e(f: Formula, trail: Trail):
    for c in f.clauses:
        if c.target == 1 and c.size() == 2 and len(c.occ) == 2:
            l1, l2 = c.sorted_literals()
            nf = link_literals(f, trail, l1, -l2)
            return _UNSAT if nf is None else nf
    return _NOFIRE


def _rule_f(f: Formula, trail: Trail):
    for c in f.clauses:
        if not c.occ:
            continue
        if c.target == 0:
            value = 0
        elif c.target == c.size():
            value = 1
        else:
            continue
        cur = f
        for lit in c.sorted_literals():
            cur = apply_literal(cur, trail, lit, value)
            if cur is None:
                return _UNSAT
        return cur
    return _NOFIRE


def _rule_g(f: Formula, trail: Trail):
    for i, c in enumerate(f.clauses):
        k = c.size()
        if k and all(m == 1 for m in c.occ.values()) and 2 * c.target > k:
            nc = Clause(k - c.target, [-lit for lit in c.occ])
            f.clauses[i] = nc
            return f
    return _NOFIRE


def _rule_h(f: Formula, trail: Trail):
    for i, c in enumerate(f.clauses):
        if c.target == 0 and not c.occ:
            del f.clauses[i]
            return f
    return _NOFIRE


_RULES = (_rule_a, _rule_b, _rule_c, _rule_d, _rule_e, _rule_f, _rule_g, _rule_h)


def _bound(f: Formula, trail: Trail):
    alive = f.num_vars - len(trail.entries)
    return (alive, f.total_occurrences(), len(f.clauses), sum(c.target for c in f.clauses))


def simplify_to_fixpoint(formula: Formula, trail: Trail) -> Optional[tuple[Formula, Trail]]:
    """Apply rules until none fires. None means unsatisfiable.

    The input formula is not mutated. The trail is extended in place by
    forced assignments and links; on an unsatisfiable outcome the pair must
    be discarded by the caller.
    """
    f = formula.copy()
    prev = None
    while True:
        fired = False
        for rule in _RULES:
            out = rule(f, trail)
            if out is _UNSAT:
                return None
            if out is not _NOFIRE:
                f = out
                fired = True
                break
        if not fired:
            return f, trail
        cur = _bound(f, trail)
        assert prev is None or cur < prev, "simplification failed to make progress"
        prev = cur
