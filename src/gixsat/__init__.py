"""Exact-satisfiability toolkit for counted clauses (exactly-j-true, j <= 4)."""

from .formula import (
    Clause,
    Formula,
    SolveResult,
    Trail,
    assign,
    evaluate,
    link,
)
from .simplify import simplify_to_fixpoint

# the brute-force oracle uses numpy: its names load it on first use (PEP 562)
_ORACLE_NAMES = ("OracleReport", "brute_solve", "count_clause_solutions")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Clause",
    "Formula",
    "SolveResult",
    "Trail",
    "assign",
    "evaluate",
    "link",
    "OracleReport",
    "brute_solve",
    "count_clause_solutions",
    "simplify_to_fixpoint",
]
