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
from .oracle import OracleReport, brute_solve, count_clause_solutions
from .simplify import simplify_to_fixpoint

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
