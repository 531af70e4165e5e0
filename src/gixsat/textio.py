"""Text format: an extended DIMACS dialect for counted clauses.

Grammar: comment lines start with 'c'; the header is "p gxsat <n> <m>";
each clause is "<target> <lit> ... 0" with signed nonzero integers and may
span lines until its 0 terminator. Putting the target first (rather than
as a trailing annotation) makes plain CNF tools fail loudly instead of
silently misreading counted clauses. Exactly-1 instances are ordinary
files with every target 1.
"""

from __future__ import annotations

from bisect import bisect_right

from .formula import MAX_TARGET, Clause, Formula


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse(text: str) -> Formula:
    lines = text.splitlines()
    header = bad = None  # bad: (line, text) of the first token that is not an int
    ints, marks = [], []  # clause tokens; (offset of its first token, line) per data line
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "gxsat":
                raise ParseError("header must be 'p gxsat <vars> <clauses>'", lineno)
            try:
                header = (int(parts[2]), int(parts[3]), lineno)
            except ValueError:
                raise ParseError("header counts must be integers", lineno) from None
            if header[0] < 0 or header[1] < 0:
                raise ParseError("header counts must be nonnegative", lineno)
            continue
        if header is None:
            raise ParseError("clause data before 'p gxsat' header", lineno)
        if bad is None:  # clause parsing stops at the bad token
            marks.append((len(ints), lineno))
            parts = line.split()
            try:
                ints += list(map(int, parts))
            except ValueError:
                for tok in parts:
                    try:
                        ints.append(int(tok))
                    except ValueError:
                        bad = (lineno, tok)
                        break
    if header is None:
        raise ParseError("missing 'p gxsat' header", len(lines) or 1)
    num_vars, num_clauses, _ = header

    def line_of(pos: int) -> int:
        return marks[bisect_right(marks, pos, key=lambda mark: mark[0]) - 1][1]

    clauses = []
    pos, end = 0, len(ints)
    ints.append(0)  # an unterminated clause ends at end
    while pos < end:
        target = ints[pos]
        if target < 0:
            raise ParseError(f"clause target {target} is negative", line_of(pos))
        if target > MAX_TARGET:
            raise ParseError(f"clause target {target} exceeds {MAX_TARGET}", line_of(pos))
        stop = ints.index(0, pos + 1)
        lits = ints[pos + 1:stop]
        if lits and (min(lits) < -num_vars or max(lits) > num_vars):
            k = next(k for k, lit in enumerate(lits) if not -num_vars <= lit <= num_vars)
            raise ParseError(f"literal {lits[k]} out of range 1..{num_vars}", line_of(pos + 1 + k))
        if stop == end:
            if bad is not None:
                raise ParseError(f"expected literal, got {bad[1]!r}", bad[0])
            raise ParseError("clause missing its 0 terminator", line_of(end - 1))
        occ = {}
        for lit in lits:
            occ[lit] = occ.get(lit, 0) + 1
        c = Clause.__new__(Clause)
        c.target, c.occ = target, occ
        clauses.append(c)
        pos = stop + 1
    if bad is not None:
        raise ParseError(f"expected clause target, got {bad[1]!r}", bad[0])
    if len(clauses) != num_clauses:
        raise ParseError(
            f"header declared {num_clauses} clauses, found {len(clauses)}",
            line_of(end - 1) if end else header[2],
        )
    f = Formula.__new__(Formula)  # every literal is in range: skip Formula's check
    f.num_vars, f.clauses = num_vars, clauses
    return f


def serialize(formula: Formula) -> str:
    """Canonical text: one clause per line, literals sorted by (var, polarity)."""
    lines = [f"p gxsat {formula.num_vars} {len(formula.clauses)}"]
    for c in formula.clauses:
        parts = [str(c.target)] + [str(l) for l in c.expanded()] + ["0"]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
