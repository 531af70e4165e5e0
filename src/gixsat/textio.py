"""Text format: an extended DIMACS dialect for counted clauses.

Grammar: comment lines start with 'c'; the header is "p gxsat <n> <m>";
each clause is "<target> <lit> ... 0" with signed nonzero integers and may
span lines until its 0 terminator. Every count, target and literal token is
ASCII -?[0-9]+. Putting the target first (rather than as a trailing
annotation) makes plain CNF tools fail loudly instead of silently misreading
counted clauses. Exactly-1 instances are ordinary files with every target
1.
"""

from __future__ import annotations

from .formula import MAX_TARGET, Clause, Formula


def _ascii_int(tok: str) -> int:
    """int(tok) for an ASCII -?[0-9]+ token; int() alone also reads '1_0',
    '+1' and non-ASCII digits."""
    if tok.isascii() and tok.lstrip("-").isdigit():
        return int(tok)
    raise ValueError(tok)


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse(text: str) -> Formula:
    """One pass over the lines. A header fault is raised on its line; the first
    clause fault (a token that is not ASCII -?[0-9]+, a target outside 0..4, a
    literal out of range) is held while the scan goes on, so a header fault
    on a later line wins over it. Then come a missing header, the held fault,
    a clause missing its 0 terminator and a wrong clause count, in that order.
    Lines end at LF, CRLF or CR only, not at a form feed or NEL as in splitlines."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:  # the empty rest after a final line end, or an empty text
        lines.pop()
    # int() reads exactly -?[0-9]+ in an ASCII text without '_' or '+'
    num = int if text.isascii() and "_" not in text and "+" not in text else _ascii_int
    header = fault = occ = None  # occ: literal counts of the open clause, None between clauses
    clauses = []
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
                num_vars, num_clauses = _ascii_int(parts[2]), _ascii_int(parts[3])
            except ValueError:
                raise ParseError("header counts must be integers", lineno) from None
            if num_vars < 0 or num_clauses < 0:
                raise ParseError("header counts must be nonnegative", lineno)
            header = last = lineno  # last: the header's line, then the last clause line's
            continue
        if header is None:
            raise ParseError("clause data before 'p gxsat' header", lineno)
        last = lineno
        if fault is not None:  # held to the end of the scan, so a later header fault wins
            continue
        for tok in line.split():
            try:
                val = num(tok)
            except ValueError:
                expected = "clause target" if occ is None else "literal"
                fault = (f"expected {expected}, got {tok!r}", lineno)
                break
            if occ is None:
                if not 0 <= val <= MAX_TARGET:
                    why = "is negative" if val < 0 else f"exceeds {MAX_TARGET}"
                    fault = (f"clause target {val} {why}", lineno)
                    break
                target, occ = val, {}
            elif val == 0:
                c = Clause.__new__(Clause)
                c.target, c.occ = target, occ
                clauses.append(c)
                occ = None
            elif -num_vars <= val <= num_vars:
                occ[val] = occ.get(val, 0) + 1
            else:
                fault = (f"literal {val} out of range 1..{num_vars}", lineno)
                break
    if header is None:
        raise ParseError("missing 'p gxsat' header", len(lines) or 1)
    if fault is not None:
        raise ParseError(*fault)
    if occ is not None:
        raise ParseError("clause missing its 0 terminator", last)
    if len(clauses) != num_clauses:
        raise ParseError(f"header declared {num_clauses} clauses, found {len(clauses)}", last)
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
