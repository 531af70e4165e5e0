"""Core objects for counted-clause exact satisfiability.

Literals are nonzero ints in DIMACS style: +v for variable v, -v for its
negation. A clause holds a target count and a multiset of literals; a total
assignment satisfies it when exactly ``target`` of its literals, counted with
multiplicity, evaluate to true. A formula is a positional list of clauses
over variables 1..num_vars (duplicate clauses are legal and preserved).

Search state lives in a Trail: per variable either a constant or a link to
a surviving literal, so the variable's value can be recovered from any total
assignment of the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

# the largest clause target of the G2XSAT/G3XSAT/G4XSAT family
MAX_TARGET = 4
# the Trail states of the constants 0 and 1, shared by every assignment
_CONST = (("const", 0), ("const", 1))


def lit_key(lit: int):
    """Sort key: by variable, positive polarity first."""
    return (abs(lit), lit < 0)


def lit_value(lit: int, model: Mapping[int, int]) -> int:
    v = model[abs(lit)]
    return v if lit > 0 else 1 - v


class Clause:
    """A target count plus a literal multiset, stored as lit -> multiplicity."""

    __slots__ = ("target", "occ")

    def __init__(self, target: int, literals: Iterable[int] | Mapping[int, int] = ()):
        self.target = target
        occ: dict[int, int] = {}
        if isinstance(literals, Mapping):
            for lit, mult in literals.items():
                if lit == 0 or mult <= 0:
                    raise ValueError("bad literal/multiplicity in clause")
                occ[lit] = occ.get(lit, 0) + mult
        else:
            for lit in literals:
                if lit == 0:
                    raise ValueError("0 is not a literal")
                occ[lit] = occ.get(lit, 0) + 1
        self.occ = occ

    def size(self) -> int:
        """Total literal count, with multiplicity."""
        return sum(self.occ.values())

    def variables(self) -> set[int]:
        return {abs(l) for l in self.occ}

    def sorted_literals(self) -> list[int]:
        """Distinct literals in canonical order (that of lit_key)."""
        # descending puts v before -v; the stable sort by variable keeps that
        return sorted(sorted(self.occ, reverse=True), key=abs)

    def expanded(self) -> list[int]:
        """All literals with multiplicity, in canonical order."""
        out = []
        for lit in self.sorted_literals():
            out.extend([lit] * self.occ[lit])
        return out

    def copy(self) -> "Clause":
        c = Clause.__new__(Clause)
        c.target = self.target
        c.occ = dict(self.occ)
        return c

    def __eq__(self, other):
        return (
            isinstance(other, Clause)
            and self.target == other.target
            and self.occ == other.occ
        )

    def __repr__(self):
        return f"C{self.target}({' '.join(map(str, self.expanded()))})"


def true_count(clause: Clause, values: Mapping[int, int]) -> int:
    """Literals of clause made true by values, with multiplicity.

    Variables missing from values count as making no literal true.
    """
    count = 0
    for lit, m in clause.occ.items():
        if lit > 0:
            if values.get(lit) == 1:
                count += m
        elif values.get(-lit) == 0:
            count += m
    return count


class Formula:
    """Clause list over variables 1..num_vars."""

    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: Iterable[Clause] = ()):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        self.num_vars = num_vars
        self.clauses = list(clauses)
        for c in self.clauses:
            if c.target < 0:
                raise ValueError("negative clause target")
            for lit in c.occ:
                if not (1 <= abs(lit) <= num_vars):
                    raise ValueError(f"literal {lit} out of range 1..{num_vars}")

    def copy(self) -> "Formula":
        f = Formula.__new__(Formula)
        f.num_vars = self.num_vars
        f.clauses = [c.copy() for c in self.clauses]
        return f

    def __eq__(self, other):
        return (
            isinstance(other, Formula)
            and self.num_vars == other.num_vars
            and self.clauses == other.clauses
        )

    def __repr__(self):
        return f"Formula(n={self.num_vars}, {self.clauses})"


class Trail:
    """Per-variable search state, in the order the variables were eliminated.

    States: absent (unassigned), ("const", 0/1), or ("link", lit) meaning
    the variable equals the value of lit. A variable enters entries once and
    never leaves, so the dict's insertion order is the event order.
    """

    __slots__ = ("num_vars", "entries")

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.entries: dict[int, tuple] = {}

    def unassigned_vars(self) -> list[int]:
        return [v for v in range(1, self.num_vars + 1) if v not in self.entries]

    def check(self, var: int, state: tuple) -> None:
        """Raise ValueError unless var may take the state."""
        if not 1 <= var <= self.num_vars:
            raise ValueError(f"variable {var} out of range 1..{self.num_vars}")
        if var in self.entries:
            raise ValueError(f"variable {var} already eliminated")
        if state[0] == "link":
            partner = state[1]
            if not 1 <= abs(partner) <= self.num_vars:
                raise ValueError(f"link partner {partner} is not a literal over 1..{self.num_vars}")
            if abs(partner) == var:
                raise ValueError("cannot link a variable to itself")
            if abs(partner) in self.entries:
                raise ValueError("link partner must be unassigned")
        elif state[1] not in (0, 1):
            raise ValueError("value must be 0 or 1")

    def record(self, var: int, state: tuple) -> None:
        """Record the state of var, which check(var, state) has passed."""
        self.entries[var] = state

    def record_consts(self, values: Mapping[int, int]) -> None:
        """Record ("const", values[var]) for every var in values, in ascending order.

        Every var passes check before any entry is written, so a failure
        raises and leaves the trail as it was.
        """
        n, entries = self.num_vars, self.entries
        for var, value in values.items():
            # check's tests for a constant, inline; check itself runs only to
            # raise, naming the failure
            if not (1 <= var <= n and var not in entries and value in (0, 1)):
                self.check(var, ("const", value))
        for var in sorted(values):
            entries[var] = _CONST[values[var]]

    def copy(self) -> "Trail":
        t = Trail.__new__(Trail)
        t.num_vars = self.num_vars
        t.entries = dict(self.entries)
        return t

    def reconstruct(self, root_values: Optional[Mapping[int, int]] = None) -> dict[int, int]:
        """Extend values of the surviving variables to a total assignment.

        root_values values every unassigned variable; with None each takes
        0, and the model is the one dict built. One pass over the entries
        writes each constant, takes each linked variable out of the model
        and collects its link; the links are then replayed newest first, as
        a link refers to variables alive when it was recorded. A link whose
        partner has no value raises ValueError.
        """
        entries = self.entries
        model = dict.fromkeys(range(1, self.num_vars + 1), 0)
        if root_values is not None:
            for v in model:
                if v not in entries:
                    if v not in root_values:
                        raise ValueError(f"no value supplied for unassigned variable {v}")
                    model[v] = root_values[v]
        links = []
        for v, (kind, arg) in entries.items():
            if kind == "const":
                model[v] = arg
            else:
                del model[v]
                links.append((v, arg))
        for v, partner in reversed(links):
            if abs(partner) not in model:
                raise ValueError("link chain reached an unvalued variable")
            model[v] = lit_value(partner, model)
        return model


class ResourceLimitError(RuntimeError):
    """Raised when a solve runs out of a resource: memory for the MITM
    tables, or the command line's --timeout."""


@dataclass
class SolveResult:
    sat: bool
    model: Optional[dict[int, int]] = None
    stats: object = None

    @property
    def status(self) -> str:
        return "SAT" if self.sat else "UNSAT"


def substitute(clause: Clause, var: int, state: tuple) -> Optional[Clause]:
    """The clause with var replaced as a Trail state says, or None on conflict.

    state is ("const", value) or ("link", partner). Occurrences of var and
    -var are removed; a constant lowers the target by the literals it makes
    true, and a link moves them onto partner / -partner, where any pairs
    created this way cancel against the target. A conflict is a target
    below 0 or above the remaining size. The input clause is not mutated.
    """
    occ = dict(clause.occ)
    p = occ.pop(var, 0)
    q = occ.pop(-var, 0)
    target = clause.target
    kind, arg = state
    if kind == "const":
        target -= p if arg == 1 else q
    else:
        if p:
            occ[arg] = occ.get(arg, 0) + p
        if q:
            occ[-arg] = occ.get(-arg, 0) + q
        pos = occ.get(arg, 0)
        neg = occ.get(-arg, 0)
        cancel = min(pos, neg)
        if cancel:
            target -= cancel
            for l, m in ((arg, pos - cancel), (-arg, neg - cancel)):
                if m:
                    occ[l] = m
                else:
                    occ.pop(l, None)
    if target < 0 or target > sum(occ.values()):
        return None
    nc = Clause.__new__(Clause)
    nc.target = target
    nc.occ = occ
    return nc


def _eliminate(formula: Formula, trail: Trail, var: int, state: tuple) -> Optional[Formula]:
    """Check var may take the Trail state, substitute it, record it.

    Returns the new formula, or None on conflict, leaving the trail untouched;
    the (formula, trail) pair should then be discarded by the caller.
    """
    trail.check(var, state)
    clauses = []
    for c in formula.clauses:
        if var in c.occ or -var in c.occ:
            c = substitute(c, var, state)
            if c is None:
                return None
        clauses.append(c)
    trail.record(var, state)
    out = Formula.__new__(Formula)
    out.num_vars = formula.num_vars
    out.clauses = clauses
    return out


def assign(formula: Formula, trail: Trail, var: int, value: int) -> Optional[Formula]:
    """Substitute var := value. Returns the new formula, or None on conflict."""
    return _eliminate(formula, trail, var, ("const", value))


def link(formula: Formula, trail: Trail, var: int, partner: int) -> Optional[Formula]:
    """Substitute var := partner (a literal over another variable).

    Occurrences of var become partner, occurrences of -var become -partner,
    and any partner/-partner pairs created this way cancel against the
    target. Returns None on conflict.
    """
    return _eliminate(formula, trail, var, ("link", partner))


def evaluate(formula: Formula, model: Mapping[int, int]) -> bool:
    """True iff every clause has exactly target true literals (with multiplicity).

    Strict: a clause variable without a value raises KeyError, so a partial
    model is never accepted.
    """
    for c in formula.clauses:
        count = 0
        try:
            for lit, m in c.occ.items():
                if lit > 0:
                    if model[lit] == 1:
                        count += m
                elif model[-lit] == 0:
                    count += m
        except KeyError:
            raise KeyError(min(c.variables().difference(model))) from None
        if count != c.target:
            return False
    return True
