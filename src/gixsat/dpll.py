"""Polynomial-space branch-and-bound solvers for targets up to 4.

Each solver interleaves the simplification fixpoint with a fixed priority
list of rules. A rule is its tag and its branch list, each branch a list of
assignments, links, or clause edits. The branches are mutually exclusive and
jointly cover every model of the formula: no branch means UNSAT, one branch
is a forced reduction, and two or more are a branching. The rule-18 endgame
has no branches; it carries the overlaps it decides the formula from. Rule
selection always picks the lowest applicable rule; inside a rule, ties break
on lowest clause index, then lowest variable.

Three rule sets share the engine; _TARGET_CAPS holds the largest clause
target of each (2, 3 and 4), read from its measure weights, and solve_auto
runs the first that covers a formula's largest target:

  g2 (targets <= 2): rules 8..18; rules 16/17 isolate and brute-force heavy
      variables (degree >= 3), rule 18 finishes the degree <= 2 remainder by
      component decomposition. Selection first passes over the clauses
      checking the fixpoint shape of each, until the first exactly-1 clause
      of 4 or more literals, which takes rule 8 at once. Failing one, it
      makes one clause pass (rules 10, 11 and 13 keep their first clause)
      and one pair pass over the occurrence map (_overlaps) in ascending
      (i, j) (rules 9, 12, 14 and 15 keep their first pair), then walks the
      priority list. Rules 10 and 11 look their clause's shape up in one
      table, _G2_DOUBLED, rules 9, 12 and 15 their pair's in _G2_RULE9,
      _G2_RULE12 and _G2_RULE15; the other rules bind the shared branch
      lists (_SPLIT, _PAIR2, ...) to the literals they pick.
      _overlaps builds the map in one pass over the clause variables,
      pairing a clause only with earlier clauses that hold one of its
      variables. Rules 16/17 read their heavy variables from the map. The
      rule-18 endgame reuses the map and variable lists, searches each
      component with one frame per clause, asserts that the values meet
      every clause target and records them all on the trail in one call.
  g3 (targets <= 3) and g4 (targets <= 4): one class scan, then tables.
      The first exactly-1 clause takes rule 6. Failing one, selection
      passes over the clauses once more, and every clause class (target t,
      has a repeated literal) keeps its lowest-index clause. For t = 2 up to
      the scheme's top target, a repeated-literal clause takes rule 2t + 3
      (7, 9, 11), looked up in a profile table, and a single-occurrence one
      rule 2t + 4 (8, 10, 12), looked up by (t, size) in _SINGLE.

Every prescription with branches is a table entry or a shared branch list,
a function from the literals its rule binds to its branches, and _rule
alone calls one and builds the Rule.
Where a clause shape has no specific prescription, the engine falls back to
branching the lowest relevant variable 0/1 under a tag ending in
".fallback" (_is_fallback). SearchStats.fallback_fires reads those tags out
of the rule_fires tally, for audit.

A solve keeps one simplification worklist (simplify._Worklist) as its
search state, built once from the input formula and settled to a fixpoint.
A forced rule's branch edits it in place and it is settled again; a true,
false or link action is one eliminate call. At a branching rule each branch
but the last gets a fork of it (its own copies of the flat clause lists and
trail, sharing the Clause objects and the occurrence map; each worklist
copies a shared clause on its first edit and edits its copy in place after
that), so backtracking just drops the fork. The last branch takes the
worklist itself, which nothing reads afterwards, and only once every
earlier fork is dropped: a worklist must not be edited while a fork of it
is in use. Each child is settled, and under instrument its measure is
checked against the parent's, in one place. The worklist counts the
simplification steps of each rule (a)-(h) across the whole search, reported
as SearchStats.simplify_fires. Selection reads the compact formula the
worklist lists, whose clause j is the worklist's j-th live slot.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, product
from operator import neg
from types import SimpleNamespace
from typing import Optional

from .analysis import MEASURE_SCHEMES, measure
from .formula import (
    Clause,
    Formula,
    SolveResult,
    Trail,
    evaluate,
    lit_key,
    true_count,
)
from .simplify import RULE_LETTERS, _Worklist

# each scheme's largest clause target, the largest its measure weighs, in dispatch order
_TARGET_CAPS = {scheme: max(weights) for scheme, weights in MEASURE_SCHEMES.items()}


def _is_fallback(tag: str) -> bool:
    return tag.endswith(".fallback")


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    max_depth: int = 0
    rule_fires: Counter = field(default_factory=Counter)
    # the measure of the input, the measure checks and their failures are
    # taken only under instrument, and read 0 otherwise
    measure_at_root: float = 0.0
    measure_checks: int = 0
    measure_violations: list = field(default_factory=list)
    fixpoint_calls: int = 0
    fixpoint_unsat: int = 0
    # steps of each simplification rule, by letter (a)-(h)
    simplify_fires: dict = field(default_factory=dict)

    @property
    def fallback_fires(self) -> dict:
        return {tag: n for tag, n in self.rule_fires.items() if _is_fallback(tag)}


@dataclass
class Rule:
    """A rule's tag and its branch list, each branch a tuple of actions: no
    branch is UNSAT, one is forced, two or more are a branching. The rule-18
    endgame has no branches; it carries overlaps instead."""

    tag: str
    branches: tuple = ()
    # endgame: (shared, varlists) as selection built them, so they are built once
    overlaps: Optional[tuple] = field(default=None, compare=False, repr=False)


# A table entry is a tag and a function from the names its rule binds to
# its branch list; _rule calls it with the names, each a literal or a list
# of literals, as attributes of one argument.
# The shared lists: _SPLIT sets v true, then false; _PAIR2 sets p0 = -p1 or
# both false, _PAIR3 first both true, _PAIR4 each value of p0 and p1;
# _TWO_PAIRS sets p0 = -p1 and p2 = -p3, or p0 = p1 = -p2 = -p3. The other
# shared functions are prescriptions several entries make.

_SPLIT = lambda n: [[("true", n.v)], [("false", n.v)]]
_PAIR2 = lambda n: [[("link", n.p[0], -n.p[1])], [("false", n.p[0]), ("false", n.p[1])]]
_PAIR3 = lambda n: [[("true", n.p[0]), ("true", n.p[1])], *_PAIR2(n)]
_PAIR4 = lambda n: [[(a, n.p[0]), (b, n.p[1])] for a, b in product(("true", "false"), repeat=2)]
_TWO_PAIRS = lambda n: [[("link", n.p[0], -n.p[1]), ("link", n.p[2], -n.p[3])],
                        [("link", n.p[0], n.p[1]), ("link", n.p[2], n.p[3]),
                         ("link", n.p[1], -n.p[3])]]
_false = lambda lits: [("false", l) for l in lits]  # one action per literal
_UNSAT = lambda n: []
_REMOVE_J = lambda n: [[("remove", n.j)]]
_LINK = lambda n: [[("link", n.u, n.w)]]
_S_LINK = lambda n: [[("link", n.s[0], n.s[1])]]
_S0_TRUE = lambda n: [[("true", n.s[0])]]
_S0_FALSE = lambda n: [[("false", n.s[0])]]
_B_FALSE = lambda n: [_false(n.b)]
_X_TRUE = lambda n: [[("true", n.x)]]
_X_FALSE = lambda n: [[("false", n.x)]]
_X_TRUE_S0_TRUE = lambda n: [[("true", n.x), ("true", n.s[0])]]
_X_TRUE_S0_FALSE = lambda n: [[("true", n.x), ("false", n.s[0])]]
_X_TRUE_S_ANTI = lambda n: [[("true", n.x), ("link", n.s[0], -n.s[1])]]


def _rule(tag, branches, **names) -> Rule:
    """The rule a table entry prescribes: its branches bound to names."""
    return Rule(tag, tuple(map(tuple, branches(SimpleNamespace(**names)))))


def _apply_actions(w: _Worklist, actions) -> bool:
    """Apply a branch's actions to w; False on a conflict."""
    entries = w.trail.entries
    for act in actions:
        kind = act[0]
        if kind in ("true", "false"):
            # the literal the action makes false
            off = act[1] if kind == "false" else -act[1]
            st = entries.get(abs(off))
            if st is None:
                if not w.eliminate((off,)):
                    return False
            elif st[0] != "const":
                raise RuntimeError("prescription touches an eliminated variable")
            elif st[1] != (off < 0):
                return False
        elif kind == "link":
            # value(act[1]) = value(act[2]), eliminating var(act[1])
            if not w.eliminate((act[1],), partner=act[2]):
                return False
        elif kind == "add":
            w.add(Clause(act[1], act[2]))
        elif kind == "replace":
            w.replace(w.slot(act[1]), Clause(act[2], act[3]))
        elif kind == "remove":
            assert len(actions) == 1, "remove must be a branch's only action"
            w.delete(w.slot(act[1]))
        else:
            raise RuntimeError(f"unknown action {act!r}")
    return True


# ---------------------------------------------------------------------------
# shared per-clause views


def _overlaps(f: Formula) -> tuple[dict, list, list]:
    """The occurrence map of f, the clause overlaps read from it, and varlists.

    occurrences maps each variable to the ascending indices of the clauses
    holding it. shared[i] maps every other clause j holding a variable of
    clause i, in ascending j, to those variables in ascending order.
    varlists[i] lists the variables of clause i in ascending order.
    """
    varlists = [sorted(set(map(abs, c.occ))) for c in f.clauses]
    occurrences: dict[int, list[int]] = {}
    shared: list[dict[int, list[int]]] = []
    # one pass in ascending (j, v): a variable that earlier clauses hold
    # pairs clause j with each of them. Row j starts with those clauses,
    # sorted; each later clause then appends itself to it, so keys ascend.
    for j, vs in enumerate(varlists):
        earlier: dict[int, list[int]] = {}
        for v in vs:
            if v not in occurrences:
                occurrences[v] = [j]
                continue
            held = occurrences[v]
            for i in held:
                if i in earlier:
                    earlier[i].append(v)
                else:
                    earlier[i] = [v]
            held.append(j)
        if len(earlier) > 1:
            earlier = dict(sorted(earlier.items()))
        for i, common in earlier.items():
            shared[i][j] = common
        shared.append(earlier)
    return occurrences, shared, varlists


# ---------------------------------------------------------------------------
# g2 rule selection


def _select_g2(f: Formula) -> Rule:
    cls = f.clauses

    # fixpoint pass: rule 8 takes the first exactly-1 clause of 4 or more
    # literals at once; every clause up to it is checked
    for c in cls:
        if c.target == 1:
            size = c.size()
            assert size == len(c.occ) and c.occ.keys().isdisjoint(map(neg, c.occ)), \
                "g2 selection needs a simplification fixpoint: an exactly-1 clause " \
                "must hold distinct, unpaired literals"
            if size >= 4:
                return _rule("g2.8", _PAIR2, p=sorted(c.occ, key=abs))
        elif c.target == 2:
            assert max(c.occ.values(), default=0) <= 2 \
                and c.occ.keys().isdisjoint(map(neg, c.occ)), \
                "g2 selection needs a simplification fixpoint: an exactly-2 clause " \
                "must hold unpaired literals, each at most twice"
        else:
            raise AssertionError("g2 selection needs clause targets of 1 or 2")

    # clause pass: rules 10, 11 and 13 keep their first clause
    c1s = {}  # the 3-literal exactly-1 clauses by index
    first: dict = {}  # rule -> its first clause, or first pair (i, ci, j, cj, common)
    for i, c in enumerate(cls):
        if c.target == 1:
            if len(c.occ) == 3:
                c1s[i] = c
            continue
        doubled = sum(c.occ.values()) - len(c.occ)  # each multiplicity is 1 or 2
        if doubled:
            first.setdefault(10 if doubled >= 2 else 11, c)
        elif len(c.occ) == 4:
            first.setdefault(13, c)

    # pair pass in ascending (i, j): rules 9, 12, 14 and 15 keep their first pair
    occurrences, shared, varlists = _overlaps(f)
    for i, row in enumerate(shared):
        for j, common in row.items():
            if i in c1s and cls[j].target == 2:
                first.setdefault(12 if len(common) >= 2 else 14, (i, cls[i], j, cls[j], common))
            elif j > i and i in c1s and j in c1s:
                first.setdefault(9, (i, cls[i], j, cls[j], common))
            elif len(common) >= 2 and j > i and cls[i].target == cls[j].target == 2:
                first.setdefault(15, (i, cls[i], j, cls[j], common))

    # the priority walk
    if 9 in first:
        return _pair_rule(_G2_RULE9, *first[9])
    c = first.get(10) or first.get(11)
    if c is not None:
        p = sorted((l for l, m in c.occ.items() if m == 2), key=lit_key)
        s = sorted((l for l, m in c.occ.items() if m == 1), key=lit_key)
        key = len(p), len(s)
        if key == (1, 3):
            return _g2_rule11_len5(p[0], s, c1s.items())
        entry = _G2_DOUBLED.get(key) \
            or (("g2.10.branch", _PAIR2) if len(p) >= 2 else ("g2.11.long", _SPLIT))
        return _rule(*entry, p=p, s=s, x=p[0], v=p[0])
    if 12 in first:
        rule = _pair_rule(_G2_RULE12, *first[12])
        # only share3.flip3 with b empty, which rule (g) negates first, acts on nothing
        assert rule.branches != ((),), "flipped subset clause cannot be this short"
        return rule
    if 13 in first:
        lits = first[13].sorted_literals()
        c1_vars = set().union(*(c1.variables() for c1 in c1s.values()))
        weighted = [l for l in lits if abs(l) in c1_vars]
        if len(weighted) >= 2:
            return _rule("g2.13.two_weighted", _PAIR3, p=weighted)
        unweighted = [l for l in lits if l not in weighted]
        return _rule("g2.13.pairs", _TWO_PAIRS, p=unweighted + weighted)
    if 14 in first:
        return _rule("g2.14", _SPLIT, v=first[14][4][0])
    if 15 in first:
        key, names = _rule15_shape(f, *first[15])
        return _rule(*_G2_RULE15[key], **names)

    # rules 16/17: heavy variables, of degree >= 3 counting multiplicity.
    # Rules 10 and 11 take every clause with a doubled literal, and the clause
    # pass checked that no other literal repeats, so every multiplicity is 1
    # here and a variable's degree is the number of clauses holding it.
    heavies = sorted(v for v, held in occurrences.items() if len(held) >= 3)
    if heavies:
        return _g2_heavy(cls, heavies, occurrences, varlists)

    return Rule("g2.18", overlaps=(shared, varlists))


# Rules 10 (two or more doubled literals) and 11 (one) on an exactly-2
# clause, by (doubled, single) literal counts: p the doubled literals, s the
# singles, x = v = p[0]. An unlisted shape takes ("g2.10.branch", _PAIR2)
# under rule 10 and ("g2.11.long", _SPLIT) under rule 11; (1, 3), size 5, is
# _g2_rule11_len5.

_G2_DOUBLED = {
    **{(k, 1): ("g2.10.single0", _S0_FALSE) for k in (2, 3)},
    (2, 2): ("g2.10.link", _S_LINK),
    (1, 1): ("g2.11.len3", _X_TRUE_S0_FALSE),
    (1, 2): ("g2.11.len4", _S_LINK),
}

# Rules 9, 12 and 15 on a pair: each table maps a shape of the pair to a tag
# and a function of the names _pair_names binds. Rules 9 and 12 are keyed by
# (shared variables, flipped variables), rule 15 by _rule15_shape.

_G2_RULE9 = {
    **{(1, k): ("g2.9.share1", _SPLIT) for k in (0, 1)},
    (2, 0): ("g2.9.share2.link", lambda n: [[("link", n.a[0], n.b[0])]]),
    (2, 1): ("g2.9.share2.force", _S0_FALSE),
    (2, 2): ("g2.9.share2.flip2",
             lambda n: [[("false", n.a[0]), ("false", n.b[0]), ("link", n.f[0], -n.f[1])]]),
    (3, 0): ("g2.9.share3.dup", _REMOVE_J),
    (3, 1): ("g2.9.share3.unsat", _UNSAT),
    (3, 2): ("g2.9.share3.flip2", lambda n: [[("false", n.s[0]), ("link", n.f[0], -n.f[1])]]),
    (3, 3): ("g2.9.share3.unsat", _UNSAT),
}

_G2_RULE12 = {
    (2, 0): ("g2.12.share2.flip0", lambda n: [[("replace", n.j, 2, (-n.a[0], *n.b))]]),
    (2, 1): ("g2.12.share2.flip1",
             lambda n: [[("replace", n.j, 2, (n.s[0], n.s[0], n.a[0], *n.b))]]),
    (2, 2): ("g2.12.share2.flip2", lambda n: [[("replace", n.j, 1, (n.a[0], *n.b))]]),
    (3, 0): ("g2.12.share3.sub", lambda n: [[("replace", n.j, 1, tuple(n.b))]]),
    (3, 1): ("g2.12.share3.flip1",
             lambda n: [[("replace", n.j, 2, (n.s[0], n.s[0], n.s[1], n.s[1], *n.b))]]),
    (3, 2): ("g2.12.share3.flip2", _S0_FALSE),
    (3, 3): ("g2.12.share3.flip3", _B_FALSE),
}

_G2_RULE15 = {
    "dup": ("g2.15.dup", _REMOVE_J),
    # ("bare", flips, whether cj has literals of its own)
    **{("bare", k, own): entry for k, entry in enumerate([
        ("g2.15.subset", _B_FALSE),
        ("g2.15.flip1", lambda n: [[("true", n.f[0])]]),
        ("g2.15.flip2",
         lambda n: [[("replace", n.j, 2, (-n.f[0], -n.f[0], -n.f[1], -n.f[1], *n.b))]]),
    ]) for own in (False, True)},
    ("bare", 3, False): ("g2.15.flip3.unsat", _UNSAT),
    ("bare", 3, True): ("g2.15.flip3", lambda n: [[*_false(n.s), ("replace", n.j, 1, tuple(n.b))]]),
    ("one", 0): ("g2.15.one_extra.add", lambda n: [[("add", 1, (-n.a[0], *n.b))]]),
    ("one", 1): ("g2.15.one_extra.flip1", lambda n: [[("add", 1, tuple(n.s))], _false(n.s)]),
    ("one", 2): ("g2.15.one_extra.flip2",
                 lambda n: [[("add", 1, (*n.s, *n.a))], _false(n.s + n.a)]),
    ("one", 3): ("g2.15.one_extra.flip3", lambda n: [_false(n.s)]),
    ("one", 4): ("g2.15.one_extra.flip4", lambda n: [_false(n.a + n.s + n.b)]),
    "share2": ("g2.15.share2", _PAIR3),
    "share2.mixed": ("g2.15.share2.mixed", lambda n: [[("true", n.s[0]), ("true", n.f[0])],
                                                      [("true", n.s[0]), ("false", n.f[0])],
                                                      [("false", n.s[0])]]),
    "share3.common": ("g2.15.share3.common", lambda n: [_false(n.ri + n.rj),
                                                        [("add", 1, tuple(n.s))], _false(n.s)]),
    "share3.mixed": ("g2.15.share3.mixed", _PAIR2),
    "fallback": ("g2.15.fallback", _SPLIT),
}


def _pair_names(i, ci, j, cj, common) -> dict:
    """The names of a pair: i and j; v, the first shared variable; h, the
    shared variables' literals in ci, split into s and f, those of equal and
    of opposite sign in cj; a and b, each clause's literals over variables
    the other lacks; ri and rj, each clause's literals outside s. Literal
    lists ascend by variable. At a g2 fixpoint no clause holds both signs of
    a variable."""
    li = {abs(l): l for l in ci.occ}
    lj = {abs(l): l for l in cj.occ}
    oi, oj = ci.sorted_literals(), cj.sorted_literals()
    h = [li[v] for v in common]
    s = [l for l in h if l == lj[abs(l)]]
    return {"i": i, "j": j, "v": common[0], "h": h, "s": s,
            "f": [l for l in h if l != lj[abs(l)]],
            "a": [l for l in oi if abs(l) not in lj], "b": [l for l in oj if abs(l) not in li],
            "ri": [l for l in oi if l not in s], "rj": [l for l in oj if l not in s]}


def _pair_rule(table, i, ci, j, cj, common) -> Rule:
    names = _pair_names(i, ci, j, cj, common)
    return _rule(*table[len(common), len(names["f"])], **names)


def _rule15_shape(f, i, ci, j, cj, common) -> tuple:
    """The _G2_RULE15 key of a rule-15 pair and the names its entry reads:
    those of the swapped pair (j, i) when cj is the special side, the one
    with no literal of its own ("bare") or else with one ("one"). The
    share2 and share3.mixed entries branch on p, the shared literals h or
    the equal-sign ones s."""
    n = _pair_names(i, ci, j, cj, common)
    na, nb, nf = len(n["a"]), len(n["b"]), len(n["f"])
    if ci == cj:
        return "dup", n
    bare = 0 in (na, nb) and nf <= 3
    if bare or 1 in (na, nb) and nf <= 4:
        m = n if na == (0 if bare else 1) else _pair_names(j, cj, i, ci, common)
        if bare:
            return ("bare", nf, bool(m["b"])), m
        # the clause one_extra.add would add may be there already
        if nf or Clause(1, [-m["a"][0]] + m["b"]) not in f.clauses:
            return ("one", nf), m
    if len(common) == 2:
        return ("share2.mixed", n) if nf == 1 else ("share2", {**n, "p": n["h"]})
    if len(n["s"]) >= 3:
        return "share3.common", n
    if len(n["s"]) >= 2 and nf:
        return "share3.mixed", {**n, "p": n["s"]}
    return "fallback", n


def _g2_rule11_len5(x2, singles, c1s) -> Rule:
    # C = (x2 x2 s1 s2 s3) with target 2; scan 3-literal exactly-1 clauses
    # for the shapes that force something, in priority order; the links bind
    # the literals found here as u and w.
    if any(-x2 in c1.occ for _, c1 in c1s):
        return _rule("g2.11.len5.negdup", _SPLIT, v=abs(x2))
    # each c1 with the singles it holds negated and as they are
    views = [(c1, [s for s in singles if -s in c1.occ], [s for s in singles if s in c1.occ])
             for _, c1 in c1s]
    if any(len(negs) >= 2 for _, negs, _ in views):
        return _rule("g2.11.len5.negpair", _X_FALSE, x=x2)
    # each c1 holds three distinct literals, so u below is the third one
    for c1, negs, poss in views:
        if len(negs) == 1 and len(poss) >= 1:
            ny, pz = negs[0], poss[0]
            u = next(l for l in c1.occ if l not in (-ny, pz))
            w = next(s for s in singles if s not in (ny, pz))
            # u == -w cannot happen here: it would be a second negated single
            if u == w:
                return _rule("g2.11.len5.mixed.same", _LINK, u=ny, w=-x2)
            return _rule("g2.11.len5.mixed.link", _LINK, u=u, w=w)
    for c1, negs, poss in views:
        if len(negs) == 0 and len(poss) >= 2:
            if len(poss) == 3:
                return Rule("g2.11.len5.sub.unsat")
            w = next(s for s in singles if s not in poss)
            return _rule("g2.11.len5.sub", _LINK, u=w, w=-x2)
    if any(x2 in c1.occ and negs for c1, negs, _ in views):
        return _rule("g2.11.len5.posneg", _X_FALSE, x=x2)
    for c1, negs, poss in views:
        if x2 in c1.occ and len(poss) == 1 and len(negs) == 0:
            u = next(l for l in c1.occ if l not in (x2, poss[0]))
            if abs(u) != abs(x2) and abs(u) not in {abs(s) for s in singles}:
                return _rule("g2.11.len5.fresh", _SPLIT, v=u)
    return _rule("g2.11.len5.branch", _SPLIT, v=abs(x2))


def _g2_heavy(cls, heavies, occurrences, varlists) -> Rule:
    # rule 16: one scan of the variables in three clauses, the first of mixed
    # sign wins at once, else the first of one sign with a qualifying size;
    # then a clause holding two heavy variables. Else rule 17.
    samepol = None
    for v in heavies:
        held = occurrences[v]
        if len(held) == 3:
            if sum(v in cls[idx].occ for idx in held) in (1, 2):
                return _rule("g2.16.mixed", _SPLIT, v=v)
            if samepol is None:
                rests = sorted(cls[idx].size() - 1 for idx in held)
                if rests[0] == 4 or rests[2] >= 6:
                    samepol = v
    if samepol is not None:
        return _rule("g2.16.samepol", _SPLIT, v=samepol)
    hs = set(heavies)
    for vs in varlists:
        hv = [v for v in vs if v in hs]
        if len(hv) >= 2:
            return _rule("g2.16.pair", _PAIR4, p=hv)
    return _rule("g2.17", _SPLIT, v=heavies[0])


# ---------------------------------------------------------------------------
# g3 / g4 rule selection


# Rules 7, 9 and 11 on a clause (x..x delta), x its first literal of highest
# multiplicity: each table maps the occurrence profile of delta to a tag
# suffix and a function of the names x, v = abs(x) and the literals of delta
# by multiplicity and canonical order: singles s, doubles d and triples t; p
# is x followed by d. An unlisted profile splits on v, as a "branch" when
# delta has at least the table's width distinct literals and as a "fallback"
# otherwise; rule 7 and the rule-9 "thrice" case have width 0, so they
# always branch.

_G3_DOUBLED = {
    (1,): ("len3", _X_TRUE_S0_FALSE),
    (2, 1): ("odd0", _S0_FALSE),
}

_G4_DOUBLED = {
    (1,): ("len3", _X_TRUE),
    (1, 1): ("pair", _S_LINK),
    (2, 1): ("odd0", _S0_FALSE),
}

# at most two literals besides the three copies of x force x true
_C3_THRICE = {prof: ("force", _X_TRUE) for prof in ((), (1,), (1, 1), (2,))}

_C3_TWICE = {
    (1,): ("all1", _X_TRUE_S0_TRUE),
    (1, 1): ("pair", _X_TRUE_S_ANTI),
    (2, 1): ("odd1", _S0_TRUE),
    (2, 1, 1): ("linkneg", lambda n: [[("link", n.x, -n.d[0])]]),
    (2, 2, 1): ("odd1", _S0_TRUE),
    (2, 2, 1, 1): ("linkpair", lambda n: [[("link", n.s[0], -n.s[1])]]),
    (2, 2, 2, 1): ("odd1", _S0_TRUE),
    (2,): ("unsat", _UNSAT),
    (2, 2): ("unsat", _UNSAT),
    (2, 2, 2): ("unsat", _UNSAT),
    (2, 2, 2, 2): ("unsat", _UNSAT),
    (1, 1, 1): ("branch", _SPLIT),
    (1, 1, 1, 1): ("branch", _SPLIT),
    (2, 1, 1, 1): ("branch", _SPLIT),
}

_C4_THRICE = {
    (1,): ("all1", _X_TRUE_S0_TRUE),
    (1, 1): ("pair", _X_TRUE_S_ANTI),
    (2, 1): ("force", lambda n: [[("true", n.x), ("true", n.s[0]), ("false", n.d[0])]]),
    (1, 1, 1): ("x1", _X_TRUE),
    (3, 1): ("linkneg", lambda n: [[("true", n.s[0]), ("link", n.x, -n.t[0])]]),
    (2, 2): ("x0", lambda n: [[("false", n.x), ("true", n.d[0]), ("true", n.d[1])]]),
    (3,): ("unsat", _UNSAT),
    (3, 2): ("unsat", _UNSAT),
    (3, 3): ("unsat", _UNSAT),
}

_C4_TWICE = {
    (1, 1): ("all1", lambda n: [[("true", n.x), ("true", n.s[0]), ("true", n.s[1])]]),
    (2, 1): ("force", lambda n: [[("true", n.x), ("true", n.d[0]), ("false", n.s[0])]]),
    (1, 1, 1): ("x1", _X_TRUE),
    (2, 1, 1): ("linkpair", _S_LINK),
    (2, 2, 1): ("even0", _S0_FALSE),
    (2, 2, 1, 1): ("linkpair", _S_LINK),
    (2, 2, 2, 1): ("even0", _S0_FALSE),
    (2, 2, 2, 1, 1): ("linkpair", _S_LINK),
    (2, 2, 2, 2, 1): ("even0", _S0_FALSE),
    (2, 1, 1, 1, 1): ("pair3", _PAIR3),
    (2, 2, 1, 1, 1): ("pair3", _PAIR3),
    (1, 1, 1, 1): ("branch", _SPLIT),
    (2, 1, 1, 1): ("branch", _SPLIT),
    (1, 1, 1, 1, 1): ("branch", _SPLIT),
}

# (scheme, target, multiplicity of x) -> (tag, table, width)
_REPEATED = {
    ("g3", 2, 2): ("g3.7", _G3_DOUBLED, 0),
    ("g4", 2, 2): ("g4.7", _G4_DOUBLED, 0),
    **{(s, 3, 3): (f"{s}.9.thrice", _C3_THRICE, 0) for s in ("g3", "g4")},
    **{(s, 3, 2): (f"{s}.9.twice", _C3_TWICE, 5) for s in ("g3", "g4")},
    ("g4", 4, 3): ("g4.11.thrice", _C4_THRICE, 3),
    ("g4", 4, 2): ("g4.11.twice", _C4_TWICE, 6),
}

# rules 8/10/12 on a single-occurrence exactly-t clause by (t, size), p its
# literals and v its first; a longer clause takes ("long", _PAIR3)
_SINGLE = {
    (2, 4): ("len4", _TWO_PAIRS),
    **{key: (f"len{key[1]}", _SPLIT) for key in ((2, 5), (3, 6), (4, 8))},
}


def _repeated_rule(tag, table, width, x, delta) -> Rule:
    order = sorted(delta, key=lit_key)
    s, d, t = ([l for l in order if delta[l] == m] for m in (1, 2, 3))
    suffix, branches = table.get(tuple(sorted(delta.values(), reverse=True))) \
        or ("branch" if len(delta) >= width else "fallback", _SPLIT)
    return _rule(f"{tag}.{suffix}", branches, x=x, v=abs(x), s=s, d=d, t=t, p=[x] + d)


def _select_g34(f: Formula, scheme: str) -> Rule:
    # rule 6 takes the first exactly-1 clause; failing one, every other
    # class (target, has a repeated literal) keeps its lowest-index clause
    for c in f.clauses:
        if c.target == 1:
            return _rule(f"{scheme}.6", _PAIR2, p=sorted(c.occ, key=abs))
    first = {}
    for c in f.clauses:
        first.setdefault((c.target, max(c.occ.values()) > 1), c)

    for t in range(2, _TARGET_CAPS[scheme] + 1):
        # rules 7/9/11: exactly-t clause with a repeated literal
        c = first.get((t, True))
        if c is not None:
            m = max(c.occ.values())
            x = next(l for l in c.sorted_literals() if c.occ[l] == m)
            if m == 4:
                return _rule("g4.11.quad", _SPLIT, v=abs(x))
            tag, table, width = _REPEATED[scheme, t, m]
            delta = {l: k for l, k in c.occ.items() if l != x}
            return _repeated_rule(tag, table, width, x, delta)

        # rules 8/10/12: single-occurrence exactly-t clause
        c = first.get((t, False))
        if c is not None:
            size = c.size()
            assert t == 2 or size >= 2 * t, \
                f"short exactly-{t} clauses are removed by simplification"
            lits = c.sorted_literals()
            suffix, branches = _SINGLE.get((t, size), ("long", _PAIR3))
            return _rule(f"{scheme}.{2 * t + 4}.{suffix}", branches, p=lits, v=lits[0])

    raise AssertionError(f"{scheme} selection exhausted with clauses remaining")


# ---------------------------------------------------------------------------
# rule 18: residual formulas without heavy variables


def _low_degree_model(f: Formula, shared: list, varlists: list) -> Optional[dict]:
    """Satisfying values for all clause variables, or None; degrees <= 2.

    shared and varlists are those _overlaps returns for f.
    """
    seen = set()
    model: dict[int, int] = {}
    for start in range(len(f.clauses)):
        if start in seen:
            continue
        order = [start]
        seen.add(start)
        for i in order:  # visits what the loop appends, so breadth first
            for nxt in shared[i]:
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
        if not _solve_component([f.clauses[i] for i in order], [varlists[i] for i in order], model):
            return None
    return model


def _fresh_values(weights: tuple, need: int):
    """In product order, the values of fresh variables that make exactly need
    literals true, where variable i makes weights[i][x] true at value x. Only
    prefixes that can be completed are pushed (reach[i] has bit s set when the
    variables from i on can make s true), so each tuple costs O(width)."""
    reach = list(accumulate(reversed(weights), lambda r, w: r << w[0] | r << w[1], initial=1))
    reach.reverse()
    values, stack, left = [], [], need  # stack: (position, value, what is left after it)
    while True:
        i = len(values)
        if i == len(weights):
            if not left:
                yield tuple(values)
        else:
            for x in (1, 0):  # 0 is popped first
                rest = left - weights[i][x]
                if rest >= 0 and reach[i + 1] >> rest & 1:
                    stack.append((i, x, rest))
        if not stack:
            return
        i, x, left = stack.pop()
        del values[i:]
        values.append(x)


@lru_cache(maxsize=1024)  # bounded: a list holds up to 70 tuples of 8
def _fresh_table(weights: tuple, need: int) -> tuple:
    return tuple(_fresh_values(weights, need))


def _frontiers(varlists: list) -> list:
    """Per position, the variables of earlier clauses that occur again at
    that position or later, ascending."""
    last = {v: pos for pos, vs in enumerate(varlists) for v in vs}
    out = []
    live: set[int] = set()
    for pos, vs in enumerate(varlists):
        out.append(tuple(sorted(live)))
        for v in vs:
            if v in live:
                if last[v] == pos:
                    live.remove(v)
            elif last[v] != pos:
                live.add(v)
    return out


def _solve_component(clauses: list[Clause], varlists: list, model: dict) -> bool:
    """Extend model over one component, clauses in BFS order; False if UNSAT.

    varlists holds each clause's variables in ascending order. Depth-first,
    one frame per clause, trying in product order only the values of the
    clause's fresh variables that meet its target, given their weights (the
    literals each makes true at 0 and at 1); the lists are memoised for up to
    8 fresh variables. Each position keeps the weights of its clause's
    variables that earlier clauses hold too, which are valued on entry, so
    the count the fresh values must make up is read from them alone. One
    seen set tells those known variables from the fresh ones. Every clause
    must be unpaired, holding no variable in both signs, as rule 18's
    formulas are: a variable's weights are then read with one lookup, and an
    assertion checks it per clause. The frontier of position pos holds the
    variables of earlier clauses that occur again at pos or later; a position
    whose frontier values failed once is not searched again. Until some
    position fails there is nothing to look up, so the frontiers, and the
    last position of each variable they are read from, are built at the
    first failure.
    """
    steps = []
    seen: set[int] = set()
    for c, vs in zip(clauses, varlists):
        occ = c.occ
        assert len(vs) == len(occ), "rule 18 needs unpaired clauses"
        # known: (variable, weights) of those valued at earlier positions
        fresh, known, weights = [], [], []
        for v in vs:
            w = (0, occ[v]) if v in occ else (occ[-v], 0)
            if v in seen:
                known.append((v, w))
            else:
                fresh.append(v)
                weights.append(w)
        seen.update(fresh)
        steps.append((known, c.target, fresh, tuple(weights),
                      _fresh_table if len(fresh) <= 8 else _fresh_values))
    failed = set()
    frontiers = []

    def extend(pos: int) -> bool:
        if pos == len(steps):
            return True
        known, need, fresh, weights, listing = steps[pos]
        if failed and (pos, tuple(map(model.__getitem__, frontiers[pos]))) in failed:
            return False
        for v, w in known:
            need -= w[model[v]]
        for values in listing(weights, need):
            model.update(zip(fresh, values))
            if extend(pos + 1):
                return True
            for v in fresh:
                del model[v]
        if not frontiers:
            frontiers.extend(_frontiers(varlists))
        failed.add((pos, tuple(map(model.__getitem__, frontiers[pos]))))
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# search engine


def _select(f: Formula, scheme: str) -> Rule:
    return _select_g2(f) if scheme == "g2" else _select_g34(f, scheme)


def _settle(w: _Worklist, stats: SearchStats) -> bool:
    stats.fixpoint_calls += 1
    if w.settle():
        return True
    stats.fixpoint_unsat += 1
    return False


def _search(w, stats, scheme, depth, instrument):
    """Search below the settled worklist w; the final trail, or None if UNSAT."""
    stats.nodes_expanded += 1
    stats.max_depth = max(stats.max_depth, depth)
    # every simplification chain eliminates a variable within a few steps;
    # a generous cap turns any selection bug into a loud failure, not a hang
    guard = 50 * (w.trail.num_vars + w.count + w.occurrences) + 100
    steps = 0
    while True:
        if not w.count:
            return w.trail
        steps += 1
        if steps > guard:
            raise RuntimeError("rule selection stopped making progress")
        f = w.formula()
        rule = _select(f, scheme)
        stats.rule_fires[rule.tag] += 1
        if rule.overlaps is not None:
            part = _low_degree_model(f, *rule.overlaps)
            if part is None:
                return None
            # part values every clause variable, so it settles every clause
            assert all(true_count(c, part) == c.target for c in f.clauses), \
                "endgame model conflicts with formula"
            w.trail.record_consts(part)
            return w.trail
        if len(rule.branches) == 1:  # forced: applied in place, same node
            if not (_apply_actions(w, rule.branches[0]) and _settle(w, stats)):
                return None
            continue
        mu = measure(f, scheme) if instrument else None
        last = len(rule.branches) - 1
        for b, branch in enumerate(rule.branches):
            # the last branch takes w itself: nothing reads w after it
            child = w if b == last else w.fork()
            if not (_apply_actions(child, branch) and _settle(child, stats)):
                continue
            if instrument:
                mu_child = measure(child.formula(), scheme)
                stats.measure_checks += 1
                if not mu_child < mu - 1e-9:
                    stats.measure_violations.append((rule.tag, mu, mu_child))
            res = _search(child, stats, scheme, depth + 1, instrument)
            if res is not None:
                return res
        return None  # no branch, or none of them, has a model


def _solve(formula: Formula, scheme: str, instrument: bool) -> SolveResult:
    cap = _TARGET_CAPS[scheme]
    for c in formula.clauses:
        if c.target > cap:
            raise ValueError(f"solve_{scheme} handles targets up to {cap}, got {c.target}")
    stats = SearchStats(measure_at_root=measure(formula, scheme) if instrument else 0.0)
    w = _Worklist(formula, Trail(formula.num_vars))
    try:
        t_end = _search(w, stats, scheme, 0, instrument) if _settle(w, stats) else None
        stats.simplify_fires = dict(zip(RULE_LETTERS, w.fires))
        if t_end is None:
            return SolveResult(False, None, stats)
        model = t_end.reconstruct()  # every surviving variable takes 0
    except ValueError as exc:  # the input passed its checks: the solver's fault
        raise RuntimeError(f"internal error: {exc}") from exc
    if not evaluate(formula, model):
        raise RuntimeError("internal error: solver witness failed verification")
    return SolveResult(True, model, stats)


def solve_g2(formula: Formula, instrument: bool = False) -> SolveResult:
    """Decide a formula whose clause targets are all at most 2."""
    return _solve(formula, "g2", instrument)


def solve_g3(formula: Formula, instrument: bool = False) -> SolveResult:
    """Decide a formula whose clause targets are all at most 3."""
    return _solve(formula, "g3", instrument)


def solve_g4(formula: Formula, instrument: bool = False) -> SolveResult:
    """Decide a formula whose clause targets are all at most 4."""
    return _solve(formula, "g4", instrument)


def solve_auto(formula: Formula, instrument: bool = False) -> SolveResult:
    """Dispatch on the largest clause target (targets <= 1 run as g2)."""
    top = max((c.target for c in formula.clauses), default=0)
    for scheme, cap in _TARGET_CAPS.items():
        if top <= cap:
            return _solve(formula, scheme, instrument)
    raise ValueError(f"no solver for target {top}")
