"""Fixpoint rules: every reduction is forced, terminating, and idempotent."""

import random
from collections import Counter
from itertools import product
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import C, F, formulas, random_formula
from gixsat import simplify
from gixsat.dpll import _apply_actions, solve_auto
from gixsat.formula import (
    Clause,
    Formula,
    Trail,
    assign,
    evaluate,
    link,
    substitute,
)
from gixsat.generator import GenSpec, generate
from gixsat.oracle import brute_solve
from gixsat.simplify import (
    RULE_LETTERS,
    _classify,
    _plain_mask,
    _Worklist,
    simplify_to_fixpoint,
)


def fixpoint(f):
    return simplify_to_fixpoint(f, Trail(f.num_vars))


def test_negation_downgrade():
    out = fixpoint(F(3, C(2, 1, 2, 3)))
    f, _ = out
    assert f.clauses == [C(1, -1, -2, -3)]


def test_uniform_multiplicity_downgrade():
    out = fixpoint(F(4, C(2, 1, 1, 2, 2, 3, 3, 4, 4)))
    f, _ = out
    assert f.clauses == [C(1, 1, 2, 3, 4)]


def test_overoccurrence_forces_false():
    f = F(5, C(3, 1, 1, 1, 1, 2, 3, 4, 5))
    out = fixpoint(f)
    assert out is not None
    g, trail = out
    assert trail.entries[1] == ("const", 0)
    assert 1 not in {abs(l) for c in g.clauses for l in c.occ}


def test_halving_to_exactly_two():
    # doubled multiplicities divide out; the 3-variable case then also negates
    g, _ = fixpoint(F(4, C(4, 1, 1, 2, 2, 3, 3, 4, 4)))
    assert g.clauses == [C(2, 1, 2, 3, 4)]
    g, _ = fixpoint(F(3, C(4, 1, 1, 2, 2, 3, 3)))
    assert g.clauses == [C(1, -1, -2, -3)]


def test_unsatisfiable_single_variable_clause():
    assert fixpoint(F(1, C(1, 1, 1))) is None


def test_pair_cancellation():
    # x,-x contribute exactly one true literal; a doubled remainder then conflicts
    assert fixpoint(F(2, C(2, 1, -1, 2, 2))) is None
    # with two distinct survivors the exactly-1 pair links itself away
    f, _ = fixpoint(F(3, C(2, 1, -1, 2, 3)))
    assert f.clauses == []


def test_two_literal_exactly_one_links():
    out = fixpoint(F(2, C(1, 1, 2)))
    f, trail = out
    assert f.clauses == []
    assert trail.entries[1] == ("link", -2)


def test_target_equals_size_assigns_true():
    out = fixpoint(F(2, C(2, 1, 2)))
    f, trail = out
    assert f.clauses == []
    assert trail.entries[1] == ("const", 1) and trail.entries[2] == ("const", 1)


def test_zero_target_assigns_false():
    out = fixpoint(F(2, C(0, 1, -2)))
    f, trail = out
    assert f.clauses == []
    assert trail.entries[1] == ("const", 0) and trail.entries[2] == ("const", 1)


def test_fixpoint_idempotent(rng):
    for _ in range(300):
        f = random_formula(rng)
        out = fixpoint(f)
        if out is None:
            continue
        g, trail = out
        again = simplify_to_fixpoint(g, trail.copy())
        assert again is not None
        assert again[0] == g


def test_fixpoint_structure(rng):
    # post-fixpoint facts the solvers rely on
    for _ in range(400):
        f = random_formula(rng)
        out = fixpoint(f)
        if out is None:
            continue
        g, _ = out
        for c in g.clauses:
            assert 0 < c.target <= c.size()
            assert not (c.target == 1 and c.size() <= 2)
            assert all(m <= c.target for m in c.occ.values())
            assert all(c.occ.get(-l, 0) == 0 for l in c.occ)
            if all(m == 1 for m in c.occ.values()):
                assert 2 * c.target <= c.size()


def test_equisatisfiability_random(rng):
    for _ in range(400):
        f = random_formula(rng, n_max=8)
        before = brute_solve(f).sat
        out = fixpoint(f)
        if out is None:
            assert before is False
            continue
        g, trail = out
        after = brute_solve(g)
        assert after.sat == before
        if after.sat:
            roots = {v: after.first_model[v] for v in trail.unassigned_vars()}
            model = trail.reconstruct(roots)
            assert evaluate(f, model)


@given(formulas(n_max=6, m_max=4, k_max=5))
@settings(max_examples=150, deadline=None)
def test_equisatisfiability_property(f):
    before = brute_solve(f).sat
    out = simplify_to_fixpoint(f, Trail(f.num_vars))
    if out is None:
        assert before is False
    else:
        assert brute_solve(out[0]).sat == before


# Reference: the fixpoint as a full rescan. Each step tries the rules in
# priority order, each rule scanning the clauses in index order, and applies
# the first match through the public assign / link on a deep copy.


def _set_literal(f, trail, lit, value):
    return assign(f, trail, abs(lit), value if lit > 0 else 1 - value)


def _ref_step(f, trail):
    """(rule letter, new formula or None), or None when no rule applies."""
    cls = f.clauses
    for c in cls:
        if c.target < 0 or c.target > c.size():
            return "a", None
        if c.occ and len(c.variables()) == 1:
            v = next(iter(c.variables()))
            if c.target not in (c.occ.get(v, 0), c.occ.get(-v, 0)):
                return "a", None
    for i, c in enumerate(cls):
        for v in sorted(c.variables()):
            p, q = c.occ.get(v, 0), c.occ.get(-v, 0)
            if p and q:
                cancel = min(p, q)
                nc = c.copy()
                nc.target -= cancel
                for lit, m in ((v, p - cancel), (-v, q - cancel)):
                    if m:
                        nc.occ[lit] = m
                    else:
                        nc.occ.pop(lit, None)
                cls[i] = nc
                return "b", f
    for c in cls:
        for lit in c.sorted_literals():
            if c.occ[lit] > c.target:
                return "c", _set_literal(f, trail, lit, 0)
    for i, c in enumerate(cls):
        mults = set(c.occ.values())
        if len(mults) == 1:
            m = next(iter(mults))
            if m >= 2 and c.target % m == 0:
                cls[i] = Clause(c.target // m, {lit: 1 for lit in c.occ})
                return "d", f
    for c in cls:
        if c.target == 1 and c.size() == 2 and len(c.occ) == 2:
            l1, l2 = c.sorted_literals()
            # value(l1) = value(-l2), eliminating var(l1)
            return "e", link(f, trail, abs(l1), -l2 if l1 > 0 else l2)
    for c in cls:
        if c.occ and c.target in (0, c.size()):
            value = 0 if c.target == 0 else 1
            for lit in c.sorted_literals():
                f = _set_literal(f, trail, lit, value)
                if f is None:
                    break
            return "f", f
    for i, c in enumerate(cls):
        k = c.size()
        if k and all(m == 1 for m in c.occ.values()) and 2 * c.target > k:
            cls[i] = Clause(k - c.target, [-lit for lit in c.occ])
            return "g", f
    for i, c in enumerate(cls):
        if c.target == 0 and not c.occ:
            del cls[i]
            return "h", f
    return None


def reference_fixpoint(formula, trail, letters=None):
    """The rescan fixpoint; each step's rule letter goes to letters if given."""
    f = formula.copy()
    while True:
        step = _ref_step(f, trail)
        if step is None:
            return f, trail
        if letters is not None:
            letters.append(step[0])
        f = step[1]
        if f is None:
            return None


def _clause_view(c):
    # literal order matters: the solvers read it through dict iteration
    return c.target, list(c.occ.items())


@st.composite
def crowded_formulas(draw):
    """Small formulas with x / -x pairs, multiplicities up to 4, targets 0-5
    and duplicate clauses, biased towards the shapes rules (d)-(g) act on."""
    n = draw(st.integers(2, 7))
    clauses = []
    for _ in range(draw(st.integers(1, 5))):
        variables = draw(st.lists(st.integers(1, n), min_size=1, max_size=5, unique=True))
        lits = [draw(st.sampled_from([v, -v])) for v in variables]
        mult = draw(st.sampled_from([1, 1, 2, 3, 4]))
        occ = {lit: mult for lit in lits}
        if draw(st.booleans()):
            occ[draw(st.sampled_from(lits))] = draw(st.integers(1, 4))
        if draw(st.booleans()):
            occ[-draw(st.sampled_from(lits))] = draw(st.integers(1, 2))
        size = sum(occ.values())
        target = draw(st.sampled_from([1, mult, 2 * mult, size, size // 2 + 1, draw(st.integers(0, 5))]))
        clauses.append(Clause(min(target, 5), occ))
    for j in draw(st.lists(st.integers(0, len(clauses) - 1), max_size=2)):
        clauses.insert(draw(st.integers(0, len(clauses))), clauses[j].copy())
    return F(n, *clauses)


# each tells apart two adjacent rules of the priority order: (b)/(c),
# (d)/(e), (e)/(f), (f)/(g)
@example(F(2, C(0, -1, 2, -2)))
@example(F(3, C(2, 1, 1, -3, -3), C(2, 1, -1, -1, -2)))
@example(F(5, C(1, -5), C(1, 1, 4)))
@example(F(3, C(1, 1, 2, -3), C(2, 2, 3)))
# zeroing a target-0 clause stops when a lower-index clause gains (c), or
# when a rule-(a) clause appears, here before variable 3 is assigned
@example(F(5, C(2, -1, 2, 2, 3, 4), C(0, 1, 5)))
@example(F(3, C(0, 1, 3), C(1, 1, 2, 2)))
# a plain clause conflicts: its target falls below 0, or above its size
@example(F(3, C(0, 1, 2), C(0, -1, 3)))
@example(F(3, C(0, 1, 3), C(2, 1, 2)))
# a constant reaches a doubled literal, or a clause that was paired before (b)
@example(F(4, C(0, 1, 3), C(2, 1, 2, 2, 4)))
@example(F(4, C(0, 1, 4), C(2, 1, -2, 2, 3, 4)))
# zeroing clause 1 stops after literal 2, when clause 0 gains (c)
@example(F(5, C(2, -2, 3, 3, 5), C(0, 1, 2, 4)))
# zeroing clause 0 conflicts at its second literal, in a plain clause and in
# one that repeats it: variable 1 is on the trail, variable 2 is not
@example(F(4, C(0, 1, 2, 3), C(0, -2, 4)))
@example(F(4, C(0, 1, 2, 3), C(1, -2, -2, 4)))
# the (e) link 1 = -2 turns 1 into -2, which cancels against 2 in a plain
# clause: leaving target 0 and literals 3, 4; into a conflict, target 1 over
# no literal; emptying a duplicate of the linked clause. A clause holding 2 twice is not
# plain, and keeps one 2. (A link from (e) never meets a target-0 clause:
# rule (c) would step first.)
@example(F(4, C(1, 1, 2), C(1, 1, 2, 3, 4)))
@example(F(3, C(1, 1, 2), C(2, 1, 2)))
@example(F(2, C(1, 1, 2), C(1, 2, 1)))
@example(F(4, C(1, 1, 2), C(2, 1, 2, 2, 3, 4)))
@given(crowded_formulas())
@settings(max_examples=500, deadline=None)
def test_fixpoint_matches_rescan_reference(f):
    before = [_clause_view(c) for c in f.clauses]
    objects = list(f.clauses)
    trail = Trail(f.num_vars)
    out = simplify_to_fixpoint(f, trail)
    assert [_clause_view(c) for c in f.clauses] == before
    assert all(a is b for a, b in zip(f.clauses, objects)) and len(f.clauses) == len(objects)

    ref_trail = Trail(f.num_vars)
    ref = reference_fixpoint(f, ref_trail)
    assert (out is None) == (ref is None)
    assert trail.entries == ref_trail.entries
    assert list(trail.entries) == list(ref_trail.entries)
    if out is not None:
        assert [_clause_view(c) for c in out[0].clauses] == [
            _clause_view(c) for c in ref[0].clauses
        ]


@example(F(3, C(0, 1, 3), C(1, 1, 2, 2)))
@example(F(5, C(2, -1, 2, 2, 3, 4), C(0, 1, 5)))
@example(F(5, C(2, -2, 3, 3, 5), C(0, 1, 2, 4)))
@given(crowded_formulas())
@settings(max_examples=200, deadline=None)
def test_fires_count_the_rescan_steps(f):
    """Each rule's step count is the number of times the rescan steps
    through its letter; a batched zeroing counts one (c) per literal."""
    letters = []
    reference_fixpoint(f, Trail(f.num_vars), letters)
    w = _Worklist(f, Trail(f.num_vars))
    w.settle()
    counts = Counter(letters)
    assert dict(zip(RULE_LETTERS, w.fires)) == {r: counts[r] for r in RULE_LETTERS}


def test_plain_mask_is_the_classification_of_every_plain_clause():
    for k in range(11):
        for signs in product((1, -1), repeat=k):
            lits = [s * v for s, v in zip(signs, range(1, k + 1))]
            for t in range(k + 1):
                c = Clause(t, lits)
                assert _plain_mask(t, k) == _classify(c)[0], c
    # targets out of range too, and sizes up to 64
    for t, k in product(range(-2, 5), range(65)):
        c = Clause(t, range(1, k + 1))
        assert _plain_mask(t, k) == _classify(c)[0], c


def test_wide_exactly1_clause_classifies_a_constant_number_of_times(monkeypatch):
    # after the first branch, rule (c) zeroes the remaining literals of the
    # clause one at a time; each new (target, size) takes its mask from t and
    # k alone, so _classify runs as often at 4000 literals as at 40
    calls = []
    original = simplify._classify

    def counting(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(simplify, "_classify", counting)
    counts = []
    for k in (40, 4000):
        calls.clear()
        f = Formula(k, [Clause(1, range(1, k + 1))])
        result = solve_auto(f)
        assert result.sat and evaluate(f, result.model)
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def _eliminate(w, var, state):
    """Give var a Trail state through the worklist's one elimination call:
    a constant as the literal of var it makes false, a link with its partner."""
    kind, arg = state
    if kind == "link":
        return w.eliminate((var,), partner=arg)
    return w.eliminate((-var if arg else var,))


def test_eliminate_classifies_long_plain_clauses():
    """Constants and links on plain clauses around the 16-literal edge of the
    mask table: a link to size + 1, which the clause lacks, renames -1, and a
    link to 2 cancels the renamed -1 against the clause's 2, dropping the
    size by 2 (17 -> 15 from the table, 18 -> 16 from _plain_mask)."""
    for size in (15, 16, 17, 18, 60):
        for target in (0, 1, 2, size // 2, size // 2 + 1, size - 1, size):
            for state in (("const", 0), ("const", 1), ("link", size + 1), ("link", 2)):
                c = Clause(target, [-1] + list(range(2, size + 1)))
                expect = substitute(c, 1, state)
                w = _Worklist(F(size + 1, c), Trail(size + 1))
                assert _eliminate(w, 1, state) == (expect is not None)
                if expect is not None:
                    assert (_clause_view(w.slots[0]), w.masks[0], w.sizes[0]) == (
                        _clause_view(expect), *_classify(expect))
                    assert w.occurrences == w.sizes[0] and w.targets == expect.target


@given(crowded_formulas(), st.data())
@settings(max_examples=200, deadline=None)
def test_eliminate_constant_matches_substitute(f, data):
    """A constant eliminated from an unsettled worklist, whose clauses may be
    paired, repeat a literal or carry rule (a), leaves each clause as
    substitute leaves it, classified as _classify classifies it."""
    w = _Worklist(f, Trail(f.num_vars))
    var = data.draw(st.integers(1, f.num_vars))
    value = data.draw(st.integers(0, 1))
    expect = []
    for c in f.clauses:
        if var in c.occ or -var in c.occ:
            c = substitute(c, var, ("const", value))
        expect.append(c)
    ok = _eliminate(w, var, ("const", value))
    assert ok == (None not in expect)
    if ok:
        assert [_clause_view(c) for c in w.slots] == [_clause_view(c) for c in expect]
        assert [w.masks, w.sizes] == [list(m) for m in zip(*map(_classify, expect))]
        assert w.trail.entries == {var: ("const", value)}


@st.composite
def linked_formulas(draw):
    """(formula, var, partner): a crowded formula and a link of var to a
    literal of another variable."""
    f = draw(crowded_formulas())
    var = draw(st.integers(1, f.num_vars))
    other = draw(st.integers(1, f.num_vars - 1))
    return f, var, draw(st.sampled_from([1, -1])) * (other if other < var else other + 1)


# the new literal cancels against the partner's opposite one in a plain
# clause: leaving target 1, or 0 (from a negative literal of var); into a
# conflict, target 0 -> -1; emptying the clause. A clause holding -2 twice
# is not plain, and keeps one -2.
@example((F(4, C(2, 1, -2, 3, 4)), 1, 2))
@example((F(3, C(1, -1, 2, 3)), 1, 2))
@example((F(3, C(0, 1, -2, 3)), 1, 2))
@example((F(2, C(1, 1, -2)), 1, 2))
@example((F(3, C(2, 1, -2, -2, 3)), 1, 2))
@given(linked_formulas())
@settings(max_examples=200, deadline=None)
def test_eliminate_link_matches_substitute(case):
    """A variable linked to a literal of another variable in an unsettled
    worklist leaves each clause as substitute leaves it, classified as
    _classify classifies it, and every clause that gains the partner is
    registered under it."""
    f, var, partner = case
    w = _Worklist(f, Trail(f.num_vars))
    expect = []
    for c in f.clauses:
        if var in c.occ or -var in c.occ:
            c = substitute(c, var, ("link", partner))
        expect.append(c)
    ok = _eliminate(w, var, ("link", partner))
    assert ok == (None not in expect)
    if ok:
        assert [_clause_view(c) for c in w.slots] == [_clause_view(c) for c in expect]
        assert [w.masks, w.sizes] == [list(m) for m in zip(*map(_classify, expect))]
        assert w.trail.entries == {var: ("link", partner)}
        _assert_occurrence_superset(w)


def test_eliminate_an_eliminated_variable_raises_before_any_edit():
    """Every failure of Trail.check raises its message before any edit."""
    w = _Worklist(F(3, C(1, 1, 2, 3), C(1, -1, 2, 3)), Trail(3))
    assert w.eliminate((1,))
    # a clause holding the eliminated variable again, which an edit would reach
    w.add(Clause(1, [1, 2]))
    before = (list(w.slots), list(w.masks), list(w.sizes), dict(w.trail.entries))
    for var, state in (
        (1, ("const", 0)), (1, ("const", 1)), (1, ("link", 2)), (1, ("link", -3)),
        (0, ("const", 0)), (4, ("const", 1)), (0, ("link", 2)), (4, ("link", 2)),
        (2, ("link", 2)), (2, ("link", -2)),
        (2, ("link", 0)), (2, ("link", 4)), (2, ("link", -4)),
        (2, ("link", 1)), (2, ("link", -1)),
    ):
        with pytest.raises(ValueError) as expected:
            w.trail.copy().check(var, state)
        with pytest.raises(ValueError) as raised:
            _eliminate(w, var, state)
        assert str(raised.value) == str(expected.value)
        after = (list(w.slots), list(w.masks), list(w.sizes), dict(w.trail.entries))
        assert all(a is b for a, b in zip(before[0], after[0])) and before[1:] == after[1:]


@pytest.mark.parametrize("lits, message", [
    ((1, 1), "variable 1 already eliminated"),
    ((1, 4), "variable 4 out of range 1..3"),
])
def test_a_call_on_several_literals_raises_at_the_failing_one(lits, message):
    """A call that makes several literals false raises at the first that
    fails Trail.check, before that literal's edit, with the earlier
    literals eliminated and their trail entries written."""
    f = F(3, C(1, 1, 2, 3), C(1, -1, 2, 3))
    w = _Worklist(f, Trail(3))
    with pytest.raises(ValueError, match=message):
        w.eliminate(lits)
    assert w.trail.entries == {1: ("const", 0)}
    expect = [substitute(c, 1, ("const", 0)) for c in f.clauses]
    assert [_clause_view(c) for c in w.slots] == [_clause_view(c) for c in expect]
    assert [w.masks, w.sizes] == [list(m) for m in zip(*map(_classify, expect))]


# Reference for the solver's persistent worklist: a rule's actions applied to
# the compact formula through the public assign / link on copies, then a
# fresh fixpoint of the result.


def reference_apply(f, trail, actions):
    for act in actions:
        kind = act[0]
        if kind in ("true", "false"):
            lit = act[1]
            want = 1 if kind == "true" else 0
            v = abs(lit)
            val = want if lit > 0 else 1 - want
            state = trail.entries.get(v)
            if state is not None:
                if state[0] == "const":
                    if state[1] == val:
                        continue
                    return None
                raise RuntimeError("prescription touches an eliminated variable")
            f = assign(f, trail, v, val)
        elif kind == "link":
            f = link(f, trail, abs(act[1]), act[2] if act[1] > 0 else -act[2])
        elif kind == "add":
            f = f.copy()
            f.clauses.append(Clause(act[1], act[2]))
        elif kind == "replace":
            f = f.copy()
            f.clauses[act[1]] = Clause(act[2], act[3])
        else:
            f = f.copy()
            del f.clauses[act[1]]
        if f is None:
            return None
    return f


def _reference_outcome(f, trail, actions):
    """(outcome, next formula): outcome is an error, None, or the fixpoint
    clauses with the trail."""
    trail = trail.copy()
    try:
        g = reference_apply(f, trail, actions)
        out = None if g is None else simplify_to_fixpoint(g, trail)
    except (ValueError, RuntimeError) as exc:
        return (type(exc), str(exc)), None
    if out is None:
        return None, None
    return ([_clause_view(c) for c in out[0].clauses], trail.entries, list(trail.entries)), out[0]


def _worklist_outcome(w, actions):
    try:
        ok = _apply_actions(w, actions) and w.settle()
    except (ValueError, RuntimeError) as exc:
        return (type(exc), str(exc))
    if not ok:
        return None
    return [_clause_view(c) for c in w.formula().clauses], w.trail.entries, list(w.trail.entries)


def _snapshot(w):
    # each slot's view as well as its identity: a worklist edits the clauses
    # it owns in place, so an edit leaking into its parent keeps the identity
    return (list(w.slots), [c and _clause_view(c) for c in w.slots], list(w.sizes),
            w.occurrences, w.targets, w.count, dict(w.trail.entries), list(w.trail.entries))


def _assert_occurrence_superset(w):
    for i, c in enumerate(w.slots):
        if c is not None:
            for lit in c.occ:
                assert i in w.occ.get(abs(lit), ()), (abs(lit), i)


@st.composite
def action_lists(draw, f, trail):
    """1-4 rule actions on fixpoint f: true / false / link / add / replace, or
    a lone remove. Literals mostly use variables alive in f."""
    alive = [v for v in range(1, f.num_vars + 1) if v not in trail.entries]
    pool = st.sampled_from(2 * alive + list(range(1, f.num_vars + 1)))
    sign = st.sampled_from([1, -1])

    def lit():
        return draw(pool) * draw(sign)

    def lits():
        return tuple(lit() for _ in range(draw(st.integers(1, 4))))

    m = len(f.clauses)
    if m and draw(st.integers(0, 9)) == 0:
        return [("remove", draw(st.integers(0, m - 1)))]
    kinds = ["true", "false", "link", "add"] + (["replace"] if m else [])
    actions = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("true", "false"):
            actions.append((kind, lit()))
        elif kind == "link":
            actions.append((kind, lit(), lit()))
        elif kind == "add":
            actions.append((kind, draw(st.integers(0, 3)), lits()))
        else:
            j = draw(st.integers(0, m - 1))
            actions.append((kind, j, draw(st.integers(0, 3)), lits()))
    return actions


@st.composite
def settled_formulas(draw):
    """Formulas no simplification rule touches: distinct literals, targets
    from 1 to half the clause length, so exactly-1 clauses of length >= 3."""
    n = draw(st.integers(3, 8))
    clauses = []
    for _ in range(draw(st.integers(1, 4))):
        variables = draw(st.lists(st.integers(1, n), min_size=3, max_size=min(n, 6), unique=True))
        lits = [v * draw(st.sampled_from([1, -1])) for v in variables]
        clauses.append(Clause(draw(st.integers(1, len(lits) // 2)), lits))
    return F(n, *clauses)


@given(st.one_of(crowded_formulas(), settled_formulas()), st.data())
@settings(max_examples=300, deadline=None)
def test_persistent_worklist_matches_fresh_fixpoints(f, data):
    """Actions applied to forks of one settled worklist give what applying
    them to the compact formula and simplifying afresh gives, and forks
    leave their parent alone."""
    # the longest clause prefix with a satisfiable fixpoint, so that every
    # example starts from a settled worklist
    for k in range(len(f.clauses), -1, -1):
        root = _Worklist(F(f.num_vars, *f.clauses[:k]), Trail(f.num_vars))
        if root.settle():
            break
    g = root.formula()
    before = _snapshot(root)
    settled = [root]

    first = data.draw(action_lists(g, root.trail))
    a = root.fork()
    expect, g_a = _reference_outcome(g, root.trail, first)
    assert _worklist_outcome(a, first) == expect
    if g_a is not None:
        settled.append(a)
        # a fork of a fork, whose slots may hold holes and added clauses
        second = data.draw(action_lists(g_a, a.trail))
        ab = a.fork()
        expect, g_ab = _reference_outcome(g_a, a.trail, second)
        assert _worklist_outcome(ab, second) == expect
        if g_ab is not None:
            settled.append(ab)

    # a sibling sees none of the first branch's edits
    third = data.draw(action_lists(g, root.trail))
    c = root.fork()
    expect, g_c = _reference_outcome(g, root.trail, third)
    assert _worklist_outcome(c, third) == expect
    if g_c is not None:
        settled.append(c)

    after = _snapshot(root)
    assert all(x is y for x, y in zip(before[0], after[0])) and len(before[0]) == len(after[0])
    assert before[1:] == after[1:]
    for w in settled:
        _assert_occurrence_superset(w)


@st.composite
def elimination_chains(draw):
    """2-4 steps as (variable pick, kind, partner pick, signs): a constant
    (the low bit of signs) or a link to a literal of another alive variable,
    by one eliminate call, or 2-3 literals made false by one call, the
    partner pick setting their count and the bits of signs their signs."""
    step = st.tuples(st.integers(0, 6), st.sampled_from(["const", "link", "falsify"]),
                     st.integers(0, 6), st.integers(0, 7))
    return draw(st.lists(step, min_size=2, max_size=4))


# a constant, then a link whose partner the now owned clause lacks
@example(F(5, C(1, 1, 2, 3, 4), C(2, 1, 2, 5)), [(0, "const", 0, 0), (1, "link", 2, 1)])
# a link whose partner the owned clause holds in the same sign, then a
# constant on the doubled clause; and one whose partner it holds negated
@example(F(5, C(2, 1, 2, 3, 4, 5)), [(0, "const", 0, 0), (0, "link", 0, 0), (0, "const", 0, 0)])
@example(F(6, C(2, 1, 2, 3, 4, 5, 6)), [(0, "const", 0, 0), (0, "link", 0, 1), (1, "const", 0, 1)])
# constants on a clause the worklist owns, reaching a conflict
@example(F(4, C(1, 1, 2, 3, 4)), [(0, "const", 0, 1), (0, "const", 0, 1)])
# two literals in one call, each reaching clauses: the counters must
# take both; and two made true, the second into a conflict, after which the
# first one's trail entry is written and the second one's is not
@example(F(4, C(2, 1, 2, 3, 4), C(1, 1, 3)), [(0, "falsify", 0, 0), (0, "const", 0, 0)])
@example(F(3, C(1, 1, 2, 3)), [(0, "falsify", 0, 3), (0, "const", 0, 0)])
@given(st.one_of(crowded_formulas(), settled_formulas()), elimination_chains())
@settings(max_examples=300, deadline=None)
def test_eliminations_in_turn_match_substitute(f, chain):
    """Eliminations applied in turn to one worklist leave each clause, after
    each one, as substitute applied in turn leaves it, classified as
    _classify classifies it. From the second on they can reach clauses the
    worklist built, which it edits in place. A call on several literals
    substitutes them in order, writing each one's trail entry before the
    next, and stops at the first conflict."""
    w = _Worklist(f, Trail(f.num_vars))
    expect = list(f.clauses)
    alive = list(range(1, f.num_vars + 1))
    for pick, kind, other, signs in chain:
        if kind == "falsify":
            lits = [alive.pop(pick % len(alive)) * (1 - 2 * (signs >> j & 1))
                    for j in range(min(2 + other % 2, len(alive)))]
            steps = [(abs(lit), ("const", int(lit < 0))) for lit in lits]
        else:
            var = alive.pop(pick % len(alive))
            if kind == "link" and alive:
                state = ("link", alive[other % len(alive)] * (1 - 2 * (signs & 1)))
            else:
                state = ("const", signs & 1)
            steps = [(var, state)]
        entries = dict(w.trail.entries)
        for var, state in steps:
            expect = [substitute(c, var, state) if var in c.occ or -var in c.occ else c
                      for c in expect]
            if None in expect:
                break
            entries[var] = state
        ok = w.eliminate(lits) if kind == "falsify" else _eliminate(w, var, state)
        assert ok == (None not in expect)
        assert w.trail.entries == entries
        if not ok:
            return
        assert [_clause_view(c) for c in w.slots] == [_clause_view(c) for c in expect]
        assert [w.masks, w.sizes] == [list(m) for m in zip(*map(_classify, expect))]
        assert w.occurrences == sum(w.sizes) and w.targets == sum(c.target for c in expect)
        _assert_occurrence_superset(w)
        if not alive:
            return


def _assert_rule_index(w):
    """Bit i of pending[r] is set exactly when slot i is live and carries rule r."""
    for r, held in enumerate(w.pending):
        expect = sum(1 << i for i, (c, mask) in enumerate(zip(w.slots, w.masks))
                     if c is not None and mask >> r & 1)
        assert held == expect, (RULE_LETTERS[r], bin(held), bin(expect))


def rule_index_corpus(count=240, seed=31):
    """Seeded g2, g3 and g4 formulas with negations and repeated literals."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(8, 24)
        spec = GenSpec(n, rng.randint(2, n // 2), min_len=1, max_len=7, max_target=2 + i % 3,
                       neg_prob=rng.choice([0.0, 0.3, 0.6]), max_repeat=rng.randint(1, 3),
                       seed=i)
        yield generate(spec)[0]


def test_rule_index_matches_the_masks(monkeypatch):
    """The per-rule bitsets agree with the masks after construction, after
    every edit and elimination, and after every settle step, through whole
    searches over a seeded corpus."""
    checks = [0]

    def checked(fn, result_is_worklist=False):
        def wrapper(w, *args, **kwargs):
            out = fn(w, *args, **kwargs)
            _assert_rule_index(out if result_is_worklist else w)
            checks[0] += 1
            return out
        return wrapper

    for name in ("__init__", "add", "replace", "delete", "eliminate"):
        monkeypatch.setattr(_Worklist, name, checked(getattr(_Worklist, name)))
    monkeypatch.setattr(_Worklist, "fork", checked(_Worklist.fork, result_is_worklist=True))
    for letter in "bcdefg":  # settle looks each step up by name
        name = f"_step_{letter}"
        monkeypatch.setattr(simplify, name, checked(getattr(simplify, name)))
    fires, statuses = Counter(), Counter()
    for f in rule_index_corpus():
        result = solve_auto(f)
        assert not result.sat or evaluate(f, result.model)
        fires.update(result.stats.simplify_fires)
        statuses[result.status] += 1
    # every rule fires, so every step, and the inline (h) deletion, is checked
    assert all(fires[letter] for letter in RULE_LETTERS), fires
    assert statuses["SAT"] >= 50 and statuses["UNSAT"] >= 50, statuses
    assert checks[0] > 4000, checks


def _link_chain(m):
    # x_i + x_{i+1} = 1 for i = 1..m
    return Formula(m + 1, [Clause(1, [i, i + 1]) for i in range(1, m + 1)])


def _copies(m):
    return Formula(2, [Clause(1, [1, 2]) for _ in range(m)])


@pytest.mark.parametrize("shape, m", [(_link_chain, 40000), (_copies, 60000)])
def test_wide_easy_shapes_settle_in_about_linear_time(shape, m):
    """Each step takes its clause as the lowest set bit of a rule's bitset. A
    min() over a set of pending indices made both shapes quadratic: over 30 s
    at these sizes, against under 1 s."""
    f = shape(m)
    started = perf_counter()
    result = solve_auto(f)
    elapsed = perf_counter() - started
    assert result.sat and evaluate(f, result.model)
    assert result.stats.nodes_expanded == 1
    assert elapsed < 10, elapsed
