"""Core object behaviour: substitution, evaluation, model reconstruction."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import C, F, formulas, random_formula
from gixsat.formula import (
    Clause,
    Formula,
    Trail,
    assign,
    evaluate,
    link,
    lit_key,
    lit_value,
    true_count,
)
from gixsat.oracle import brute_solve


def test_assign_decrements_target_exactly_once():
    f = F(3, C(1, 1, 2, 3))
    t = Trail(3)
    g = assign(f, t, 1, 1)
    assert g.clauses == [C(0, 2, 3)]


def test_assign_repeated_literal_counts_multiplicity():
    f = F(3, C(2, 1, 1, 2, 3))
    t = Trail(3)
    g = assign(f, t, 1, 1)
    assert g.clauses == [C(0, 2, 3)]


def test_assign_oversatisfaction_conflicts():
    f = F(1, C(1, 1, 1))
    t = Trail(1)
    assert assign(f, t, 1, 1) is None
    assert 1 not in t.entries


def test_assign_requires_unassigned():
    f = F(2, C(1, 1, 2))
    t = Trail(2)
    assign(f, t, 1, 0)
    with pytest.raises(ValueError):
        assign(f, t, 1, 1)


def test_link_cancels_created_pair():
    # (x y w v) with target 2: substituting y := -x cancels against x
    f = F(4, C(2, 1, 2, 3, 4))
    t = Trail(4)
    g = link(f, t, 2, -1)
    assert g.clauses == [C(1, 3, 4)]
    # satisfiability agrees with the oracle on consistent extensions
    orig_count = sum(
        1
        for bits in range(16)
        if evaluate(f, {v: (bits >> (v - 1)) & 1 for v in range(1, 5)})
        and ((bits >> 0) & 1) == 1 - ((bits >> 1) & 1)
    )
    new_count = brute_solve(g).model_count
    assert new_count == 2 * orig_count


@example({-2: 1, 3: 2, 2: 1, -1: 3, 1: 1})
@given(st.dictionaries(st.integers(-6, 6).filter(bool), st.integers(1, 3), max_size=8))
@settings(max_examples=200, deadline=None)
def test_canonical_order_is_that_of_lit_key(occ):
    # clauses with both signs of a variable and repeated literals
    c = Clause(0, occ)
    order = sorted(occ, key=lit_key)
    assert c.sorted_literals() == order
    assert c.expanded() == [lit for lit in order for _ in range(occ[lit])]


def test_link_rejects_self():
    f = F(2, C(1, 1, 2))
    with pytest.raises(ValueError):
        link(f, Trail(2), 1, -1)


def test_trail_check_rejects_without_recording():
    t = Trail(3)
    t.record_consts({3: 1})
    for var, state, message in (
        (3, ("const", 0), "already eliminated"),
        (3, ("link", 1), "already eliminated"),
        (1, ("link", -1), "itself"),
        (1, ("link", 3), "partner must be unassigned"),
        (1, ("const", 2), "value must be 0 or 1"),
        (3, ("const", 2), "already eliminated"),
        (-2, ("const", 1), "variable -2 out of range 1..3"),
        (0, ("const", 1), "variable 0 out of range"),
        (4, ("link", 1), "variable 4 out of range"),
        (1, ("link", 0), "link partner 0 is not a literal over 1..3"),
        (1, ("link", 9), "link partner 9 is not a literal"),
        (1, ("link", -4), "link partner -4 is not a literal"),
    ):
        with pytest.raises(ValueError, match=message):
            t.check(var, state)
    assert t.entries == {3: ("const", 1)}
    # the public entry points share the gate, so they record nothing either
    f = F(3, C(1, 1, 2, 3))
    for call, var, arg in ((assign, -2, 1), (link, 1, 0), (link, 1, 9)):
        with pytest.raises(ValueError, match="out of range|not a literal"):
            call(f, t, var, arg)
    assert t.entries == {3: ("const", 1)}
    t.check(1, ("link", -2))
    t.record(1, ("link", -2))
    assert list(t.entries.items()) == [(3, ("const", 1)), (1, ("link", -2))]


def test_trail_record_consts_checks_every_value_before_writing():
    # a failing variable after passing ones: nothing is written either way
    for values, message in (
        ({1: 0, 4: 1}, "variable 4 out of range 1..3"),
        ({1: 0, 0: 1}, "variable 0 out of range"),
        ({1: 0, 2: 1}, "variable 2 already eliminated"),
        ({1: 0, 3: 2}, "value must be 0 or 1"),
    ):
        t = Trail(3)
        t.record(2, ("link", -1))
        with pytest.raises(ValueError, match=message):
            t.record_consts(values)
        assert t.entries == {2: ("link", -1)}


def test_trail_record_consts_writes_in_ascending_order():
    t = Trail(5)
    t.record(4, ("link", 1))
    t.record_consts({5: 1, 1: 0, 3: 1})
    assert list(t.entries.items()) == [
        (4, ("link", 1)), (1, ("const", 0)), (3, ("const", 1)), (5, ("const", 1)),
    ]
    t.record_consts({})
    assert len(t.entries) == 4


def test_link_dissolves_two_literal_clause():
    f = F(3, C(1, 2, 3))
    t = Trail(3)
    g = link(f, t, 2, -3)
    assert g.clauses[0].target == 0 and g.clauses[0].size() == 0


@pytest.mark.parametrize(
    "clause,model,expected",
    [
        (C(2, 1, -1, 2), {1: 0, 2: 1}, True),
        (C(2, 1, -1), {1: 0}, False),
        (C(2, 1, -1), {1: 1}, False),
        (C(1, 1, 1, 2), {1: 0, 2: 1}, True),
        (C(1, 1, 1, 2), {1: 1, 2: 0}, False),
    ],
)
def test_evaluate_counts_with_multiplicity(clause, model, expected):
    assert evaluate(Formula(max(model), [clause]), model) is expected


def test_evaluate_rejects_partial_model():
    # the counted literals already meet the target, but x3 has no value: a
    # witness check must not accept a model that skips a clause variable
    with pytest.raises(KeyError):
        evaluate(F(3, C(1, 1, 2, 3)), {1: 1, 2: 0})


def _evaluate_by_difference(formula, model):
    # the set-difference evaluate: the lowest variable of the first clause
    # with any unvalued variable raises, else clauses are counted in order
    for c in formula.clauses:
        missing = c.variables().difference(model)
        if missing:
            raise KeyError(min(missing))
        if true_count(c, model) != c.target:
            return False
    return True


def _outcome(fn, formula, model):
    try:
        return fn(formula, model)
    except KeyError as exc:
        return ("KeyError", exc.args)


def test_evaluate_matches_set_difference_reference(rng):
    # the benchmark checks every witness with evaluate: total 0/1 models,
    # partial models and models holding a 2 must give the same bool, or a
    # KeyError naming the same variable, as the reference
    kinds = Counter()
    for _ in range(3000):
        f = random_formula(rng, n_max=8, m_max=6, k_max=6)
        n = f.num_vars
        model = {v: rng.randint(0, 1) for v in range(1, n + 1)}
        shape = rng.randrange(4)
        if shape == 1:
            for v in rng.sample(range(1, n + 1), rng.randint(1, n)):
                del model[v]
        elif shape == 2:
            model[rng.randint(1, n)] = 2
        elif shape == 3:  # planted: the model satisfies each clause it can
            model = {v: rng.randint(0, 1) for v in range(1, n + 1)}
            f = Formula(n, [Clause(true_count(c, model), c.occ) for c in f.clauses])
        expected = _outcome(_evaluate_by_difference, f, model)
        assert _outcome(evaluate, f, model) == expected
        kinds[expected if isinstance(expected, bool) else "KeyError"] += 1
    assert min(kinds[True], kinds[False], kinds["KeyError"]) >= 100, kinds


def test_reconstruct_links_chain():
    t = Trail(3)
    t.record(2, ("link", -3))
    model = t.reconstruct({1: 1, 3: 0})
    assert model == {1: 1, 2: 1, 3: 0}


def test_reconstruct_identity_on_empty_trail():
    t = Trail(2)
    assert t.reconstruct({1: 0, 2: 1}) == {1: 0, 2: 1}


def test_reconstruct_without_roots_values_each_survivor_0():
    """With no root values every unassigned variable takes 0: the model and
    its key order are those of explicit zeros."""
    t = Trail(5)
    t.record(2, ("link", -3))
    t.record(4, ("const", 1))
    t.record(3, ("link", 5))
    zeros = t.reconstruct({1: 0, 5: 0})
    model = t.reconstruct()
    assert model == zeros == {1: 0, 2: 1, 3: 0, 4: 1, 5: 0}
    assert list(model) == list(zeros) == [1, 4, 5, 3, 2]


def test_reconstruct_requires_root_values():
    t = Trail(2)
    t.record(1, ("link", 2))
    with pytest.raises(ValueError):
        t.reconstruct({})


@given(formulas(n_max=5, m_max=3, k_max=4))
@settings(max_examples=120, deadline=None)
def test_evaluate_matches_direct_truth_table(f):
    # evaluate() against an independently written per-clause counter
    n = f.num_vars
    for bits in range(1 << n):
        model = {v: (bits >> (v - 1)) & 1 for v in range(1, n + 1)}
        expected = True
        for c in f.clauses:
            count = 0
            for lit in c.expanded():
                value = model[abs(lit)] if lit > 0 else 1 - model[abs(lit)]
                count += value
            if count != c.target:
                expected = False
                break
        assert evaluate(f, model) is expected


def test_forced_assign_preserves_counts(rng):
    # assigning a value leaves exactly the models extending that value,
    # with the eliminated variable free afterwards
    for _ in range(150):
        f = random_formula(rng, n_max=6, m_max=4)
        n = f.num_vars
        var = rng.randint(1, n)
        value = rng.randint(0, 1)
        t = Trail(n)
        g = assign(f, t, var, value)
        restricted = 0
        for bits in range(1 << n):
            model = {v: (bits >> (v - 1)) & 1 for v in range(1, n + 1)}
            if model[var] == value and evaluate(f, model):
                restricted += 1
        if g is None:
            assert restricted == 0
        else:
            assert brute_solve(g).model_count == 2 * restricted


def test_forced_link_preserves_counts(rng):
    for _ in range(150):
        f = random_formula(rng, n_max=6, m_max=4)
        n = f.num_vars
        if n < 2:
            continue
        var = rng.randint(1, n)
        other = rng.choice([v for v in range(1, n + 1) if v != var])
        partner = other if rng.random() < 0.5 else -other
        t = Trail(n)
        g = link(f, t, var, partner)
        restricted = 0
        for bits in range(1 << n):
            model = {v: (bits >> (v - 1)) & 1 for v in range(1, n + 1)}
            partner_value = model[other] if partner > 0 else 1 - model[other]
            if model[var] == partner_value and evaluate(f, model):
                restricted += 1
        if g is None:
            assert restricted == 0
        else:
            assert brute_solve(g).model_count == 2 * restricted


def reconstruct_two_pass(trail, root_values):
    """Reference replay: a pass in event order writes the constants and drops
    the linked variables, then a reversed pass over every entry replays the
    links newest first."""
    model = {v: root_values.get(v, 0) for v in range(1, trail.num_vars + 1)}
    for v, st in trail.entries.items():
        if st[0] == "const":
            model[v] = st[1]
        else:
            del model[v]
    for v, st in reversed(trail.entries.items()):
        if st[0] == "link":
            model[v] = lit_value(st[1], model)
    return model


def test_trail_stays_acyclic_under_fuzzed_operations(rng):
    # arbitrary assign/link sequences: chains always end at a constant or an
    # unassigned root, so reconstruction terminates with a total model, the
    # one the two-pass replay gives
    mixed = 0
    for _ in range(150):
        f = random_formula(rng, n_max=7, m_max=4)
        t = Trail(f.num_vars)
        for _ in range(rng.randint(1, 10)):
            free = t.unassigned_vars()
            if not free:
                break
            var = rng.choice(free)
            if rng.random() < 0.5 or len(free) == 1:
                g = assign(f, t, var, rng.randint(0, 1))
            else:
                other = rng.choice([v for v in free if v != var])
                g = link(f, t, var, other if rng.random() < 0.5 else -other)
            if g is None:
                break
            f = g
        roots = {v: rng.randint(0, 1) for v in t.unassigned_vars()}
        model = t.reconstruct(roots)
        assert set(model) == set(range(1, f.num_vars + 1))
        assert model == reconstruct_two_pass(t, roots)
        assert t.reconstruct() == reconstruct_two_pass(t, {})
        mixed += {st[0] for st in t.entries.values()} == {"const", "link"}
        for var, st in t.entries.items():
            if st[0] == "link":
                partner = st[1]
                expected = model[abs(partner)] if partner > 0 else 1 - model[abs(partner)]
                assert model[var] == expected
    assert mixed >= 20



def _stale_link_trail():
    # entries written directly, out of order: 1 links to 2, which a link
    # recorded before it eliminated, so the newest-first replay meets 2 unvalued
    t = Trail(3)
    t.entries[2] = ("link", 3)
    t.entries[1] = ("link", 2)
    return t


@pytest.mark.parametrize("call, message", [
    (lambda: Clause(1, {1: 0}), "bad literal/multiplicity in clause"),
    (lambda: Clause(1, {0: 1}), "bad literal/multiplicity in clause"),
    (lambda: Clause(1, [1, 0]), "0 is not a literal"),
    (lambda: Formula(-1), "num_vars must be nonnegative"),
    (lambda: Formula(2, [Clause(-1, [1])]), "negative clause target"),
    (lambda: Formula(2, [Clause(1, [1, -3])]), "literal -3 out of range 1..2"),
    (lambda: _stale_link_trail().reconstruct({3: 0}), "link chain reached an unvalued variable"),
    (lambda: _stale_link_trail().reconstruct(), "link chain reached an unvalued variable"),
])
def test_input_checks_raise_value_error_with_their_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert (type(info.value), str(info.value)) == (ValueError, message)
