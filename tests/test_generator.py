"""Seeded generation: determinism, planted satisfiability, calibration."""

import pytest

from gixsat.formula import evaluate
from gixsat.generator import GenSpec, generate
from gixsat.oracle import brute_solve
from gixsat.textio import parse, serialize


def test_deterministic_by_seed():
    spec = GenSpec(num_vars=10, num_clauses=6, max_target=3, seed=1234)
    a, _ = generate(spec)
    b, _ = generate(spec)
    assert a == b
    c, _ = generate(GenSpec(num_vars=10, num_clauses=6, max_target=3, seed=1235))
    assert a != c


def test_planted_always_sat():
    for seed in range(60):
        spec = GenSpec(num_vars=9, num_clauses=7, max_target=4, planted=True, seed=seed)
        f, hidden = generate(spec)
        assert hidden is not None
        assert evaluate(f, hidden)
        assert brute_solve(f).sat


def test_planted_targets_in_range():
    for seed in range(40):
        f, _ = generate(GenSpec(num_vars=8, num_clauses=6, max_target=2, planted=True, seed=seed))
        assert all(1 <= c.target <= 2 for c in f.clauses)


def test_random_mode_targets_capped():
    for seed in range(40):
        f, hidden = generate(GenSpec(num_vars=8, num_clauses=6, max_target=3, seed=seed))
        assert hidden is None
        assert all(1 <= c.target <= 3 for c in f.clauses)


def test_multiplicity_allowance():
    f, _ = generate(GenSpec(num_vars=4, num_clauses=10, min_len=4, max_len=6,
                            max_target=4, max_repeat=2, seed=3))
    assert any(max(c.occ.values()) == 2 for c in f.clauses)
    assert all(m <= 2 for c in f.clauses for m in c.occ.values())
    g, _ = generate(GenSpec(num_vars=8, num_clauses=10, min_len=4, max_len=6,
                            max_target=4, max_repeat=1, seed=3))
    assert all(m == 1 for c in g.clauses for m in c.occ.values())
    assert all(len(c.variables()) == c.size() for c in g.clauses)


def test_infeasible_spec_rejected():
    with pytest.raises(ValueError):
        GenSpec(num_vars=3, num_clauses=1, min_len=4, max_len=5, max_repeat=1)
    with pytest.raises(ValueError):
        GenSpec(num_vars=3, num_clauses=1, max_target=5)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"num_vars": 0, "num_clauses": 1}, "need at least one variable"),
        ({"num_vars": 5, "num_clauses": -1}, "num_clauses must not be negative"),
        ({"num_vars": 5, "num_clauses": 2, "neg_prob": 2.0}, "neg_prob must lie in"),
        ({"num_vars": 5, "num_clauses": 2, "neg_prob": -0.1}, "neg_prob must lie in"),
        ({"num_vars": 5, "num_clauses": 2, "neg_prob": float("nan")}, "neg_prob must lie in"),
        # negative literals only: each variable gives one, max_repeat times
        ({"num_vars": 2, "num_clauses": 1, "min_len": 5, "max_len": 5, "max_repeat": 2,
          "neg_prob": 1.0}, "max_len 5 exceeds the 4 literals"),
    ],
)
def test_spec_errors_name_their_field(fields, message):
    with pytest.raises(ValueError, match=message):
        GenSpec(**fields)


def test_wide_clauses_fill_to_capacity():
    # all 3000 variables in one clause takes about 26000 draws
    f, _ = generate(GenSpec(num_vars=3000, num_clauses=1, min_len=3000, max_len=3000))
    assert sorted(f.clauses[0].variables()) == list(range(1, 3001))
    # every literal of two variables, twice each: the spec's whole capacity
    g, _ = generate(GenSpec(num_vars=2, num_clauses=3, min_len=8, max_len=8, max_repeat=2))
    assert all(c.occ == {1: 2, -1: 2, 2: 2, -2: 2} for c in g.clauses)



def test_rare_sign_fills_once_the_draw_budget_is_spent():
    # drawing x1's negation twice at neg_prob 1e-4 takes about 20000 draws,
    # past the 10000 budget, so the last slots come from the allowed literals
    for seed in range(20):
        f, _ = generate(GenSpec(num_vars=1, num_clauses=1, min_len=4, max_len=4,
                                max_repeat=2, neg_prob=0.0001, seed=seed))
        assert f.clauses[0].occ == {1: 2, -1: 2}, seed


def test_planted_fallback_keeps_to_the_allowed_literals():
    # at this neg_prob a drawn clause is (1 1 2 2 3 3), whose true count is
    # even, so nearly every clause is built directly, and a built one holds a
    # negative literal (a true or a false one); built clauses hold each
    # literal at most twice and still meet the hidden model
    built = 0
    for seed in range(20):
        f, hidden = generate(GenSpec(num_vars=3, num_clauses=20, min_len=6, max_len=6,
                                     max_repeat=2, neg_prob=0.0001, planted=True,
                                     max_target=1, seed=seed))
        assert evaluate(f, hidden), seed
        assert all(c.target == 1 and max(c.occ.values()) <= 2 for c in f.clauses), seed
        built += sum(any(l < 0 for l in c.occ) for c in f.clauses)
    assert built > 100


@pytest.mark.parametrize("fields", [
    # every allowed clause of 8 literals over 2 variables holds each literal
    # twice, so 4 are true where max_target is 3
    dict(num_vars=2, min_len=8, max_len=8, max_target=3, seed=2),
    # the one clause of 4 literals over 1 variable is (1 1 -1 -1), with 2 true
    dict(num_vars=1, min_len=4, max_len=4, max_target=1, neg_prob=0.0001, seed=0),
])
def test_planted_spec_without_a_valid_clause_is_rejected(fields):
    with pytest.raises(ValueError, match="no planted clause of length"):
        generate(GenSpec(num_clauses=5, max_repeat=2, planted=True, **fields))


@pytest.mark.parametrize("neg_prob", [0.0, 1.0])
def test_neg_prob_end_points(neg_prob):
    f, _ = generate(GenSpec(num_vars=6, num_clauses=4, neg_prob=neg_prob, seed=3))
    assert all((lit < 0) == (neg_prob == 1.0) for c in f.clauses for lit in c.occ)


def test_round_trip_through_text():
    for seed in range(30):
        f, _ = generate(GenSpec(num_vars=7, num_clauses=5, max_target=4, max_repeat=2, seed=seed))
        assert parse(serialize(f)) == f


def test_sat_fraction_calibration():
    # frozen calibration: this spec family is neither trivially satisfiable
    # nor hopeless (54/1000 over seeds 0..999, recorded once and pinned)
    sat = 0
    for seed in range(1000):
        f, _ = generate(GenSpec(num_vars=12, num_clauses=8, min_len=3, max_len=5,
                                max_target=4, seed=seed))
        if brute_solve(f).sat:
            sat += 1
    assert sat == 54
    assert 0 < sat < 1000
