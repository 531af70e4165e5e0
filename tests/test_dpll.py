"""Branch-and-bound solvers against the brute-force reference."""

import random

import pytest
from hypothesis import given, settings

from conftest import C, F, formulas, random_formula
from gixsat.dpll import endgame_low_degree, solve_auto, solve_g2, solve_g3, solve_g4
from gixsat.formula import Clause, Formula, evaluate
from gixsat.oracle import brute_solve


def check_against_oracle(f, solver):
    truth = brute_solve(f)
    result = solver(f)
    assert result.sat == truth.sat, f"disagrees with brute force on {f!r}"
    if result.sat:
        assert evaluate(f, result.model)
    return result


def test_pair_contributes_one():
    # (x -x y) with target 2 needs y true and nothing else
    result = check_against_oracle(F(2, C(2, 1, -1, 2)), solve_g2)
    assert result.sat and result.model[2] == 1


def test_fixed_regression_two_exactly2_one_exactly1():
    f = F(7, C(2, 1, 2, 3, 4), C(2, 1, 2, 5, 6), C(1, 3, 5, 7))
    result = check_against_oracle(f, solve_g2)
    assert result.sat  # frozen: brute force over 2^7 gives 7 models


def test_fixed_regression_overlapping_exactly1():
    f = F(4, C(1, 1, 2, 3), C(1, 1, -2, 4))
    result = check_against_oracle(f, solve_g2)
    assert result.sat  # frozen: 2 models, e.g. x=0 y=1 z=0 w=1


def test_g3_all_true():
    result = check_against_oracle(F(3, C(3, 1, 2, 3)), solve_g3)
    assert result.model == {1: 1, 2: 1, 3: 1}


def test_g3_all_doubled_odd_target_unsat():
    assert not solve_g3(F(3, C(3, 1, 1, 2, 2, 3, 3))).sat


def test_g4_quadrupled_literal():
    result = check_against_oracle(F(2, C(4, 1, 1, 1, 1, 2)), solve_g4)
    assert result.sat and result.model == {1: 1, 2: 0}


def test_g4_doubled_everything_downgrades():
    result = check_against_oracle(F(4, C(4, 1, 1, 2, 2, 3, 3, 4, 4)), solve_g4)
    assert result.sat


def test_target_caps():
    with pytest.raises(ValueError):
        solve_g2(F(3, C(3, 1, 2, 3)))
    with pytest.raises(ValueError):
        solve_g3(F(4, C(4, 1, 2, 3, 4)))
    assert solve_g4(F(5, C(4, 1, 2, 3, 4), C(0, 5))).sat
    with pytest.raises(ValueError):
        solve_g4(Formula(5, [Clause(5, [1, 2, 3, 4, 5])]))


def test_solve_auto_dispatch():
    assert solve_auto(F(3, C(1, 1, 2, 3))).sat
    assert solve_auto(F(3, C(3, 1, 2, 3))).sat
    assert solve_auto(F(4, C(4, 1, 2, 3, 4))).sat
    with pytest.raises(ValueError):
        solve_auto(Formula(5, [Clause(5, [1, 2, 3, 4, 5])]))


def test_empty_formula_sat():
    result = solve_auto(F(3))
    assert result.sat and evaluate(F(3), result.model)


def test_oracle_equivalence_random_small(rng):
    for _ in range(600):
        f = random_formula(rng, n_max=8, m_max=6, k_max=6, t_max=4)
        top = max((c.target for c in f.clauses), default=0)
        check_against_oracle(f, solve_g4)
        if top <= 3:
            check_against_oracle(f, solve_g3)
        if top <= 2:
            check_against_oracle(f, solve_g2)


def test_oracle_equivalence_structured_g2(rng):
    # long exactly-2 clauses over nearly disjoint variables reach the
    # heavy-variable rules and the low-degree endgame
    for trial in range(120):
        n = 14
        m = rng.randint(3, 5)
        clauses = []
        for _ in range(m):
            variables = rng.sample(range(1, n + 1), rng.choice([5, 6]))
            clauses.append(Clause(2, [v if rng.random() < 0.8 else -v for v in variables]))
        if rng.random() < 0.5:
            variables = rng.sample(range(1, n + 1), 3)
            clauses.append(Clause(1, [v if rng.random() < 0.8 else -v for v in variables]))
        check_against_oracle(Formula(n, clauses), solve_g2)


@given(formulas(n_max=6, m_max=4, k_max=5, t_max=4))
@settings(max_examples=200, deadline=None)
def test_oracle_equivalence_property(f):
    truth = brute_solve(f).sat
    result = solve_auto(f)
    assert result.sat == truth
    if result.sat:
        assert evaluate(f, result.model)


def test_witness_on_original_formula(rng):
    for _ in range(200):
        f = random_formula(rng, n_max=9, m_max=5)
        result = solve_auto(f)
        if result.sat:
            assert evaluate(f, result.model)


def test_determinism(rng):
    for _ in range(40):
        f = random_formula(rng, n_max=8, m_max=5)
        a = solve_auto(f)
        b = solve_auto(f)
        assert a.sat == b.sat and a.model == b.model
        assert a.stats.rule_fires == b.stats.rule_fires
        assert a.stats.nodes_expanded == b.stats.nodes_expanded


def test_stats_counts_nodes():
    f = F(7, C(2, 1, 2, 3, 4), C(2, 1, 2, 5, 6), C(1, 3, 5, 7))
    result = solve_g2(f)
    assert result.stats.nodes_expanded >= 1
    assert result.stats.measure_at_root > 0


def test_measure_strictly_decreases_along_branches():
    rng = random.Random(2024)
    viol = 0
    checks = 0
    for _ in range(600):
        n = rng.randint(4, 12)
        tmax = rng.choice([2, 3, 4])
        clauses = []
        for _ in range(rng.randint(1, 8)):
            k = rng.randint(2, min(7, n))
            if rng.random() < 0.8:
                variables = rng.sample(range(1, n + 1), k)
                lits = [v if rng.random() < 0.75 else -v for v in variables]
            else:
                lits = [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(k)]
            clauses.append(Clause(rng.randint(1, tmax), lits))
        f = Formula(n, clauses)
        solver = {2: solve_g2, 3: solve_g3, 4: solve_g4}[tmax]
        result = solver(f, instrument=True)
        checks += result.stats.measure_checks
        viol += len(result.stats.measure_violations)
    assert checks > 100
    assert viol == 0


def test_endgame_empty():
    assert endgame_low_degree(F(4)).sat


def test_endgame_disjoint_clauses():
    f = F(6, C(2, 1, 2, 3), C(1, 4, 5, 6))
    result = endgame_low_degree(f)
    assert result.sat and evaluate(f, result.model)
    # a doubled literal can never hit an odd target: that component fails
    assert not endgame_low_degree(F(2, C(1, 1, 1), C(1, 2))).sat


def test_endgame_chain():
    f = F(7, C(2, 1, 2, 3), C(2, 3, 4, 5), C(2, 5, 6, 7))
    result = endgame_low_degree(f)
    assert result.sat == brute_solve(f).sat  # frozen: satisfiable, 8 models
    assert evaluate(f, result.model)


def test_endgame_rejects_heavy():
    f = F(4, C(1, 1, 2), C(1, 1, 3), C(1, 1, 4))
    with pytest.raises(ValueError):
        endgame_low_degree(f)


def test_endgame_random_low_degree(rng):
    for _ in range(200):
        n = rng.randint(3, 12)
        clauses = []
        budget = {v: 2 for v in range(1, n + 1)}
        for _ in range(rng.randint(1, 5)):
            avail = [v for v, b in budget.items() if b > 0]
            if len(avail) < 2:
                break
            k = rng.randint(2, min(5, len(avail)))
            variables = rng.sample(avail, k)
            for v in variables:
                budget[v] -= 1
            clauses.append(
                Clause(rng.randint(1, 3), [v if rng.random() < 0.7 else -v for v in variables])
            )
        if not clauses:
            continue
        f = Formula(n, clauses)
        truth = brute_solve(f)
        result = endgame_low_degree(f)
        assert result.sat == truth.sat
        if result.sat:
            assert evaluate(f, result.model)


def test_paired_heavy_variables_against_oracle():
    # two degree-3 variables sharing one 6-literal clause, pairwise variable
    # overlap at most 1: the four-way branch on the pair decides these
    lits_sets = (
        [1, 2, 3, 4, 5, 6],
        [1, 7, 12, 17, 18, 19],
        [1, 8, 13, 20, 21, 22],
        [2, 7, 8, 9, 10, 11],
        [2, 12, 13, 14, 15, 16],
    )
    fired = 0
    for seed in (5, 7, 11):
        rng = random.Random(seed)
        clauses = [
            Clause(2, [v if rng.random() < 0.75 else -v for v in lits]) for lits in lits_sets
        ]
        f = Formula(22, clauses)
        result = solve_g2(f)
        fired += result.stats.rule_fires.get("g2.16.pair", 0)
        truth = brute_solve(f, limit=22)
        assert result.sat == truth.sat
        if result.sat:
            assert evaluate(f, result.model)
    assert fired >= 3


def test_deep_instance_planted():
    from gixsat.generator import GenSpec, generate

    f, hidden = generate(GenSpec(num_vars=30, num_clauses=24, min_len=4, max_len=6,
                                 max_target=2, planted=True, seed=5))
    assert evaluate(f, hidden)
    result = solve_g2(f)
    assert result.sat and evaluate(f, result.model)
