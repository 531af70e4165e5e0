"""Cover split, clause-by-clause enumeration, and the full two-sided solver."""

import math

import pytest

from conftest import C, F, random_formula
from gixsat.dpll import solve_auto
from gixsat.formula import Clause, Formula, evaluate
from gixsat.mitm import (
    choose_cover,
    default_alpha,
    enumerate_cover_side,
    solve_mitm,
)
from gixsat.oracle import brute_solve


def test_cover_two_disjoint_clauses():
    f = F(8, C(2, 1, 2, 3, 4), C(2, 5, 6, 7, 8))
    plan = choose_cover(f, 0.5)
    assert len(plan.cover) == 1
    assert plan.boundary is None
    assert len(plan.covered_vars) == 4
    assert len(plan.complement_vars) == 4


def test_cover_splits_single_long_clause():
    f = F(10, C(2, *range(1, 11)))
    plan = choose_cover(f, 0.6)
    assert plan.cover == []
    assert plan.boundary == 0
    assert len(plan.boundary_inside) == 6
    assert len(plan.complement_vars) == 4


def test_cover_reports_free_variables():
    f = F(6, C(1, 1, 2, 3))
    plan = choose_cover(f, 0.5)
    assert set(plan.free_vars) == {4, 5, 6}


@pytest.mark.parametrize(
    "target,alpha",
    [(2, 0.600823), (3, 0.57712), (4, 0.5633)],
)
def test_default_alpha_per_class(target, alpha):
    assert default_alpha(target) == pytest.approx(alpha, abs=1e-4)


def test_enumerate_binomial_count():
    f = F(5, C(2, 1, 2, 3, 4, 5))
    plan = choose_cover(f, 0.99)
    assert plan.cover == [0]
    emitted = list(enumerate_cover_side(f, plan))
    assert len(emitted) == math.comb(5, 2)
    for assignment, vec in emitted:
        assert vec == ()
        assert sum(assignment.values()) == 2


def test_enumerate_forced_by_multiplicity():
    f = F(2, C(1, 1, 1, 2))
    plan = choose_cover(f, 0.99)
    emitted = list(enumerate_cover_side(f, plan))
    assert len(emitted) == 1
    assert emitted[0][0] == {1: 0, 2: 1}


def test_enumerate_shared_variable_count_matches_oracle():
    # the whole formula is two clauses sharing a variable: the emitted
    # assignments are exactly the exact solutions of that subformula
    f = F(6, C(2, 1, 2, 3, 4), C(1, 4, 5, 6))
    plan = choose_cover(f, 0.99)
    assert sorted(plan.cover) == [0, 1] and plan.boundary is None
    emitted = {tuple(sorted(a.items())) for a, vec in enumerate_cover_side(f, plan)}
    expected = set()
    for bits in range(1 << 6):
        model = {v: (bits >> (v - 1)) & 1 for v in range(1, 7)}
        if evaluate(f, model):
            expected.add(tuple(sorted(model.items())))
    assert emitted == expected
    product_bound = math.comb(4, 2) * math.comb(3, 1)
    assert len(emitted) <= product_bound


def test_emitted_count_bounded_by_binomials(rng):
    # single-occurrence worst case: per clause at most C(k, target) extensions
    violations = 0
    for _ in range(100):
        f = random_formula(rng, n_max=10, m_max=4, k_max=6, t_max=4, distinct_bias=1.0)
        plan = choose_cover(f, 0.7)
        emitted = list(enumerate_cover_side(f, plan))
        bound = 1
        for i in plan.cover:
            c = f.clauses[i]
            bound *= math.comb(len(c.variables()), min(c.target, len(c.variables())))
        if plan.boundary is not None:
            bound *= 1 << len(plan.boundary_inside)
        if len(emitted) > bound:
            violations += 1
    assert violations == 0


def test_vector_discipline(rng):
    for _ in range(60):
        f = random_formula(rng, n_max=9, m_max=5)
        plan = choose_cover(f, 0.6)
        watch = [f.clauses[i] for i in plan.shared]
        if plan.boundary is not None:
            watch.append(f.clauses[plan.boundary])
        for _, vec in enumerate_cover_side(f, plan):
            assert len(vec) == len(watch)
            assert all(0 <= entry <= c.target for entry, c in zip(vec, watch))


def test_solve_cover_everything():
    f = F(4, C(2, 1, 2, 3, 4))
    result = solve_mitm(f, alpha=0.99)
    assert result.sat and evaluate(f, result.model)


def test_solve_pure_sweep():
    # alpha so small the cover is empty: the sweep does all the work
    f = F(4, C(2, 1, 2, 3, 4), C(1, 1, 4))
    result = solve_mitm(f, alpha=0.05)
    assert result.stats.cover_size == 0
    assert result.sat == brute_solve(f).sat
    assert evaluate(f, result.model)


def test_solve_unsat():
    assert not solve_mitm(F(1, C(2, 1, -1))).sat


def test_free_variables_in_witness():
    f = F(6, C(1, 2, 3))
    result = solve_mitm(f)
    assert result.sat
    assert set(result.model) == set(range(1, 7))
    assert evaluate(f, result.model)


def test_rejects_large_targets():
    with pytest.raises(ValueError):
        solve_mitm(Formula(5, [Clause(5, [1, 2, 3, 4, 5])]))


def test_memory_exhaustion_is_a_resource_error(monkeypatch):
    import gixsat.mitm as mitm_module

    def boom(formula, plan):
        raise MemoryError("table full")
        yield  # pragma: no cover

    monkeypatch.setattr(mitm_module, "enumerate_cover_side", boom)
    with pytest.raises(mitm_module.ResourceLimitError):
        mitm_module.solve_mitm(F(4, C(2, 1, 2, 3, 4)))


def test_three_way_agreement(rng):
    for _ in range(400):
        f = random_formula(rng, n_max=11, m_max=6, k_max=7, t_max=4)
        truth = brute_solve(f).sat
        assert solve_mitm(f).sat == truth
        assert solve_auto(f).sat == truth


def test_agreement_with_custom_alpha(rng):
    for alpha in (0.3, 0.5, 0.600823, 0.8):
        for _ in range(40):
            f = random_formula(rng, n_max=9, m_max=4)
            assert solve_mitm(f, alpha=alpha).sat == brute_solve(f).sat
