"""Branching-factor roots, measures, clause counts, split fractions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import C, F, formulas
from gixsat import analysis
from gixsat.analysis import (
    alpha_for,
    big_f,
    big_g,
    binom_branching,
    branching_factor,
    combine_vectors,
    load_tau_regression,
    max_binom_branching_bound,
    measure,
    profile_count,
    run_tau_regression,
    verify_f_le_g,
    OccurrenceProfile,
)
from gixsat.oracle import count_clause_solutions


def test_two_way_unit_vector():
    assert branching_factor((1, 1)) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize(
    "vector,expected",
    [
        ((2.2156, 2.2156), 1.3674),
        ((2, 3), 1.3248),
        ((1.0955, 2.0955), 1.5687),
        ((3.0195, 1.6078), 1.3633),
        ((1.4116, 1.4116), 1.6341),
    ],
)
def test_quoted_roots(vector, expected):
    assert branching_factor(vector) == pytest.approx(expected, abs=1e-4)


def test_rejects_bad_vectors():
    with pytest.raises(ValueError):
        branching_factor((1.0,))
    with pytest.raises(ValueError):
        branching_factor((1.0, -2.0))
    with pytest.raises(ValueError):
        branching_factor((0.0, 1.0))
    # no root above 1 exists with an infinite entry, and no split for an infinite base
    for bad in (lambda: branching_factor((1.0, math.inf)),
                lambda: branching_factor((math.inf, math.inf)), lambda: alpha_for(math.inf)):
        with pytest.raises(ValueError, match="finite"):
            bad()


@pytest.mark.parametrize("vector", [(1e-300, 1e-300), (1e-3, 1e-3), (1e-300,) * 3])
def test_rejects_entries_too_small_to_bracket(vector):
    # the root is 2**(1/t) or beyond: past MAX_BRANCHING_FACTOR, or past any float
    with pytest.raises(ValueError, match="too small"):
        branching_factor(vector)


@pytest.mark.parametrize("vector", [(1e-20, 1.0), (1e-30, 1.0, 2.0)])
def test_tiny_entry_moves_the_root(vector):
    # written as sum(x**-t) - 1 the residual reads 0 from 2**53 on, and the
    # bisection stops there; the root of (1e-20, 1) is about 2.4e18
    t_min, *rest = vector

    def residual(x):
        return math.expm1(-t_min * math.log(x)) + sum(x ** -t for t in rest)

    beta = branching_factor(vector)
    assert abs(residual(beta)) <= 1e-9
    assert residual(beta * (1 - 1e-9)) > 0 > residual(beta * (1 + 1e-9))
    # near the root x**-t_min - 1 is about -t_min * ln x, which the 1/x term
    # (with 1/x**2, negligible) must cancel
    assert beta * math.log(beta) == pytest.approx(1 / t_min, rel=1e-9)


def test_subnormal_entry_is_too_small():
    # the root of (5e-324, 1) is past 1e320
    with pytest.raises(ValueError, match="too small"):
        branching_factor((5e-324, 1.0))


def test_largest_bracketed_factor():
    # 2**(1/t) for t = 1/990 is about 1e298, still below MAX_BRANCHING_FACTOR
    t = 1.0 / 990.0
    assert branching_factor((t, t)) == pytest.approx(2.0 ** 990.0, rel=1e-9)


def test_many_way_bracket():
    # r equal entries of 1 have root exactly r
    for r in (2, 3, 4, 5, 8):
        assert branching_factor((1.0,) * r) == pytest.approx(r, abs=1e-8)


@given(
    st.lists(st.floats(0.2, 5.0), min_size=2, max_size=5),
    st.floats(0.3, 3.0),
)
@settings(max_examples=150, deadline=None)
def test_scale_consistency(vector, s):
    # root of the scaled vector is the original root to the power 1/s
    base = branching_factor(vector)
    scaled = branching_factor([s * t for t in vector])
    assert scaled == pytest.approx(base ** (1.0 / s), rel=1e-6)


@given(st.lists(st.floats(0.2, 5.0), min_size=2, max_size=5), st.integers(0, 4), st.floats(0.01, 2.0))
@settings(max_examples=150, deadline=None)
def test_monotonicity(vector, idx, bump):
    # enlarging one decrease can only shrink the root
    idx = idx % len(vector)
    bigger = list(vector)
    bigger[idx] += bump
    assert branching_factor(bigger) <= branching_factor(vector) + 1e-9


@given(st.floats(0.5, 4.0), st.floats(0.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_balance(k, spread):
    # for i + j = 2k the balanced split has the smallest root
    i, j = k - spread / 2, k + spread / 2
    if i <= 0:
        return
    assert branching_factor((k, k)) <= branching_factor((i, j)) + 1e-9


def test_combine_vectors_substitutes():
    assert combine_vectors(0, (2, 3), (1, 4)) == (3, 6, 3)


def test_combine_vectors_rejects_empty_child():
    with pytest.raises(ValueError):
        combine_vectors(0, (2, 3), ())
    with pytest.raises(ValueError):
        combine_vectors(2, (2, 3), (1,))


def test_combined_five_literal_exactly_two():
    vec = combine_vectors(0, (1.581, 0.875), (1.794, 1.794))
    vec = combine_vectors(len(vec) - 1, vec, (1.5, 2.5))
    assert sorted(vec) == pytest.approx(sorted((3.375, 3.375, 2.375, 3.375)))
    assert branching_factor(vec) == pytest.approx(1.5686, abs=1e-3)


def test_combined_ten_literal_exactly_four():
    parent = (3.2992, 1.4704, 2.0)
    vec = combine_vectors(2, parent, (1.4116, 1.4116))
    vec = combine_vectors(0, vec, (6.7008, 1.8224, 1.6752))
    assert branching_factor(vec) == pytest.approx(1.6545, abs=1e-3)


def test_measure_weights_example():
    f = F(7, C(1, 1, 2, 3), C(2, 1, 4, 5, 6, 7))
    assert measure(f, "g2") == pytest.approx(3 * 0.8039 + 4 * 1.0)


def test_measure_cancelling_variable_not_low_weight():
    # y appears only as y, -y in the exactly-1 clause: the clause value never
    # depends on it, so it keeps weight 1
    f = F(3, C(1, 1, 2, -2, 3))
    assert measure(f, "g2") == pytest.approx(2 * 0.8039 + 1.0)


def test_measure_empty():
    assert measure(F(3), "g2") == 0.0
    assert measure(F(3), "g3") == 0.0


def test_measure_g3_g4_lowest_target():
    f = F(4, C(1, 1, 2, 3), C(3, 2, 3, 4))
    assert measure(f, "g3") == pytest.approx(0.6985 * 3 + 1.0)
    f4 = F(3, C(2, 1, 2), C(4, 2, 3, 3, 3))
    assert measure(f4, "g4") == pytest.approx(0.8376 * 2 + 1.0)


def _measure_per_variable(formula, scheme):
    # reference: one scan of all clauses per variable, summed in ascending order
    weights = analysis.MEASURE_SCHEMES[scheme]

    def clause_depends_on(clause, var):
        # flipping var can change the true-literal count unless var and -var
        # pair up, each pair contributing a constant 1
        return clause.occ.get(var, 0) != clause.occ.get(-var, 0)

    total = 0.0
    for v in range(1, formula.num_vars + 1):
        holding = [c for c in formula.clauses if v in c.variables()]
        if scheme == "g2":
            if not holding:
                continue
            strong = [c for c in holding if clause_depends_on(c, v)]
            if strong and not all(c.target == 2 and c.size() >= 4 for c in strong):
                total += weights[1]
            else:
                total += weights[2]
            continue
        targets = [c.target for c in holding if c.target >= 1]
        if targets:
            total += weights[min(min(targets), max(weights))]
    return total


@given(formulas(n_max=8, m_max=6, k_max=6))
@settings(max_examples=200, deadline=None)
def test_measure_matches_per_variable_reference(f):
    for scheme in ("g2", "g3", "g4"):
        assert measure(f, scheme) == _measure_per_variable(f, scheme)


def test_measure_bounded_by_n(rng):
    from conftest import random_formula

    for _ in range(100):
        f = random_formula(rng)
        for scheme in ("g2", "g3", "g4"):
            assert measure(f, scheme) <= f.num_vars + 1e-9


@pytest.mark.parametrize("ell,h,value", [(5, 2, 10), (8, 4, 70), (1, 1, 1), (1, 2, 1), (6, 3, 20)])
def test_big_f_table_points(ell, h, value):
    assert big_f(ell, h) == value


def test_f_tables_match_reference_rows():
    assert [big_f(l, 2) for l in range(1, 9)] == [1, 2, 3, 6, 10, 15, 21, 28]
    assert [big_f(l, 3) for l in range(1, 9)] == [1, 2, 3, 6, 10, 20, 35, 56]
    assert [big_f(l, 4) for l in range(1, 9)] == [1, 2, 3, 6, 10, 20, 35, 70]
    assert all(big_f(l, h) == big_g(l, h) for l in range(1, 9) for h in (2, 3, 4))


def test_big_g_values():
    assert big_g(5, 2) == 10
    assert big_g(8, 4) == 70
    assert big_g(0, 3) == 1
    assert big_g(6, 1) == 6


def test_f_equals_brute_force_counts():
    # the counts are exact, not just bounds
    for ell in range(1, 7):
        for j in (2, 3, 4):
            for parts in analysis._profiles(ell, j):
                prof = OccurrenceProfile(ell, *parts, *(0,) * (4 - j))
                assert profile_count(prof, j) == count_clause_solutions(prof.as_clause(j))


def test_verify_f_le_g():
    report = verify_f_le_g(20)
    assert report.ok
    assert report.profiles_checked > 0 and report.oracle_checked > 0


def test_h1_linear():
    for ell in range(1, 15):
        assert big_f(ell, 1) == big_g(ell, 1) == ell


@pytest.mark.parametrize(
    "k,h,value",
    [(5, 2, 1.5849), (7, 3, 1.6619), (9, 4, 1.7115), (5, 1, 1.3798), (6, 2, 1.5705)],
)
def test_binom_branching(k, h, value):
    assert binom_branching(k, h) == pytest.approx(value, abs=1e-4)


@pytest.mark.parametrize(
    "c,alpha,base",
    [(1.5849, 0.600823, 1.3188), (1.6619, 0.57712, 1.3407), (1.7115, 0.5633, 1.3536), (2.0, 0.5, math.sqrt(2))],
)
def test_alpha_for(c, alpha, base):
    got_alpha, got_base = alpha_for(c)
    assert got_alpha == pytest.approx(alpha, abs=1e-4)
    assert got_base == pytest.approx(base, abs=1e-4)
    # defining identity: c**alpha == 2**(1-alpha)
    assert c ** got_alpha == pytest.approx(2 ** (1 - got_alpha), rel=1e-9)


def test_dominance_bound():
    report = max_binom_branching_bound(10 ** 5)
    assert report.ok
    assert report.max_pair_term == pytest.approx(binom_branching(7, 2), abs=1e-9)


def test_tau_regression_fixture():
    entries = load_tau_regression()
    assert len(entries) >= 40
    results = run_tau_regression()
    assert all(ok for _, _, _, ok, _ in results)


@pytest.mark.parametrize("call, message", [
    (lambda: measure(F(1, C(1, 1)), "g9"), "unknown measure scheme 'g9'"),
    (lambda: OccurrenceProfile(3, 1, 1), "inconsistent occurrence profile"),
    (lambda: OccurrenceProfile(1, 2, -1), "inconsistent occurrence profile"),
    (lambda: profile_count(OccurrenceProfile(1, 1), 0), "target must be 1..4"),
    (lambda: profile_count(OccurrenceProfile(1, 1), 5), "target must be 1..4"),
    (lambda: profile_count(OccurrenceProfile(2, 0, 2), 1), "multiplicity exceeds target"),
    (lambda: big_f(3, 0), "h must be 1..4"),
    (lambda: big_f(3, 5), "h must be 1..4"),
    (lambda: big_g(-1, 1), "bad arguments"),
    (lambda: big_g(3, 0), "bad arguments"),
    (lambda: verify_f_le_g(0), "ell_max must be >= 1"),
    (lambda: binom_branching(3, 0), "need 1 <= h <= k"),
    (lambda: binom_branching(3, 4), "need 1 <= h <= k"),
    (lambda: max_binom_branching_bound(6), "k_max must be >= 7"),
])
def test_argument_checks_raise_value_error_with_their_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert (type(info.value), str(info.value)) == (ValueError, message)
