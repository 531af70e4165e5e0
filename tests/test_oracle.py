"""Brute-force reference behaviour."""

import pytest

from conftest import C, F
from gixsat.formula import evaluate
from gixsat.oracle import brute_solve, count_clause_solutions


def test_exactly_one_three_vars():
    report = brute_solve(F(3, C(1, 1, 2, 3)))
    assert report.model_count == 3
    assert report.sat


def test_exactly_two_four_vars_binomial():
    assert brute_solve(F(4, C(2, 1, 2, 3, 4))).model_count == 6


def test_contradictory_pair():
    report = brute_solve(F(1, C(2, 1, -1)))
    assert report.model_count == 0
    assert report.first_model is None
    assert not report.sat


def test_first_model_is_lowest_index():
    report = brute_solve(F(3, C(1, 1, 2, 3)))
    # variable 1 is the low bit, so {1:1,2:0,3:0} comes first
    assert report.first_model == {1: 1, 2: 0, 3: 0}
    assert evaluate(F(3, C(1, 1, 2, 3)), report.first_model)


def test_empty_formula_counts_everything():
    report = brute_solve(F(3))
    assert report.model_count == 8


def test_limit_refusal(monkeypatch):
    monkeypatch.delenv("GIXSAT_ORACLE_LIMIT", raising=False)
    with pytest.raises(ValueError):
        brute_solve(F(30, C(1, 1, 2)))


def test_limit_env_override(monkeypatch):
    monkeypatch.setenv("GIXSAT_ORACLE_LIMIT", "4")
    with pytest.raises(ValueError):
        brute_solve(F(5, C(1, 1, 2)))
    monkeypatch.setenv("GIXSAT_ORACLE_LIMIT", "5")
    assert brute_solve(F(5, C(1, 1, 2))).sat


@pytest.mark.parametrize(
    "clause,expected",
    [
        (C(2, 1, 2, 3, 4, 5), 10),
        (C(4, 1, 2, 3, 4, 5, 6, 7, 8), 70),
        (C(2, 1, 1, 2, 3), 2),
        (C(1, 1, 1, 2), 1),
        (C(3, 1, 1, 2, 2, 3, 3), 0),
    ],
)
def test_count_clause_solutions(clause, expected):
    assert count_clause_solutions(clause) == expected


def test_block_boundary_counts(rng):
    # the blocked enumeration must agree with a direct loop on a mid-size case
    f = F(6, C(2, 1, 2, 3), C(1, 4, 5, 6), C(2, 1, -4, 2, 6))
    direct = 0
    first = None
    for bits in range(1 << 6):
        model = {v: (bits >> (v - 1)) & 1 for v in range(1, 7)}
        if evaluate(f, model):
            direct += 1
            if first is None:
                first = model
    report = brute_solve(f)
    assert report.model_count == direct
    assert report.first_model == first


def test_the_package_loads_the_oracle_names_on_first_use():
    import gixsat
    from gixsat import oracle

    assert gixsat.brute_solve is oracle.brute_solve
    assert gixsat.OracleReport is oracle.OracleReport
    with pytest.raises(AttributeError, match="module 'gixsat' has no attribute 'nope'"):
        gixsat.nope
