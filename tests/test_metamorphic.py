"""Metamorphic checks past the oracle's reach (n = 30-34).

Renaming variables, permuting clauses and flipping one variable's polarity
everywhere map solutions to solutions, so each must keep the status; every
witness must verify against the formula it was found for.
"""

import random

import pytest

from gixsat.dpll import solve_auto
from gixsat.formula import Clause, Formula, evaluate
from gixsat.generator import GenSpec, generate
from gixsat.mitm import solve_mitm

# the three generated families of the MITM benchmark workload
SHAPES = [
    dict(num_vars=34, num_clauses=17, min_len=4, max_len=6, max_target=2, planted=True),
    dict(num_vars=32, num_clauses=16, min_len=4, max_len=6, max_target=3, planted=True),
    dict(num_vars=30, num_clauses=15, min_len=4, max_len=6, max_target=4),
]


def rename(f, rng):
    perm = list(range(1, f.num_vars + 1))
    rng.shuffle(perm)
    to = dict(zip(range(1, f.num_vars + 1), perm))
    return Formula(f.num_vars, [
        Clause(c.target, {(to[l] if l > 0 else -to[-l]): m for l, m in c.occ.items()})
        for c in f.clauses
    ])


def permute(f, rng):
    clauses = list(f.clauses)
    rng.shuffle(clauses)
    return Formula(f.num_vars, clauses)


def flip(f, rng):
    v = rng.randint(1, f.num_vars)
    return Formula(f.num_vars, [
        Clause(c.target, {(-l if abs(l) == v else l): m for l, m in c.occ.items()})
        for c in f.clauses
    ])


def status(solver, f):
    result = solver(f)
    if result.sat:
        assert evaluate(f, result.model), f"{solver.__name__} witness fails on {f!r}"
    return result.sat


@pytest.mark.parametrize("transform", [rename, permute, flip])
@pytest.mark.parametrize("solver", [solve_mitm, solve_auto])
def test_transform_keeps_status(solver, transform):
    statuses = set()
    for seed in range(30):
        f, _ = generate(GenSpec(**SHAPES[seed % 3], seed=seed))
        rng = random.Random(seed)
        want = status(solver, f)
        for _ in range(2):
            assert status(solver, transform(f, rng)) == want, f"seed {seed}"
        statuses.add(want)
    assert statuses == {True, False}


def test_solvers_agree_past_the_oracle_cap():
    for seed in range(30):
        f, _ = generate(GenSpec(**SHAPES[seed % 3], seed=seed))
        assert status(solve_mitm, f) == status(solve_auto, f), f"seed {seed}"
