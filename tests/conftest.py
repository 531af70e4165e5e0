import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import strategies as st

from gixsat.formula import Clause, Formula


def C(target, *lits):
    return Clause(target, lits)


def F(n, *clauses):
    return Formula(n, clauses)


def random_formula(rng, n_max=8, m_max=5, k_max=6, t_max=4, distinct_bias=0.6):
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    clauses = []
    for _ in range(m):
        k = rng.randint(1, k_max)
        if rng.random() < distinct_bias and k <= n:
            variables = rng.sample(range(1, n + 1), k)
            lits = [v if rng.random() < 0.7 else -v for v in variables]
        else:
            lits = [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(k)]
        clauses.append(Clause(rng.randint(0, t_max), lits))
    return Formula(n, clauses)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@st.composite
def formulas(draw, n_max=6, m_max=4, k_max=5, t_max=4):
    n = draw(st.integers(1, n_max))
    m = draw(st.integers(1, m_max))
    clauses = []
    for _ in range(m):
        k = draw(st.integers(1, k_max))
        lits = draw(
            st.lists(
                st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v])),
                min_size=k,
                max_size=k,
            )
        )
        target = draw(st.integers(0, t_max))
        clauses.append(Clause(target, lits))
    return Formula(n, clauses)


def models(f):
    """The models of f as assignment numbers, variable v at bit v - 1."""
    found, total = [], 1 << f.num_vars
    for start in range(0, total, 1 << 18):
        idx = np.arange(start, min(start + (1 << 18), total))
        ok = np.ones(len(idx), dtype=bool)
        for c in f.clauses:
            ok &= sum(m * ((idx >> (abs(l) - 1) & 1) == (l > 0)) for l, m in c.occ.items()) \
                == c.target
        found += idx[ok].tolist()
    return found


def prescribed(f, actions):
    """f after a prescription: its clause edits made, a literal l set true or
    false added as (l) with target 1 or 0, and a link a = b as (a -b) with 1."""
    clauses = list(f.clauses)
    for kind, *args in actions:
        if kind in ("true", "false"):
            clauses.append(Clause(int(kind == "true"), [args[0]]))
        elif kind == "link":
            clauses.append(Clause(1, [args[0], -args[1]]))
        elif kind == "add":
            clauses.append(Clause(*args))
        elif kind == "replace":
            clauses[args[0]] = Clause(*args[1:])
        else:
            assert kind == "remove"
            clauses[args[0]] = None
    return Formula(f.num_vars, [c for c in clauses if c is not None])


def check_partition(f, branches):
    """A rule's branches partition the models of f: no branch keeps a
    non-model, and every model takes exactly one branch. So a forced rule
    keeps exactly the models, and a rule without branches needs none."""
    kept = set(models(f))
    taken = Counter()
    for b, branch in enumerate(branches):
        got = set(models(prescribed(f, branch)))
        assert got <= kept, f"branch {b} keeps non-models {sorted(got - kept)[:5]} of {f!r}"
        taken.update(got)
    assert taken == Counter(kept), f"models not taken exactly once on {f!r}"
