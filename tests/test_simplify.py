"""Fixpoint rules: every reduction is forced, terminating, and idempotent."""

from hypothesis import given, settings

from conftest import C, F, formulas, random_formula
from gixsat.formula import Trail, evaluate, reconstruct_model
from gixsat.oracle import brute_solve
from gixsat.simplify import simplify_to_fixpoint


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
            model = reconstruct_model(trail, roots)
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
