"""Branch-and-bound solvers against the brute-force reference."""

import json
import random
import re
import sys
from itertools import chain, combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import C, F, check_partition, formulas, random_formula
from gixsat import analysis, dpll
from gixsat.dpll import Rule, solve_auto, solve_g2, solve_g3, solve_g4
from gixsat.formula import Clause, Formula, SolveResult, Trail, evaluate, lit_key, true_count
from gixsat.generator import GenSpec, generate
from gixsat.mitm import solve_mitm
from gixsat.oracle import brute_solve
from gixsat.simplify import _Worklist, simplify_to_fixpoint

DATA = Path(__file__).parent / "data"


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


@pytest.mark.parametrize("solve, cap", [(solve_g2, 2), (solve_g3, 3), (solve_g4, 4),
                                        (solve_auto, 4)])
def test_solvers_leave_the_callers_formula_unchanged(rng, solve, cap):
    """A solve edits copies of the caller's clauses, never the clauses
    themselves: each keeps its object, target and literal order, a Clause
    placed at two positions included."""
    corpus = [random_formula(rng, n_max=12, m_max=7, k_max=7, t_max=cap) for _ in range(150)]
    corpus += [generate(GenSpec(num_vars=24, num_clauses=12, min_len=5, max_len=6,
                                max_target=cap, planted=seed % 2 == 0, seed=seed))[0]
               for seed in range(20)]
    for f in corpus:
        f.clauses.insert(rng.randint(0, len(f.clauses)), rng.choice(f.clauses))
        objects = list(f.clauses)
        before = [(c.target, list(c.occ.items())) for c in f.clauses]
        solve(f)
        assert len(f.clauses) == len(objects)
        assert all(a is b for a, b in zip(f.clauses, objects))
        assert [(c.target, list(c.occ.items())) for c in f.clauses] == before, f


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
    result = solve_g2(f, instrument=True)
    assert result.stats.nodes_expanded >= 1
    assert result.stats.measure_at_root > 0
    # the root measure is taken only under instrument
    assert solve_g2(f).stats.measure_at_root == 0.0


def test_a_chain_is_decided_at_the_root_without_an_occurrence_map_or_a_measure(monkeypatch):
    """A chain of exactly-2 clauses over 5 variables, clause k sharing one
    variable with clause k - 1 and one with clause k + 1 (the benchmark's
    chain_endgame shape), is decided by the rule-18 endgame at the root.
    Nothing is eliminated and nothing forked, so the worklist builds no
    occurrence map, and a plain solve takes no measure."""
    rng = random.Random(3)
    m = 300
    f = Formula(4 * m + 1, [Clause(2, [v if rng.random() < 0.5 else -v
                                       for v in range(4 * k + 1, 4 * k + 6)])
                            for k in range(m)])
    measures = []
    measure = dpll.measure
    monkeypatch.setattr(dpll, "measure", lambda *args: measures.append(args) or measure(*args))
    worklists = []
    init = _Worklist.__init__

    def recording(w, *args):
        init(w, *args)
        worklists.append(w)

    monkeypatch.setattr(_Worklist, "__init__", recording)
    result = solve_auto(f)
    assert result.sat and evaluate(f, result.model)
    assert (result.stats.nodes_expanded, dict(result.stats.rule_fires)) == (1, {"g2.18": 1})
    assert [w.occ for w in worklists] == [None]
    assert measures == [] and result.stats.measure_at_root == 0.0
    result = solve_auto(f, instrument=True)
    assert result.stats.measure_at_root == analysis.measure(f, "g2")
    assert len(measures) == 1


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


def endgame(f):
    """The rule-18 endgame on f, which must have no variable of degree 3 or
    more, with every variable valued and the witness checked."""
    part = dpll._low_degree_model(f, *dpll._overlaps(f)[1:])
    if part is None:
        return SolveResult(False, None)
    model = {v: part.get(v, 0) for v in range(1, f.num_vars + 1)}
    assert evaluate(f, model)
    return SolveResult(True, model)


def test_endgame_empty():
    assert endgame(F(4)).sat


def test_endgame_disjoint_clauses():
    f = F(6, C(2, 1, 2, 3), C(1, 4, 5, 6))
    result = endgame(f)
    assert result.sat and evaluate(f, result.model)
    # a doubled literal can never hit an odd target: that component fails
    assert not endgame(F(2, C(1, 1, 1), C(1, 2))).sat


def test_endgame_chain():
    f = F(7, C(2, 1, 2, 3), C(2, 3, 4, 5), C(2, 5, 6, 7))
    result = endgame(f)
    assert result.sat == brute_solve(f).sat  # frozen: satisfiable, 8 models
    assert evaluate(f, result.model)


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
        result = endgame(f)
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
        truth = brute_solve(f)
        assert result.sat == truth.sat
        if result.sat:
            assert evaluate(f, result.model)
    assert fired >= 3


def test_deep_instance_planted():
    f, hidden = generate(GenSpec(num_vars=30, num_clauses=24, min_len=4, max_len=6,
                                 max_target=2, planted=True, seed=5))
    assert evaluate(f, hidden)
    result = solve_g2(f)
    assert result.sat and evaluate(f, result.model)


# Reference: g2 selection as a pairwise clause scan. Rules 9, 12, 14 and 15
# intersect the variable sets of every candidate clause pair in (i, j) order,
# and rule 16 collects the heavy variables' occurrences by scanning clauses.
# Every prescription is spelled out by the hand-unrolled builders below,
# written apart from the solver's tables and the _rule that calls them.


def _branch(tag, branches):
    return Rule(tag, tuple(tuple(b) for b in branches))


def _simp(tag, actions):
    return _branch(tag, [actions])


def _branch_lit(tag, lit):
    return _branch(tag, [[("true", lit)], [("false", lit)]])


def _branch_pair2(tag, x, y):
    # exactly-one style: x = -y, or both false
    return _branch(tag, [[("link", x, -y)], [("false", x), ("false", y)]])


def _branch_pair3(tag, x, y):
    return _branch(tag, [
        [("true", x), ("true", y)],
        [("link", x, -y)],
        [("false", x), ("false", y)],
    ])


def _branch_4lit(tag, lits):
    x, y, z, w = lits
    return _branch(tag, [
        [("link", x, -y), ("link", z, -w)],
        [("link", x, y), ("link", z, w), ("link", y, -w)],
    ])


def _pair_view(ci, cj, shared):
    """Each clause's literal by variable, the shared variables (given in
    ascending order) split into those of equal and of opposite sign, and each
    clause's own literals, over the variables the other lacks, in ascending
    variable order. At a g2 fixpoint no clause holds both signs of a variable."""
    li = {abs(l): l for l in ci.occ}
    lj = {abs(l): l for l in cj.occ}
    sames = [v for v in shared if li[v] == lj[v]]
    flips = [v for v in shared if li[v] == -lj[v]]
    own_i = [li[v] for v in sorted(li) if v not in lj]
    own_j = [lj[v] for v in sorted(lj) if v not in li]
    return li, lj, sames, flips, own_i, own_j


def _g2_rule9(i, ci, j, cj, shared) -> Rule:
    if len(shared) == 1:
        return _branch_lit("g2.9.share1", shared[0])
    li, lj, sames, flips, own_i, own_j = _pair_view(ci, cj, shared)
    if len(shared) == 2:
        r, s = own_i[0], own_j[0]
        if len(flips) == 0:
            return _simp("g2.9.share2.link", [("link", r, s)])
        if len(flips) == 1:
            return _simp("g2.9.share2.force", [("false", li[sames[0]])])
        return _simp(
            "g2.9.share2.flip2",
            [("false", r), ("false", s), ("link", li[flips[0]], -li[flips[1]])],
        )
    # all three variables shared
    if len(flips) == 0:
        return _simp("g2.9.share3.dup", [("remove", j)])
    if len(flips) in (1, 3):
        return Rule("g2.9.share3.unsat")
    return _simp(
        "g2.9.share3.flip2",
        [("false", li[sames[0]]), ("link", li[flips[0]], -li[flips[1]])],
    )


def _g2_rule12(i, ci, j, cj, shared) -> Rule:
    li, lj, sames, flips, own_i, rest = _pair_view(ci, cj, shared)
    if len(shared) == 3:
        k = len(flips)
        if k == 0:
            return _simp("g2.12.share3.sub", [("replace", j, 1, tuple(rest))])
        if k == 1:
            lits = []
            for v in sames:
                lits.extend([li[v], li[v]])
            lits.extend(rest)
            return _simp("g2.12.share3.flip1", [("replace", j, 2, tuple(lits))])
        if k == 2:
            return _simp("g2.12.share3.flip2", [("false", li[sames[0]])])
        assert rest, "flipped subset clause cannot be this short"
        return _simp("g2.12.share3.flip3", [("false", t) for t in rest])
    r = own_i[0]
    k = len(flips)
    if k == 0:
        return _simp("g2.12.share2.flip0", [("replace", j, 2, tuple([-r] + rest))])
    if k == 1:
        s = li[sames[0]]
        return _simp("g2.12.share2.flip1", [("replace", j, 2, tuple([s, s, r] + rest))])
    return _simp("g2.12.share2.flip2", [("replace", j, 1, tuple([r] + rest))])


def _g2_rule15(f, i, ci, j, cj, shared) -> Rule:
    li, lj, sames, flips, a_lits, b_lits = _pair_view(ci, cj, shared)
    t_lits = [li[v] for v in sames]

    if ci == cj:
        return _simp("g2.15.dup", [("remove", j)])

    # specials: one clause has no private part beyond its flipped literals
    for base_extra, other_extra, flip_side, other_idx in (
        (a_lits, b_lits, li, j),
        (b_lits, a_lits, lj, i),
    ):
        if base_extra:
            continue
        nf = len(flips)
        flip_lits = [flip_side[v] for v in flips]
        if nf == 0:
            return _simp("g2.15.subset", [("false", t) for t in other_extra])
        if nf == 1:
            return _simp("g2.15.flip1", [("true", flip_lits[0])])
        if nf == 2:
            lits = []
            for l in flip_lits:
                lits.extend([-l, -l])
            lits.extend(other_extra)
            return _simp("g2.15.flip2", [("replace", other_idx, 2, tuple(lits))])
        if nf == 3:
            if not other_extra:
                return Rule("g2.15.flip3.unsat")
            acts = [("false", t) for t in t_lits]
            acts.append(("replace", other_idx, 1, tuple(other_extra)))
            return _simp("g2.15.flip3", acts)
        break

    # one private variable on some side
    if len(a_lits) == 1 or len(b_lits) == 1:
        if len(a_lits) == 1:
            x, other_extra = a_lits[0], b_lits
        else:
            x, other_extra = b_lits[0], a_lits
        nf = len(flips)
        if nf == 0:
            if Clause(1, [-x] + other_extra) not in f.clauses:
                return _simp("g2.15.one_extra.add", [("add", 1, tuple([-x] + other_extra))])
        elif nf == 1:
            return _branch("g2.15.one_extra.flip1", [
                [("add", 1, tuple(t_lits))],
                [("false", t) for t in t_lits],
            ])
        elif nf == 2:
            gamma = t_lits + [x]
            return _branch("g2.15.one_extra.flip2", [
                [("add", 1, tuple(gamma))],
                [("false", t) for t in gamma],
            ])
        elif nf == 3:
            return _simp("g2.15.one_extra.flip3", [("false", t) for t in t_lits])
        elif nf == 4:
            acts = [("false", x)]
            acts += [("false", t) for t in t_lits]
            acts += [("false", t) for t in other_extra]
            return _simp("g2.15.one_extra.flip4", acts)

    if len(shared) == 2:
        if len(flips) == 1:
            x = li[sames[0]]
            y = li[flips[0]]
            return _branch("g2.15.share2.mixed", [
                [("true", x), ("true", y)],
                [("true", x), ("false", y)],
                [("false", x)],
            ])
        x = li[shared[0]]
        y = li[shared[1]]
        return _branch_pair3("g2.15.share2", x, y)

    if len(sames) >= 3:
        gamma = t_lits
        rest_i = [li[v] for v in sorted(ci.variables()) if v not in sames]
        rest_j = [lj[v] for v in sorted(cj.variables()) if v not in sames]
        return _branch("g2.15.share3.common", [
            [("false", t) for t in rest_i] + [("false", t) for t in rest_j],
            [("add", 1, tuple(gamma))],
            [("false", t) for t in gamma],
        ])
    if len(sames) >= 2 and len(flips) >= 1:
        x, y = li[sames[0]], li[sames[1]]
        return _branch("g2.15.share3.mixed", [
            [("link", x, -y)],
            [("false", x), ("false", y)],
        ])

    return _branch_lit("g2.15.fallback", shared[0])


def _g2_rule11_len5(x2, singles, c1s) -> Rule:
    # C = (x2 x2 s1 s2 s3) with target 2 against each 3-literal exactly-1
    # clause c1, one shape at a time in priority order
    def held(c1, sign):  # the singles c1 holds with this sign
        return [s for s in singles if sign * s in c1.occ]

    if any(-x2 in c1.occ for _, c1 in c1s):
        return _branch_lit("g2.11.len5.negdup", abs(x2))
    if any(len(held(c1, -1)) >= 2 for _, c1 in c1s):
        return _simp("g2.11.len5.negpair", [("false", x2)])
    for _, c1 in c1s:
        negs, poss = held(c1, -1), held(c1, 1)
        if len(negs) == 1 and poss:
            ny, pz = negs[0], poss[0]
            (u,) = set(c1.occ) - {-ny, pz}
            (w,) = set(singles) - {ny, pz}
            if u == w:
                return _simp("g2.11.len5.mixed.same", [("link", ny, -x2)])
            return _simp("g2.11.len5.mixed.link", [("link", u, w)])
    for _, c1 in c1s:
        poss = held(c1, 1)
        if not held(c1, -1) and len(poss) >= 2:
            if len(poss) == 3:
                return Rule("g2.11.len5.sub.unsat")
            (w,) = set(singles) - set(poss)
            return _simp("g2.11.len5.sub", [("link", w, -x2)])
    if any(x2 in c1.occ and held(c1, -1) for _, c1 in c1s):
        return _simp("g2.11.len5.posneg", [("false", x2)])
    for _, c1 in c1s:
        poss = held(c1, 1)
        if x2 in c1.occ and len(poss) == 1 and not held(c1, -1):
            (u,) = set(c1.occ) - {x2, poss[0]}
            if abs(u) not in {abs(x2)} | {abs(s) for s in singles}:
                return _branch_lit("g2.11.len5.fresh", u)
    return _branch_lit("g2.11.len5.branch", abs(x2))


def _ref_rule16(f, heavies):
    hs = set(heavies)
    occs = {v: [] for v in heavies}
    for idx, c in enumerate(f.clauses):
        for v in c.variables() & hs:
            occs[v].append((idx, v if v in c.occ else -v))
    for v in heavies:
        if len(occs[v]) == 3 and sum(1 for _, l in occs[v] if l > 0) in (1, 2):
            return _branch_lit("g2.16.mixed", v)
    for v in heavies:
        if len(occs[v]) == 3 and sum(1 for _, l in occs[v] if l > 0) in (0, 3):
            rests = sorted(f.clauses[idx].size() - 1 for idx, _ in occs[v])
            if rests[0] == 4 or rests[2] >= 6:
                return _branch_lit("g2.16.samepol", v)
    for c in f.clauses:
        hv = sorted(c.variables() & hs)
        if len(hv) >= 2:
            x, y = hv[:2]
            return _branch("g2.16.pair", [
                [("true", x), ("true", y)],
                [("true", x), ("false", y)],
                [("false", x), ("true", y)],
                [("false", x), ("false", y)],
            ])
    return None


def reference_select_g2(f):
    cls = f.clauses
    for c in cls:
        if c.target == 1 and c.size() >= 4:
            x, y = c.sorted_literals()[:2]
            return _branch_pair2("g2.8", x, y)
    c1s = [(i, c) for i, c in enumerate(cls) if c.target == 1 and c.size() == 3]
    for ai in range(len(c1s)):
        for bi in range(ai + 1, len(c1s)):
            (i, ci), (j, cj) = c1s[ai], c1s[bi]
            shared = sorted(ci.variables() & cj.variables())
            if shared:
                return _g2_rule9(i, ci, j, cj, shared)
    for c in cls:
        twos = sorted((l for l, m in c.occ.items() if m == 2), key=lit_key)
        if c.target != 2 or len(twos) < 2:
            continue
        ones = sorted((l for l, m in c.occ.items() if m == 1), key=lit_key)
        if len(twos) in (2, 3) and len(ones) == 1:
            return _simp("g2.10.single0", [("false", ones[0])])
        if len(twos) == 2 and len(ones) == 2:
            return _simp("g2.10.link", [("link", ones[0], ones[1])])
        return _branch_pair2("g2.10.branch", twos[0], twos[1])
    for c in cls:
        twos = [l for l, m in c.occ.items() if m == 2]
        if c.target != 2 or len(twos) != 1:
            continue
        singles = sorted((l for l, m in c.occ.items() if m == 1), key=lit_key)
        if c.size() == 3:
            return _simp("g2.11.len3", [("true", twos[0]), ("false", singles[0])])
        if c.size() == 4:
            return _simp("g2.11.len4", [("link", singles[0], singles[1])])
        if c.size() == 5:
            return _g2_rule11_len5(twos[0], singles, c1s)
        return _branch_lit("g2.11.long", twos[0])
    for i, ci in c1s:
        for j, cj in enumerate(cls):
            shared = sorted(ci.variables() & cj.variables())
            if cj.target == 2 and len(shared) >= 2:
                return _g2_rule12(i, ci, j, cj, shared)
    for c in cls:
        if c.target == 2 and c.size() == 4 and len(c.occ) == 4:
            lits = c.sorted_literals()
            c1_vars = set().union(*(c1.variables() for _, c1 in c1s))
            weighted = [l for l in lits if abs(l) in c1_vars]
            if len(weighted) >= 2:
                return _branch_pair3("g2.13.two_weighted", *weighted[:2])
            order = [l for l in lits if l not in weighted] + weighted
            return _branch_4lit("g2.13.pairs", order)
    for i, ci in c1s:
        for j, cj in enumerate(cls):
            shared = sorted(ci.variables() & cj.variables())
            if cj.target == 2 and len(shared) == 1:
                return _branch_lit("g2.14", shared[0])
    for i, ci in enumerate(cls):
        for j in range(i + 1, len(cls)):
            cj = cls[j]
            shared = sorted(ci.variables() & cj.variables())
            if ci.target == cj.target == 2 and len(shared) >= 2:
                return _g2_rule15(f, i, ci, j, cj, shared)
    degree = {}
    for c in f.clauses:
        for lit, m in c.occ.items():
            degree[abs(lit)] = degree.get(abs(lit), 0) + m
    heavies = sorted(v for v, d in degree.items() if d >= 3)
    if heavies:
        return _ref_rule16(f, heavies) or _branch_lit("g2.17", heavies[0])
    return dpll.Rule("g2.18")


def g2_fixpoint(rng):
    """A g2 fixpoint of 3-literal exactly-1 and 4-6-literal exactly-2 clauses,
    or None. "dense" formulas overlap freely; "sparse" ones keep clause
    overlaps to one variable; "hub" ones are sparse exactly-2 clauses, half of
    them through variable 1, which leaves heavy variables for rules 16/17."""
    mode = rng.choice(["dense", "sparse", "hub"])
    n = rng.randint(6, 16) if mode == "dense" else rng.randint(12, 20)
    want = rng.randint(2, 8)
    sets = []
    for _ in range(60):
        if mode == "hub" and rng.random() < 0.5:
            vs = {1} | set(rng.sample(range(2, n + 1), rng.choice([4, 5])))
        else:
            sizes = [5, 6] if mode == "hub" else [3, 3, 4, 5, 5, 6]
            vs = set(rng.sample(range(1, n + 1), rng.choice(sizes)))
        if mode == "dense" or all(len(vs & s) <= 1 for s in sets):
            sets.append(vs)
        if len(sets) >= want:
            break
    clauses = []
    for vs in sets:
        lits = [v if rng.random() < 0.7 else -v for v in sorted(vs)]
        if rng.random() < 0.1:
            lits.append(lits[0])
        clauses.append(Clause(1 if len(vs) == 3 else 2, lits))
    out = simplify_to_fixpoint(Formula(n, clauses), Trail(n))
    return out[0] if out is not None and out[0].clauses else None


def check_g2_selection(f):
    got = dpll._select(f, "g2")
    want = reference_select_g2(f)
    assert (got.tag, got.branches) == (want.tag, want.branches), f"selection differs on {f!r}"
    return got.tag


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_g2_selection_matches_pairwise_reference(seed):
    f = g2_fixpoint(random.Random(seed))
    if f is not None:
        check_g2_selection(f)


def test_g2_selection_corpus_reaches_the_pair_rules():
    rules = set()
    for seed in range(600):
        f = g2_fixpoint(random.Random(seed))
        if f is not None:
            rules.add(check_g2_selection(f).split(".")[1])
    assert {"8", "9", "11", "12", "13", "14", "15", "16", "18"} <= rules


# The corpus above never reaches rules 10 and 17; these fixpoints do.
@pytest.mark.parametrize("f, tag", [
    (F(5, C(2, 1, 1, 2, 2, 3)), "g2.10.single0"),
    (F(6, C(2, 1, 1, 2, 2, 3, 3, 4)), "g2.10.single0"),
    (F(6, C(2, -1, -1, 2, 2, 3), C(1, 4, 5, 6)), "g2.10.single0"),
    (F(6, C(2, 1, 1, 2, 2, 3, 4)), "g2.10.link"),
    (F(7, C(2, 1, 1, 2, 2, 3, 4, 5)), "g2.10.branch"),
    # four 5-literal exactly-2 clauses sharing only variable 1
    (F(17, C(2, 1, 2, 3, 4, 5), C(2, 1, 6, 7, 8, 9), C(2, 1, 10, 11, 12, 13),
       C(2, 1, 14, 15, 16, 17)), "g2.17"),
])
def test_g2_selection_reaches_rules_10_and_17(f, tag):
    assert simplify_to_fixpoint(f, Trail(f.num_vars))[0] == f
    assert check_g2_selection(f) == tag


def _selection(select, f):
    """The (tag, branches) select picks on f, or the message of its assertion
    (its first line: pytest appends the failed expression in test modules)."""
    try:
        rule = select(f)
    except AssertionError as e:
        return str(e).split("\n")[0]
    return rule.tag, rule.branches


def test_g2_pair_tables_match_the_builders_on_every_pair_shape():
    # two clauses sharing k variables, m of them flipped, with p and q
    # literals of their own, under every target order; for rule 15, also
    # with the exactly-1 clause one_extra.add would add already present
    rng = random.Random(2021)
    pair_tags = {tag for tag, _ in G2_TAG_FIXPOINTS if tag.split(".")[1] in ("9", "12", "14", "15")}
    tags, raised, kept_add = set(), 0, 0
    for k, p, q, _ in product(range(1, 6), range(4), range(4), range(3)):
        for m in range(k + 1):
            flipped = set(rng.sample(range(1, k + 1), m))
            li = [rng.choice((1, -1)) * v for v in range(1, k + p + 1)]
            lj = [-l if abs(l) in flipped else l for l in li[:k]]
            lj += [rng.choice((1, -1)) * v for v in range(k + p + 1, k + p + q + 1)]
            rng.shuffle(li)
            rng.shuffle(lj)
            for ti, tj in product((1, 2), repeat=2):
                f = F(k + p + q, C(ti, *li), C(tj, *lj))
                got = _selection(dpll._select_g2, f)
                assert got == _selection(reference_select_g2, f), f
                if isinstance(got, str):
                    assert got == "flipped subset clause cannot be this short"
                    raised += 1
                    continue
                tags.add(got[0])
                if got[0] == "g2.15.one_extra.add":
                    ((extra,),) = got[1]
                    f = F(f.num_vars, *f.clauses, Clause(*extra[1:]))
                    got = _selection(dpll._select_g2, f)
                    assert got == _selection(reference_select_g2, f), f
                    kept_add += got[0] != "g2.15.one_extra.add"
    assert pair_tags <= tags, sorted(pair_tags - tags)
    assert len(pair_tags) == 31 and raised and kept_add


def _ref_single_clause_g34(scheme, c):
    """g3/g4 rule 6 or rule 8/10/12 on a single-occurrence clause."""
    lits, t, size = c.sorted_literals(), c.target, c.size()
    if t == 1:
        return _branch_pair2(f"{scheme}.6", lits[0], lits[1])
    tag = f"{scheme}.{2 * t + 4}"
    if (t, size) == (2, 4):
        return _branch_4lit(f"{tag}.len4", lits)
    if (t, size) in ((2, 5), (3, 6), (4, 8)):
        return _branch_lit(f"{tag}.len{size}", lits[0])
    return _branch_pair3(f"{tag}.long", lits[0], lits[1])


def test_clause_rule_tables_match_the_builders_on_every_clause_shape():
    # one clause of each shape under three sign patterns (odd and even
    # variables): g2 rule 8, rules 10 and 11 over d doubled and k single
    # literals (not rule 11 at size 5), rule 13 with w of its variables in
    # exactly-1 clauses, and g3/g4 rules 6 and 8/10/12 at sizes 4-9
    keys10, keys11, keys_single, tags13 = set(), set(), set(), set()
    for odd, even in ((1, 1), (-1, -1), (1, -1)):
        def lits(first, last):
            return [v * (odd if v % 2 else even) for v in range(first, last + 1)]

        for size in range(4, 10):
            check_g2_selection(F(size, C(1, *lits(1, size))))
        for d, k in product(range(5), repeat=2):
            if d == 1 and k == 3:
                continue
            ls = lits(1, d + k)
            f = F(d + k, C(2, *ls, *ls[k:]))  # the last d literals doubled
            tag = check_g2_selection(f)
            if d >= 2:
                keys10.add((d, k))
            elif d == 1:
                keys11.add((d, k))
            elif k == 4:
                tags13.add(tag)
        for weighted in chain.from_iterable(combinations(range(1, 5), w) for w in range(5)):
            c1s = [C(1, v * odd, (3 + 2 * v) * even, 4 + 2 * v) for v in weighted]
            tags13.add(check_g2_selection(F(12, C(2, *lits(1, 4)), *c1s)))
        for scheme in ("g3", "g4"):
            for t, size in product(range(1, dpll._TARGET_CAPS[scheme] + 1), range(4, 10)):
                f = F(size, C(t, *lits(1, size)))
                got = _selection(lambda f: dpll._select(f, scheme), f)
                if t > 2 and size < 2 * t:
                    assert got == f"short exactly-{t} clauses are removed by simplification"
                    continue
                want = _ref_single_clause_g34(scheme, f.clauses[0])
                assert got == (want.tag, want.branches), f
                if t > 1:
                    keys_single.add((t, size))
    # _G2_DOUBLED serves rules 10 and 11, split by the doubled-literal count
    doubled10 = {key for key in dpll._G2_DOUBLED if key[0] >= 2}
    doubled11 = set(dpll._G2_DOUBLED) - doubled10
    for table, keys in ((doubled10, keys10), (doubled11, keys11),
                        (dpll._SINGLE, keys_single)):
        assert set(table) < keys, sorted(set(table) - keys)  # the default too
    assert tags13 == {"g2.13.pairs", "g2.13.two_weighted"}


def test_no_table_entry_equals_its_lookup_default():
    # an entry that prescribes what its lookup gives without it is dead weight
    for tag, table, width in dpll._REPEATED.values():
        for profile in table:
            delta = dict(zip(range(2, 2 + len(profile)), profile))
            assert dpll._repeated_rule(tag, table, width, 1, delta) \
                != dpll._repeated_rule(tag, {}, width, 1, delta), (tag, profile)
    for key, entry in dpll._G2_DOUBLED.items():
        default = ("g2.10.branch", dpll._PAIR2) if key[0] >= 2 else ("g2.11.long", dpll._SPLIT)
        assert entry != default, key
    for key, entry in dpll._SINGLE.items():
        assert entry != ("long", dpll._PAIR3), key


def test_g2_selection_names_the_fixpoint_invariant():
    # rule (c) would falsify the doubled literal before selection sees it
    with pytest.raises(AssertionError, match="g2 selection needs a simplification fixpoint"):
        dpll._select_g2(F(3, C(1, 1, 1, 2, 3)))
    # rule (b) would cancel 2 / -2 first; rule 11 used to fail with KeyError: 2
    with pytest.raises(AssertionError, match="g2 selection needs a simplification fixpoint"):
        dpll._select_g2(F(5, C(2, 1, 1, 2, -2, 3), C(1, 2, 4, 5)))
    # a fixpoint outside g2: a target-3 clause may repeat a literal, which
    # the heavy-variable count of rules 16/17 assumes away
    with pytest.raises(AssertionError, match="g2 selection needs clause targets of 1 or 2"):
        dpll._select_g2(F(6, C(3, 1, 2, 3, 4, 5, 6)))


# One hand-built fixpoint per g2 rule tag, in rule order. Selection picks the
# tag at the root, its branches partition the models of the formula, and the
# solve fires it and agrees with the oracle.
G2_TAG_FIXPOINTS = [
    ("g2.8", F(4, C(1, 1, -2, -3, -4))),
    ("g2.9.share1", F(5, C(1, 2, -3, 5), C(1, 1, 2, -4))),
    ("g2.9.share2.flip2", F(4, C(1, -1, -2, 3), C(1, 1, 2, -4))),
    ("g2.9.share2.force", F(4, C(1, 1, 2, -3), C(1, 1, 3, -4))),
    ("g2.9.share2.link", F(4, C(1, 1, 3, 4), C(1, -2, 3, 4))),
    ("g2.9.share3.dup", F(3, C(1, -1, 2, -3), C(1, -1, 2, -3))),
    ("g2.9.share3.flip2", F(3, C(1, -1, -2, 3), C(1, -1, 2, -3))),
    ("g2.9.share3.unsat", F(3, C(1, -1, -2, -3), C(1, -1, -2, 3))),
    ("g2.10.branch", F(5, C(2, -1, 2, 3, 4, 4, -5, -5))),
    ("g2.10.link", F(4, C(2, 1, 2, 2, -3, -4, -4))),
    ("g2.10.single0", F(3, C(2, 1, -2, -2, 3, 3))),
    ("g2.11.len3", F(2, C(2, -1, 2, 2))),
    ("g2.11.len4", F(3, C(2, -1, 2, -3, -3))),
    ("g2.11.len5.branch", F(4, C(2, 1, 1, 2, -3, 4))),
    ("g2.11.len5.fresh", F(5, C(2, -1, 2, 2, 3, 4), C(1, -1, 2, -5))),
    ("g2.11.len5.mixed.link", F(4, C(1, 1, -3, -4), C(2, -1, 2, -3, -3, -4))),
    ("g2.11.len5.mixed.same", F(4, C(2, 1, 1, 2, 3, 4), C(1, -2, 3, 4))),
    ("g2.11.len5.negdup", F(4, C(2, 1, -2, 3, 3, -4), C(1, -1, -2, -3))),
    ("g2.11.len5.negpair", F(5, C(2, 1, 1, 2, 3, 4), C(1, -2, -3, 5))),
    ("g2.11.len5.posneg", F(5, C(1, -1, -2, 3), C(2, -1, -1, -3, 4, -5))),
    ("g2.11.len5.sub", F(4, C(2, 1, 2, -3, -4, -4), C(1, 1, 2, -4))),
    ("g2.11.len5.sub.unsat", F(4, C(2, 1, 1, 2, 3, 4), C(1, 2, 3, 4))),
    ("g2.11.long", F(5, C(2, -1, -2, -2, -3, 4, -5))),
    ("g2.12.share2.flip0", F(5, C(1, 1, -2, 3), C(2, 1, 3, -4, 5))),
    ("g2.12.share2.flip1", F(5, C(1, 1, -2, 5), C(2, 2, 3, 4, 5))),
    ("g2.12.share2.flip2", F(5, C(1, 2, -3, 4), C(2, -1, 3, -4, 5))),
    ("g2.12.share3.flip1", F(4, C(1, 2, 3, 4), C(2, 1, 2, -3, 4))),
    ("g2.12.share3.flip2", F(4, C(2, -1, 2, 3, 4), C(1, -1, -2, -3))),
    ("g2.12.share3.flip3", F(4, C(1, -2, -3, -4), C(2, 1, 2, 3, 4))),
    ("g2.12.share3.sub", F(4, C(2, 1, -2, -3, -4), C(1, 1, -2, -3))),
    ("g2.13.pairs", F(4, C(2, -1, -2, -3, 4))),
    ("g2.13.two_weighted", F(8, C(1, 1, 6, -7), C(2, -2, 3, 4, -7), C(1, -4, 5, 8))),
    ("g2.14", F(7, C(2, -1, -3, 4, 6, 7), C(1, 1, 2, 5))),
    ("g2.15.dup", F(5, C(2, 1, 2, 3, 4, 5), C(2, 1, 2, 3, 4, 5))),
    ("g2.15.fallback", F(5, C(2, -1, -2, 3, 4, 5), C(2, 1, 2, 3, -4, -5))),
    ("g2.15.flip1", F(6, C(2, 1, 2, 3, 4, 5), C(2, 1, 2, 3, 4, -5, 6))),
    ("g2.15.flip2", F(6, C(2, 1, 2, 3, 4, 5), C(2, 1, 2, 3, -4, -5, 6))),
    ("g2.15.flip3", F(6, C(2, 1, 2, 3, -4, 5, -6), C(2, 1, -2, 4, 5, 6))),
    ("g2.15.flip3.unsat", F(5, C(2, 1, -2, 3, -4, -5), C(2, 1, 2, 3, 4, 5))),
    ("g2.15.one_extra.add", F(6, C(2, 1, 2, 4, -5, 6), C(2, 1, 2, 3, 4, 6))),
    ("g2.15.one_extra.flip1", F(6, C(2, 1, -2, 4, 5, 6), C(2, -1, 3, 4, 5, 6))),
    ("g2.15.one_extra.flip2", F(6, C(2, 1, -3, -4, 5, 6), C(2, -1, 2, 3, -4, 5))),
    ("g2.15.one_extra.flip3", F(6, C(2, 1, 2, -4, 5, 6), C(2, -1, -2, 3, 4, 5))),
    ("g2.15.one_extra.flip4", F(7, C(2, 1, 2, 3, 4, 5), C(2, -1, -2, -3, -4, 6, 7))),
    ("g2.15.share2", F(8, C(2, 2, 3, 6, 7, 8), C(2, -1, 3, 4, 5, 8))),
    ("g2.15.share2.mixed", F(8, C(2, -1, 2, 4, 7, -8), C(2, 3, 5, -6, 7, 8))),
    ("g2.15.share3.common", F(7, C(2, -1, -2, -3, 4, 5), C(2, -1, -2, 5, -6, 7))),
    ("g2.15.share3.mixed", F(7, C(2, 2, 3, 4, 6, 7), C(2, 1, 2, -3, 4, 5))),
    ("g2.15.subset", F(6, C(2, 1, 2, 3, 4, 5), C(2, 1, 2, 3, 4, 5, 6))),
    ("g2.16.mixed", F(13, C(2, 1, -5, 6, 7, 12), C(2, -3, -5, -8, 9, 10), C(2, 2, -4, 5, 11, 13))),
    ("g2.16.pair", F(22, C(2, 1, 2, 3, 4, 5, 6), C(2, 1, 7, 12, 17, 18, 19),
       C(2, 1, 8, 13, 20, 21, 22), C(2, 2, 7, 8, 9, 10, 11), C(2, 2, 12, 13, 14, 15, 16))),
    ("g2.16.samepol", F(13, C(2, 1, 2, 9, 10, 12), C(2, 1, 6, 7, 11, -13), C(2, 1, -3, 4, -5, 8))),
    ("g2.17", F(16, C(2, 1, 3, 9, 13, 15, -16), C(2, 1, 2, -4, -6, 7, -11),
       C(2, 1, 5, 8, 10, 12, -14))),
    ("g2.18", F(3, C(1, -1, 2, 3))),
]


@pytest.mark.parametrize("tag, f", G2_TAG_FIXPOINTS, ids=[tag for tag, _ in G2_TAG_FIXPOINTS])
def test_g2_tag_fixpoint(tag, f):
    assert simplify_to_fixpoint(f, Trail(f.num_vars))[0] == f
    rule = dpll._select_g2(f)
    assert rule.tag == tag
    if rule.overlaps is None:  # the endgame decides f without branches
        check_partition(f, rule.branches)
    result = check_against_oracle(f, solve_g2)
    assert result.stats.rule_fires.get(tag, 0) >= 1


def test_every_rule_tag_is_pinned():
    # each rule-tag literal in dpll.py is pinned: a g2 tag by the table above,
    # any other by a golden selection tag equal to it or extending it
    literals = set(re.findall(r'"(g[234]\.[^"]*)"', Path(dpll.__file__).read_text()))
    golden = {e["tag"] for e in json.loads((DATA / "golden_selection.json").read_text())}
    g2 = {tag for tag, _ in G2_TAG_FIXPOINTS}
    assert g2 <= literals, f"table tags missing from dpll.py: {sorted(g2 - literals)}"
    unpinned = sorted(
        t for t in literals - g2 if not any(g == t or g.startswith(t + ".") for g in golden)
    )
    assert not unpinned, f"rule tags without a pin: {unpinned}"


# Reference: the rule-18 endgame with its own occurrence lists and a
# recursive search that copies the assignment per level and memoises every
# (position, frontier values) result.


def reference_low_degree_model(f):
    var2cl = {}
    for idx, c in enumerate(f.clauses):
        for v in c.variables():
            var2cl.setdefault(v, []).append(idx)
    adj = {i: set() for i in range(len(f.clauses))}
    for idxs in var2cl.values():
        if len(idxs) == 2:
            adj[idxs[0]].add(idxs[1])
            adj[idxs[1]].add(idxs[0])
    seen, model = set(), {}
    for start in range(len(f.clauses)):
        if start in seen:
            continue
        order, qi = [start], 0
        seen.add(start)
        while qi < len(order):
            for nxt in sorted(adj[order[qi]]):
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
            qi += 1
        clauses = [f.clauses[i] for i in order]
        varsets = [c.variables() for c in clauses]
        frontiers = []
        for i in range(len(clauses)):
            before = set().union(*varsets[:i])
            after = set().union(*varsets[i:])
            frontiers.append(tuple(sorted(before & after)))
        memo = {}

        def rec(i, assignment):
            if i == len(clauses):
                return {}
            key = (i, tuple(assignment[v] for v in frontiers[i]))
            if key in memo:
                return None if memo[key] is None else dict(memo[key])
            c = clauses[i]
            fixed = true_count(c, assignment)
            unfixed = sorted(v for v in varsets[i] if v not in assignment)
            found = None
            for combo in product((0, 1), repeat=len(unfixed)):
                ext = dict(zip(unfixed, combo))
                if fixed + true_count(c, ext) == c.target:
                    sub = rec(i + 1, {**assignment, **ext})
                    if sub is not None:
                        found = {**ext, **sub}
                        break
            memo[key] = None if found is None else dict(found)
            return found

        sub = rec(0, {})
        if sub is None:
            return None
        model.update(sub)
    return model


def random_low_degree(rng):
    n = rng.randint(3, 30)
    budget = {v: 2 for v in range(1, n + 1)}
    clauses = []
    for _ in range(rng.randint(1, 14)):
        avail = [v for v, b in budget.items() if b > 0]
        if not avail:
            break
        variables = rng.sample(avail, rng.randint(1, min(6, len(avail))))
        lits = []
        for v in variables:
            budget[v] -= 1
            lits.append(v if rng.random() < 0.6 else -v)
        if budget[variables[0]] and rng.random() < 0.1:
            budget[variables[0]] -= 1
            lits.append(lits[0])
        clauses.append(Clause(rng.randint(0, 3), lits))
    return Formula(n, clauses)


def all_negative_exactly2(width):
    """One exactly-2 clause over -1..-width: only variables 1 and 2 are 0, so
    2**(width - 2) - 1 product entries come before the first valid one."""
    return Formula(width, [Clause(2, [-v for v in range(1, width + 1)])])


def test_endgame_matches_memo_reference(rng):
    outcomes = set()
    for f in chain((random_low_degree(rng) for _ in range(800)), [all_negative_exactly2(16)]):
        ref = reference_low_degree_model(f)
        result = endgame(f)
        assert result.sat == (ref is not None)
        if ref is not None:
            assert result.model == {v: ref.get(v, 0) for v in range(1, f.num_vars + 1)}
        outcomes.add(result.sat)
    assert outcomes == {True, False}


def chain_600():
    """600 exactly-2 clauses of 5 literals, each sharing one variable with the next."""
    rng = random.Random(600)
    clauses = [
        Clause(2, [v if rng.random() < 0.5 else -v for v in range(4 * k + 1, 4 * k + 6)])
        for k in range(600)
    ]
    return Formula(4 * 600 + 1, clauses)


def test_long_chain_decided_in_one_node_at_default_recursion_limit():
    # the endgame searches one frame per clause of the chain
    assert sys.getrecursionlimit() <= 1000
    f = chain_600()
    result = solve_auto(f)
    assert result.sat and evaluate(f, result.model)
    assert result.stats.nodes_expanded == 1
    assert result.stats.rule_fires == {"g2.18": 1}


@pytest.mark.parametrize("width", [40, 2000])
def test_wide_clause_decided_by_the_endgame(width):
    # the endgame lists only the fresh values that make exactly 2 literals
    # true, so the first one costs O(width), not 2**(width - 2) - 1 failures
    assert sys.getrecursionlimit() <= 1000
    f = all_negative_exactly2(width)
    result = solve_auto(f)
    assert result.sat and evaluate(f, result.model)
    assert result.stats.rule_fires == {"g2.18": 1}
    assert [v for v, x in result.model.items() if x == 0] == [1, 2]


def test_wide_clause_out_of_reach_fails_at_once():
    # doubled literals only make even counts true: no prefix can reach 3, so
    # none is extended, where a bound on the sum alone walks width**2 of them
    f = Formula(2000, [Clause(3, [v for v in range(1, 2001) for _ in (0, 1)])])
    assert not endgame(f).sat


def test_fresh_values_in_product_order(rng):
    # every tuple the product gives that makes exactly need true, in its order
    for _ in range(300):
        weights = tuple((rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(0, 6)))
        for need in range(-1, 2 * len(weights) + 2):
            listed = list(dpll._fresh_values(weights, need))
            assert listed == [
                values for values in product((0, 1), repeat=len(weights))
                if sum(w[x] for w, x in zip(weights, values)) == need
            ]
            assert list(dpll._fresh_table(weights, need)) == listed


def count_calls(monkeypatch, name):
    """Patch dpll.<name> to log each call, returning the log."""
    calls = []
    original = getattr(dpll, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dpll, name, counting)
    return calls


def test_endgame_reuses_the_selection_overlap_map(monkeypatch):
    # the chain goes straight to rule 18; the endgame must not build the
    # overlap map selection has just built, and with no failed position it
    # builds no frontiers
    f = chain_600()
    overlaps = count_calls(monkeypatch, "_overlaps")
    frontiers = count_calls(monkeypatch, "_frontiers")
    result = solve_auto(f)
    assert result.sat and evaluate(f, result.model)
    assert result.stats.rule_fires == {"g2.18": 1}
    assert [len(formula.clauses) for formula, in overlaps] == [600]
    assert frontiers == []


def test_endgame_rejects_a_paired_clause():
    # rule 18 reads one weight per variable, which needs unpaired clauses
    f = F(3, C(1, 1, -1, 2), C(1, 2, 3))
    with pytest.raises(AssertionError, match="unpaired"):
        dpll._low_degree_model(f, *dpll._overlaps(f)[1:])


def _overlaps_by_setdefault(f):
    # the two-pass _overlaps: every variable's clause list, then every other
    # clause holding each variable of clause j, in ascending (j, variable)
    varlists = [sorted(c.variables()) for c in f.clauses]
    occurrences = {}
    for idx, vs in enumerate(varlists):
        for v in vs:
            occurrences.setdefault(v, []).append(idx)
    shared = [{} for _ in varlists]
    for j, vs in enumerate(varlists):
        for v in vs:
            for i in occurrences[v]:
                if i != j:
                    shared[i].setdefault(j, []).append(v)
    return occurrences, shared, varlists


def test_overlaps_matches_setdefault_reference(rng):
    # g2 rules 9, 12, 14 and 15 take the first pair in this order, so the
    # order of keys and of common variables is pinned, not only the contents
    pairs = 0
    for _ in range(600):
        f = random_formula(rng, n_max=rng.choice([6, 12, 30]), m_max=10, k_max=7,
                           distinct_bias=0.5)
        if rng.random() < 0.3:  # a repeated clause and a clause with a paired literal
            c = rng.choice(f.clauses)
            lit = next(iter(c.occ))
            f = Formula(f.num_vars, f.clauses + [c, Clause(1, [-lit, lit, lit])])
        occurrences, shared, varlists = dpll._overlaps(f)
        ref_occurrences, ref_shared, ref_varlists = _overlaps_by_setdefault(f)
        assert list(occurrences.items()) == list(ref_occurrences.items())
        assert [list(row.items()) for row in shared] == [list(row.items()) for row in ref_shared]
        assert varlists == ref_varlists
        pairs += sum(len(common) >= 2 for row in shared for common in row.values())
    assert pairs >= 500


def test_endgame_reports_unsat_of_a_whole_formula(monkeypatch):
    # K6 with one variable per edge, positive at one end and negative at the
    # other: whatever its value, each variable makes exactly one of its two
    # literals true, so 15 literals are true where the targets need 12
    f = F(15, C(2, 1, 2, 3, 4, 5), C(2, -1, 6, 7, 8, 9), C(2, -2, -6, 10, 11, 12),
          C(2, -3, -7, -10, 13, 14), C(2, -4, -8, -11, -13, 15),
          C(2, -5, -9, -12, -14, -15))
    frontiers = count_calls(monkeypatch, "_frontiers")
    result = solve_auto(f)
    assert not result.sat
    assert frontiers  # built at the first failed position
    assert result.stats.nodes_expanded == 1
    assert result.stats.rule_fires == {"g2.18": 1}
    assert not brute_solve(f).sat
    assert not solve_mitm(f).sat


def test_a_measure_that_does_not_drop_is_recorded(monkeypatch):
    # a constant measure never drops, so every child checked is a violation
    monkeypatch.setattr(dpll, "measure", lambda f, scheme: 1.0)
    result = solve_g2(F(4, C(1, 1, -2, -3, -4)), instrument=True)
    st = result.stats
    assert st.measure_checks >= 1 and len(st.measure_violations) == st.measure_checks
    assert set(st.measure_violations) == {("g2.8", 1.0, 1.0)}


def test_a_value_error_past_the_input_checks_is_an_internal_error(monkeypatch):
    # a rule that links variable 1 twice fails Trail.check: a solver fault,
    # not an input error like the target caps (test_target_caps)
    monkeypatch.setattr(dpll, "_select_g2", lambda f: Rule(
        "g2.bug", ((("link", 1, 2), ("link", 1, 3)),)))
    with pytest.raises(RuntimeError, match="internal error: variable 1 already eliminated") \
            as info:
        solve_g2(F(3, C(1, 1, 2, 3), C(2, 1, 2, 3)))
    assert isinstance(info.value.__cause__, ValueError)
