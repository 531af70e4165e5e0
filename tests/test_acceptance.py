"""Acceptance gate: one test per shipped guarantee, printed pass/fail.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here and nowhere else.
"""

import math
import random
import time
from itertools import product

from gixsat.analysis import (
    alpha_for,
    big_f,
    binom_branching,
    load_tau_regression,
    max_binom_branching_bound,
    profile_count,
    run_tau_regression,
    verify_f_le_g,
    OccurrenceProfile,
    _profiles,
)
from gixsat.dpll import solve_auto, solve_g2, solve_g3, solve_g4
from gixsat.formula import Clause, Formula, evaluate
from gixsat.generator import GenSpec, generate
from gixsat.mitm import choose_cover, default_alpha, enumerate_cover_side, solve_mitm
from gixsat.oracle import brute_solve, count_clause_solutions


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}{(' - ' + detail) if detail else ''}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# corpus builders


def mini_corpus():
    """Exhaustive tiny instances: every per-variable occurrence pattern for a
    single clause over up to 4 variables, all targets 0..4, plus every pair of
    signed 3-literal clauses over 5 variables with targets 1..3."""
    patterns = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
    for k in range(1, 5):
        for combo in product(patterns, repeat=k):
            lits = []
            for v, (p, q) in enumerate(combo, start=1):
                lits.extend([v] * p + [-v] * q)
            if not lits:
                continue
            for target in range(0, 5):
                yield Formula(k, [Clause(target, lits)])
    base = (1, 2, 3)
    for other in ((1, 2, 3), (2, 3, 4), (3, 4, 5)):
        for signs1 in product((1, -1), repeat=3):
            for t1 in (1, 2, 3):
                for signs2 in product((1, -1), repeat=3):
                    for t2 in (1, 2, 3):
                        c1 = Clause(t1, [s * v for s, v in zip(signs1, base)])
                        c2 = Clause(t2, [s * v for s, v in zip(signs2, other)])
                        yield Formula(5, [c1, c2])


def random_corpus(count, n_lo, n_hi, seed):
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(n_lo, n_hi)
        use_gen = rng.random() < 0.5
        if use_gen:
            spec = GenSpec(
                num_vars=n,
                num_clauses=rng.randint(1, max(2, (2 * n) // 3)),
                min_len=rng.randint(1, 3),
                max_len=rng.randint(3, min(6, n)) if n >= 3 else n,
                max_target=rng.randint(1, 4),
                neg_prob=rng.choice([0.3, 0.5, 0.7]),
                max_repeat=rng.choice([1, 1, 2]),
                planted=rng.random() < 0.3,
                seed=rng.getrandbits(48),
            )
            try:
                f, _ = generate(spec)
            except ValueError:
                continue
            yield f
            continue
        m = rng.randint(1, max(2, (2 * n) // 3) + 2)
        clauses = []
        for _ in range(m):
            klen = rng.randint(1, min(8, 2 * n))
            if rng.random() < 0.7 and klen <= n:
                variables = rng.sample(range(1, n + 1), klen)
                lits = [v if rng.random() < 0.65 else -v for v in variables]
            else:
                lits = [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(klen)]
            clauses.append(Clause(rng.randint(1, min(4, max(1, klen))), lits))
        yield Formula(n, clauses)


def run_agreement(instances):
    checked = 0
    sat_witnessed = 0
    for f in instances:
        truth = brute_solve(f).sat
        top = max((c.target for c in f.clauses), default=0)
        results = [("g4", solve_g4(f)), ("mitm", solve_mitm(f))]
        if top <= 3:
            results.append(("g3", solve_g3(f)))
        if top <= 2:
            results.append(("g2", solve_g2(f)))
        for name, res in results:
            assert res.sat == truth, f"{name} disagrees with brute force on {f!r}"
            if res.sat:
                assert res.model is not None and evaluate(f, res.model), \
                    f"{name} returned a bad witness on {f!r}"
                sat_witnessed += 1
        checked += 1
    return checked, sat_witnessed


# ---------------------------------------------------------------------------
# criteria


def test_criterion_oracle_equivalence_exhaustive():
    checked, witnessed = run_agreement(mini_corpus())
    _report(
        "oracle equivalence (exhaustive mini corpus, n <= 5)",
        checked > 9000,
        f"{checked} instances, {witnessed} witnesses verified, zero disagreements",
    )


def test_criterion_oracle_equivalence_random():
    checked12, witnessed12 = run_agreement(random_corpus(10000, 3, 12, seed=20240801))
    checked14, witnessed14 = run_agreement(random_corpus(500, 13, 14, seed=20240802))
    _report(
        "oracle equivalence (seeded random corpus, n <= 14)",
        checked12 + checked14 >= 10000,
        f"{checked12 + checked14} instances, {witnessed12 + witnessed14} witnesses, zero disagreements",
    )


def test_criterion_witness_soundness():
    # dedicated satisfiable batch: every SAT answer must carry a checked model
    bad = 0
    total = 0
    for seed in range(300):
        f, _ = generate(GenSpec(num_vars=10, num_clauses=7, max_target=(seed % 4) + 1,
                                planted=True, seed=seed))
        for solver in (solve_auto, solve_mitm):
            res = solver(f)
            total += 1
            if not (res.sat and res.model is not None and evaluate(f, res.model)):
                bad += 1
    _report("witness soundness", bad == 0, f"{total} satisfiable solves, all models verified")


def test_criterion_tau_regression():
    started = time.monotonic()
    entries = load_tau_regression()
    results = run_tau_regression()
    elapsed = time.monotonic() - started
    failures = [r for r in results if not r[3]]
    _report(
        "branching-factor regression (tolerance 1e-3)",
        len(entries) >= 40 and not failures and elapsed < 1.0,
        f"{len(entries)} fixture entries in {elapsed:.2f}s",
    )


def test_criterion_alpha_regression():
    expected = [
        (1.5849, 0.600823, 1.3188),
        (1.6619, 0.57712, 1.3407),
        (1.7115, 0.5633, 1.3536),
    ]
    ok = True
    for c, alpha, base in expected:
        got_alpha, got_base = alpha_for(c)
        ok = ok and abs(got_alpha - alpha) <= 1e-4 and abs(got_base - base) <= 1e-4
    _report("split fraction and base regression (tolerance 1e-4)", ok,
            "alpha/base pairs for the three clause classes")


BINOM_TABLE = {
    2: {1: 1.4143},
    3: {1: 1.4423, 2: 1.4423},
    4: {1: 1.4143, 2: 1.5651},
    5: {1: 1.3798, 2: 1.5849, 3: 1.5849},
    6: {1: 1.3481, 2: 1.5705, 3: 1.6476},
    7: {1: 1.3205, 2: 1.5449, 3: 1.6619, 4: 1.6619},
    8: {1: 1.2969, 2: 1.5167, 3: 1.6540, 4: 1.7008},
    9: {1: 1.2766, 2: 1.4891, 3: 1.6361, 4: 1.7115},
    10: {1: 1.2590, 2: 1.4633, 3: 1.6141, 4: 1.7070},
    11: {1: 1.2436, 2: 1.4396, 3: 1.5908, 4: 1.6942},
}


def test_criterion_binomial_tables():
    bad = []
    entries = 0
    for k, row in BINOM_TABLE.items():
        for h, value in row.items():
            entries += 1
            if abs(binom_branching(k, h) - value) > 1e-4:
                bad.append((k, h))
    report = max_binom_branching_bound(10 ** 6)
    _report(
        "per-variable clause branching tables (tolerance 1e-4) and dominance bound",
        not bad and report.ok,
        f"{entries} table entries; max terms {report.max_pair_term:.4f}/"
        f"{report.max_single_term:.4f} <= {report.bound} up to k=10^6",
    )


def test_criterion_counting_suite():
    rows = {
        2: [1, 2, 3, 6, 10, 15, 21, 28],
        3: [1, 2, 3, 6, 10, 20, 35, 56],
        4: [1, 2, 3, 6, 10, 20, 35, 70],
    }
    table_ok = all(
        big_f(ell, h) == rows[h][ell - 1] for h in rows for ell in range(1, 9)
    )
    oracle_ok = True
    checked = 0
    for ell in range(1, 9):
        for j in (1, 2, 3, 4):
            for parts in _profiles(ell, j):
                prof = OccurrenceProfile(ell, *parts, *(0,) * (4 - j))
                checked += 1
                if profile_count(prof, j) != count_clause_solutions(prof.as_clause(j)):
                    oracle_ok = False
    report = verify_f_le_g(20)
    _report(
        "counting suite (tables, brute-force equality, F <= G up to 20 variables)",
        table_ok and oracle_ok and report.ok,
        f"{checked} profiles against brute force; {report.profiles_checked} F/G comparisons",
    )


def test_criterion_mitm_structural_bound():
    rng = random.Random(77)
    done = 0
    while done < 100:
        n = rng.randint(6, 12)
        clauses = []
        for _ in range(rng.randint(2, 4)):
            target = rng.randint(1, 3)
            klen = rng.randint(2 * target, min(7, n))
            variables = rng.sample(range(1, n + 1), klen)
            clauses.append(Clause(target, [v if rng.random() < 0.6 else -v for v in variables]))
        f = Formula(n, clauses)
        plan = choose_cover(f, 0.7)
        if plan.boundary is not None or not plan.cover:
            continue
        emitted = sum(1 for _ in enumerate_cover_side(f, plan))
        bound = 1
        for i in plan.cover:
            c = f.clauses[i]
            bound *= math.comb(len(c.variables()), c.target)
        assert emitted <= bound, f"emitted {emitted} exceeds {bound} on {f!r}"
        done += 1
    # one wide exactly-1 clause straddles the cut: its inside part is capped
    # at the target, so at most one inside literal is true per emitted row
    for width in (30, 40):
        lits = [v if rng.random() < 0.5 else -v for v in range(1, width + 1)]
        assert min(lits) < 0 < max(lits)
        rng.shuffle(lits)
        f = Formula(width, [Clause(1, lits)])
        plan = choose_cover(f, default_alpha(1))
        assert plan.boundary == 0
        emitted = sum(1 for _ in enumerate_cover_side(f, plan))
        inside = set(plan.covered_vars) & f.clauses[0].variables()
        assert emitted <= 1 + len(inside), f"width {width}: emitted {emitted}"
        result = solve_mitm(f)
        assert result.sat and evaluate(f, result.model)
    _report("cover-side emission bound (100 covered instances, 2 wide boundaries)", True,
            "emitted count never exceeded the per-clause binomial product, "
            "nor 1 + |inside| for a boundary exactly-1 clause")


def test_criterion_measure_decrease_and_smoke():
    # stand-in for the asymptotic running-time claims, which are not
    # reproducible at desk scale: the weighted measure must strictly shrink
    # along sampled branches, and n=40 planted instances (2^40 assignments,
    # far beyond the brute-force cap) must solve within a minute each.
    rng = random.Random(424242)
    checks = violations = 0
    for _ in range(400):
        n = rng.randint(4, 12)
        tmax = rng.choice([2, 3, 4])
        clauses = []
        for _ in range(rng.randint(1, 8)):
            klen = rng.randint(2, min(7, n))
            variables = rng.sample(range(1, n + 1), klen)
            clauses.append(
                Clause(rng.randint(1, tmax), [v if rng.random() < 0.75 else -v for v in variables])
            )
        solver = {2: solve_g2, 3: solve_g3, 4: solve_g4}[tmax]
        res = solver(Formula(n, clauses), instrument=True)
        checks += res.stats.measure_checks
        violations += len(res.stats.measure_violations)

    times = []
    for seed in (0, 1, 2):
        f, _ = generate(GenSpec(num_vars=40, num_clauses=30, min_len=4, max_len=6,
                                max_target=2, planted=True, seed=seed))
        started = time.monotonic()
        res = solve_auto(f)
        times.append(time.monotonic() - started)
        assert res.sat and evaluate(f, res.model)
        assert times[-1] < 60.0
    _report(
        "measure decrease instrumentation and n=40 smoke benchmark",
        violations == 0 and checks > 100,
        f"{checks} branch comparisons, {violations} violations; "
        f"n=40 planted solves in {max(times):.2f}s worst case",
    )
