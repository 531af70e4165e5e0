"""Cover split, clause-by-clause enumeration, and the full two-sided solver."""

import math
import random
from itertools import islice, product

import numpy as np
import pytest

import gixsat.mitm as mitm_module
from conftest import C, F, random_formula
from gixsat.analysis import OccurrenceProfile, profile_count
from gixsat.dpll import solve_auto
from gixsat.formula import Clause, Formula, evaluate, true_count
from gixsat.generator import GenSpec, generate
from gixsat.mitm import (
    SplitPlan,
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
    assert plan.covered_vars == (1, 2, 3, 4, 5, 6)
    assert len(plan.complement_vars) == 4


def test_cover_leaves_free_variables_out():
    # variables in no clause are on neither side
    f = F(6, C(1, 1, 2, 3))
    plan = choose_cover(f, 0.5)
    assert set(plan.covered_vars + plan.complement_vars) == {1, 2, 3}


@pytest.mark.parametrize(
    "target,alpha",
    [(2, 0.600823), (3, 0.57712), (4, 0.5633)],
)
def test_default_alpha_per_class(target, alpha):
    assert default_alpha(target) == pytest.approx(alpha, abs=1e-4)


# bit-exact values; targets outside 1..4 clamp to the nearest class
@pytest.mark.parametrize("target, alpha_hex", [
    (0, "0x1.4f0218e72ba9bp-1"),
    (1, "0x1.4f0218e72ba9bp-1"),
    (2, "0x1.339efb18b4a40p-1"),
    (3, "0x1.277bb674a33e8p-1"),
    (4, "0x1.2068d7ce3250ap-1"),
    (5, "0x1.2068d7ce3250ap-1"),
    (6, "0x1.2068d7ce3250ap-1"),
])
def test_default_alpha_exact(target, alpha_hex):
    assert default_alpha(target).hex() == alpha_hex


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
            inside = set(plan.covered_vars) & f.clauses[plan.boundary].variables()
            bound *= 1 << len(inside)
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
    assert list(result.model) == list(range(1, 7))
    assert [result.model[v] for v in (1, 4, 5, 6)] == [0, 0, 0, 0]
    assert evaluate(f, result.model)


def test_rejects_large_targets():
    with pytest.raises(ValueError):
        solve_mitm(Formula(5, [Clause(5, [1, 2, 3, 4, 5])]))


def test_memory_exhaustion_is_a_resource_error(monkeypatch):
    def boom(formula, plan):
        raise MemoryError("table full")

    monkeypatch.setattr(mitm_module, "_cover_table", boom)
    with pytest.raises(mitm_module.ResourceLimitError):
        mitm_module.solve_mitm(F(4, C(2, 1, 2, 3, 4)))


def test_sweep_memory_exhaustion_is_a_resource_error(monkeypatch):
    def boom(formula, plan, keys, fields):
        raise MemoryError("low table full")

    monkeypatch.setattr(mitm_module, "_sweep", boom)
    with pytest.raises(mitm_module.ResourceLimitError, match="sweep table"):
        mitm_module.solve_mitm(F(4, C(2, 1, 2, 3, 4), C(1, 1, 4)), alpha=0.05)


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


# Reference: the cover side as a clause-by-clause depth-first search over
# Python dicts, one representative per vector in a dict index, and a sweep
# of the complement one assignment at a time.


def reference_enumerate(formula, plan):
    def extensions(clause, fixed):
        base = true_count(clause, fixed)
        unfixed = sorted(v for v in clause.variables() if v not in fixed)
        for combo in product((0, 1), repeat=len(unfixed)):
            ext = dict(zip(unfixed, combo))
            yield ext, base + true_count(clause, ext)

    cover_clauses = [formula.clauses[i] for i in plan.cover]

    def emit(k, fixed):
        if k == len(cover_clauses):
            rest = [v for v in plan.covered_vars if v not in fixed]
            for combo in product((0, 1), repeat=len(rest)):
                yield {**fixed, **dict(zip(rest, combo))}
            return
        c = cover_clauses[k]
        for ext, cnt in extensions(c, fixed):
            if cnt == c.target:
                yield from emit(k + 1, {**fixed, **ext})

    watch = [formula.clauses[i] for i in plan.shared]
    if plan.boundary is not None:
        watch.append(formula.clauses[plan.boundary])
    for assignment in emit(0, {}):
        vec = tuple(true_count(c, assignment) for c in watch)
        if all(cnt <= c.target for cnt, c in zip(vec, watch)):
            yield assignment, vec


def reference_solve(formula, plan):
    """(sat, model, index_size, sweep_count) of the one-at-a-time solver."""
    index = {}
    for assignment, vec in reference_enumerate(formula, plan):
        index.setdefault(vec, assignment)
    if not index:
        return False, None, 0, 0
    watch = [formula.clauses[i] for i in plan.shared]
    if plan.boundary is not None:
        watch.append(formula.clauses[plan.boundary])
    comp = plan.complement_vars
    for bits in range(1 << len(comp)):
        values = {v: (bits >> k) & 1 for k, v in enumerate(comp)}
        rep = index.get(tuple(c.target - true_count(c, values) for c in watch))
        if rep is not None:
            model = dict.fromkeys(range(1, formula.num_vars + 1), 0)
            model.update(rep)
            model.update(values)
            return True, model, len(index), bits + 1
    return False, None, len(index), 1 << len(comp)


def planted_wide(rng, n, m):
    """m short clauses over n variables, targets from a hidden assignment."""
    hidden = {v: rng.randint(0, 1) for v in range(1, n + 1)}
    clauses = []
    for _ in range(m):
        lits = [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
        clauses.append(Clause(true_count(Clause(0, lits), hidden), lits))
    return Formula(n, clauses)


def planted_deep(rng, m):
    """Two exactly-2 cover clauses over x1..x10, then m target-4 clauses
    true under a hidden assignment with x11..x22 = 1. Each of those holds
    three negated complement literals 4 times, so early sweep assignments
    overshoot it by up to 8. Each watched clause takes a 4-bit field, so
    for m = 28 the watched fields pass one 63-bit word and vectors are byte
    strings."""
    hidden = {v: 1 for v in range(11, 23)}
    for lo in (1, 6):
        on = rng.sample(range(lo, lo + 5), 2)
        hidden.update({v: int(v in on) for v in range(lo, lo + 5)})
    clauses = [Clause(2, range(1, 6)), Clause(2, range(6, 11))]
    for _ in range(m):
        c1, c2, c3, c4 = rng.sample(range(11, 23), 4)
        v = rng.randint(1, 10)
        k = rng.randint(1, 3)
        clauses.append(Clause(4, {-c1: 4, -c2: 4, -c3: 4, c4: k, (v if hidden[v] else -v): 4 - k}))
    f = Formula(22, clauses)
    assert evaluate(f, hidden)
    return f


def reference_corpus():
    """Seeded (formula, alpha) pairs: multiplicities, x/-x pairs, target 0,
    empty clauses, the empty and the full cover, over 27 watched clauses, and
    vectors too wide to pack into an int64."""
    rng = random.Random(20211)
    for alpha in (0.05, 0.3, 0.6, 0.8, 0.99, None):
        for bias in (0.0, 0.6, 1.0):
            for _ in range(50):
                f = random_formula(rng, n_max=10, m_max=6, k_max=7, t_max=4, distinct_bias=bias)
                if rng.random() < 0.15:
                    f.clauses.insert(rng.randint(0, len(f.clauses)), Clause(rng.randint(0, 1), []))
                yield f, alpha
    for _ in range(6):
        yield planted_wide(rng, 12, 36), 0.3
    yield planted_deep(rng, 28), 0.45


def check_against_reference(corpus):
    """Solve each (formula, alpha) and compare the table rows, the outcome,
    the index size and the sweep count with the one-at-a-time reference.
    Returns the (feature, reached) pairs the corpus showed."""
    seen = set()
    for f, alpha in corpus:
        result = solve_mitm(f, alpha=alpha)
        plan = choose_cover(f, result.stats.alpha)
        emitted = list(enumerate_cover_side(f, plan))
        assert emitted == list(reference_enumerate(f, plan)), f
        got = (result.sat, result.model, result.stats.index_size, result.stats.sweep_count)
        assert got == reference_solve(f, plan), f
        assert result.stats.emitted == len(emitted)
        watched = [f.clauses[i] for i in plan.shared]
        if plan.boundary is not None:
            watched.append(f.clauses[plan.boundary])
        seen.add(("sat", result.sat))
        seen.add(("empty cover", not plan.covered_vars))
        seen.add(("all covered", not plan.complement_vars))
        seen.add(("boundary", plan.boundary is not None))
        seen.add(("empty clause", any(not c.occ for c in f.clauses)))
        seen.add(("wide", len(watched) > 27 and result.sat and result.stats.index_size > 1))
        seen.add(("byte keys", mitm_module._places(mitm_module._fields(watched)).shape[1] > 1))
        fields = mitm_module._fields(watched + [f.clauses[i] for i in plan.cover])
        seen.add(("multi-word", bool(fields) and fields[-1][0] > 0))
        seen.add(("half-by-half", result.stats.sweep_count > mitm_module._FIRST_CHECK))
    return seen


def test_kernel_matches_the_one_at_a_time_reference():
    seen = check_against_reference(reference_corpus())
    assert all((name, True) in seen for name, _ in seen if name != "half-by-half")
    assert ("sat", False) in seen
    # both key encodings and both table widths: most rows fit one word, but
    # planted_deep's 28 watched clauses take 4 bits each, 112 in all
    assert ("byte keys", False) in seen
    assert ("multi-word", False) in seen


def test_kernel_matches_the_reference_with_byte_keys(monkeypatch):
    # a 4-bit word holds one field of the widest, target-4 clause, so most
    # tables take several words and most index and sweep lookups use byte
    # strings; a table whose watched fields fit one word keeps int64 keys
    monkeypatch.setattr(mitm_module, "_WORD_BITS", 4)
    seen = check_against_reference(reference_corpus())
    assert ("multi-word", True) in seen
    assert ("byte keys", True) in seen


@pytest.mark.parametrize("block_bits", [1, 3])
def test_kernel_matches_the_reference_with_byte_keys_across_sweep_blocks(monkeypatch, block_bits):
    # byte keys meet the skipped high-bit blocks and the half-by-half checks
    monkeypatch.setattr(mitm_module, "_BLOCK_BITS", block_bits)
    monkeypatch.setattr(mitm_module, "_FIRST_CHECK", 4)
    test_kernel_matches_the_reference_with_byte_keys(monkeypatch)


@pytest.mark.parametrize("block_bits", [1, 2, 3, 5])
def test_kernel_matches_the_reference_across_sweep_blocks(monkeypatch, block_bits):
    # the corpus has at most 12 variables, so only narrow blocks and a small
    # first check reach the high-bit blocks and the half-by-half checks
    monkeypatch.setattr(mitm_module, "_BLOCK_BITS", block_bits)
    monkeypatch.setattr(mitm_module, "_FIRST_CHECK", 4)
    test_kernel_matches_the_one_at_a_time_reference()


def test_kernel_matches_the_reference_at_benchmark_size():
    # 2^12-2^13-assignment sweeps reach the half-by-half checks at the
    # default block size and first check
    seen = check_against_reference(
        (f, None) for f in islice(split_shaped_corpus(), 20))
    assert ("half-by-half", True) in seen and ("sat", False) in seen


@pytest.mark.parametrize("seed", [0, 13])
def test_packed_keys_wrap_past_int64_and_stay_exact(seed):
    f = planted_deep(random.Random(seed), 14)
    # true with x11..x22 = 1, as planted_deep's clauses are; in field order
    # after its 14 4-bit fields: a 2-bit, a 1-bit and a 4-bit one, whose
    # need at assignment 0 is 4 - 4 * 5 = -16, at place 2^59
    f.clauses += [Clause(1, {-11: 2, 12: 1}), Clause(0, [-13]),
                  Clause(4, {-11: 5, -12: 5, -13: 5, -14: 5, 15: 4})]
    plan = choose_cover(f, 0.45)
    assert plan.cover == [0, 1] and len(plan.complement_vars) == 12
    watched = [f.clauses[i] for i in plan.shared]
    place = [1 << sum(c.target.bit_length() + 1 for c in watched[:j]) for j in range(len(watched))]
    bits = sum(c.target.bit_length() + 1 for c in watched)
    assert 60 <= bits <= mitm_module._WORD_BITS
    assert mitm_module._places(mitm_module._fields(watched))[:, 0].tolist() == place
    result = solve_mitm(f, alpha=0.45)
    got = (result.sat, result.model, result.stats.index_size, result.stats.sweep_count)
    assert got == reference_solve(f, plan)
    # the exact keys of the needs the sweep tried leave the int64 range
    wrapped = 0
    for bits in range(result.stats.sweep_count):
        values = {v: (bits >> k) & 1 for k, v in enumerate(plan.complement_vars)}
        key = sum((c.target - true_count(c, values)) * p for c, p in zip(watched, place))
        wrapped += not -(1 << 63) <= key < 1 << 63
    assert wrapped > 0


@pytest.mark.parametrize("target", range(5))
def test_packed_field_guard_completion_and_carry(target):
    # the field of a target-t clause between two neighbours, at every count
    # a step can leave (a surviving count within t plus at most t + 1)
    clauses = [Clause(4, [1]), Clause(target, [2]), Clause(3, [3])]
    fields = mitm_module._fields(clauses)
    word, shift, width, bias = fields[1]
    assert [f[0] for f in fields] == [0, 0, 0]
    guard = 1 << (shift + width - 1)
    done_mask, done_value = ((1 << width) - 1) << shift, ((1 << (width - 1)) - 1) << shift

    def pack(counts):
        return sum((n + b) << s for n, (_, s, _, b) in zip(counts, fields))

    def unpack(packed):
        return [((packed >> s) & ((1 << w) - 1)) - b for _, s, w, b in fields]

    for left, right in [(0, 0), (4, 3), (2, 1)]:
        for count in range(2 * target + 2):
            packed = pack([left, count, right])
            assert (packed & guard == 0) == (count <= target)
            assert (packed & done_mask == done_value) == (count == target)
            if count > target:
                continue
            for step in range(target + 2):
                stepped = pack([left, count, right]) + (step << shift)
                assert unpack(stepped) == [left, count + step, right]


@pytest.mark.parametrize("seed", range(5))
def test_packed_fields_never_straddle_a_word(seed):
    rng = random.Random(seed)
    targets = [rng.randint(0, 4) for _ in range(rng.randint(1, 120))]
    fields = mitm_module._fields([Clause(t, [1]) for t in targets])
    end = (0, 0)   # (word, first free bit) after the previous field
    for t, (word, shift, width, bias) in zip(targets, fields):
        assert width == t.bit_length() + 1 and bias == (1 << (width - 1)) - 1 - t
        assert shift + width <= mitm_module._WORD_BITS
        # in order, and a new word only when the field would not fit the last
        if (word, shift) != end:
            assert (word, shift) == (end[0] + 1, 0)
            assert end[1] + width > mitm_module._WORD_BITS
        end = (word, shift + width)
    with pytest.raises(ValueError, match="does not fit"):
        mitm_module._fields([Clause(1 << (mitm_module._WORD_BITS - 1), [1])])
    # so fields fit one word, and pack into an int64 key, exactly when
    # their widths sum to at most the word width
    for n in range(len(targets) + 1):
        bits = sum(t.bit_length() + 1 for t in targets[:n])
        place = mitm_module._places(fields[:n])
        assert (place.shape[1] > 1) == (bits > mitm_module._WORD_BITS)


@pytest.mark.parametrize("n_words", [1, 2, 3])
def test_index_and_sweep_keys_share_one_encoding(monkeypatch, n_words):
    # seeded watched clauses over x1..x8, each of target t with t distinct
    # literals so no count passes its target, until their fields take
    # n_words words
    rng = random.Random(n_words)
    watched = []
    while not watched or mitm_module._fields(watched)[-1][0] < n_words - 1:
        t = rng.randint(1, 4)
        watched.append(Clause(t, [rng.choice((1, -1)) * v for v in rng.sample(range(1, 9), t)]))
    fields = mitm_module._fields(watched)
    place = mitm_module._places(fields)
    assert place.shape == (len(watched), n_words)
    # the index: cover-table vectors (rows less done, with a cover clause
    # over x9, x10 after the watched fields) against the true counts of
    # each row's values packed by the place matrix
    order = tuple(range(1, 11))
    plan = SplitPlan(cover=[len(watched)], shared=list(range(len(watched))), covered_vars=order)
    kept, vectors, got = mitm_module._cover_table(Formula(10, watched + [Clause(1, [9, 10])]), plan)
    assert got == fields and len(vectors) == n_words
    values = mitm_module._values(kept, np.arange(len(vectors[0]))).tolist()
    counts = np.array([[true_count(c, dict(zip(order, row))) for c in watched] for row in values])
    assert len(counts) == 2 << 8
    keys = mitm_module._keys(vectors).tolist()
    assert keys == mitm_module._keys((counts @ place).T).tolist()
    assert len(set(keys)) == len(set(map(tuple, counts.tolist())))
    # the sweep: every need column _match is given, in assignment order,
    # and with one word the doubled key column beside it
    comp = tuple(range(1, 9))
    needs = np.array([[c.target - true_count(c, {v: (a >> k) & 1 for k, v in enumerate(comp)})
                       for c in watched] for a in range(1 << 8)])
    calls = []
    match = mitm_module._match

    def spy(keys, need, need_keys, *rest):
        calls.append((need.copy(), None if need_keys is None else need_keys.copy()))
        return match(keys, need, need_keys, *rest)

    monkeypatch.setattr(mitm_module, "_match", spy)
    monkeypatch.setattr(mitm_module, "_FIRST_CHECK", 4)
    plan = SplitPlan(cover=[], shared=list(range(len(watched))), complement_vars=comp)
    f = Formula(8, watched)
    # all-ones words: no packed vector has the sign bit set
    assert mitm_module._sweep(f, plan, mitm_module._keys(-np.ones((n_words, 1), np.int64)),
                              fields) is None
    assert np.concatenate([n for n, _ in calls], axis=1).T.tolist() == needs.tolist()
    if n_words == 1:
        doubled = np.concatenate([k for _, k in calls]).tolist()
        assert doubled == mitm_module._keys((needs @ place).T).tolist()
    else:
        assert all(k is None for _, k in calls)
    # and a need packed as the index packs its vectors is found
    first = needs.tolist().index(needs[200].tolist())
    at = mitm_module._sweep(f, plan, mitm_module._keys((needs[200:201] @ place).T), fields)
    assert at == (first, 0)


def _deep_need(*extra):
    """Target 4 over x1..x18 negated, each 5 times, and x19 four times: true
    only with x1..x18 = 1 and x19 = 1. With every low bit 0 the 18 low
    variables each add target + 1 = 5, so the need reaches 4 - 90 = -86
    in the first sweep block and 0 - 90 = -90 in the one with x19 = 1."""
    occ = {-v: 5 for v in range(1, 19)}
    occ[19] = 4
    clauses = [Clause(4, occ), *extra]
    return Formula(max([19, *(v for c in extra for v in c.variables())]), clauses)


@pytest.mark.parametrize(
    "formula,complement",
    [
        (_deep_need(), 19),
        # x19 and x20 both 1 overshoots the second clause from the high bits
        # alone, so blocks 3 and 7 are skipped; the model lies in block 5
        (_deep_need(C(1, 19, 20), C(1, 21)), 21),
    ],
    ids=["int8-floor", "skipped-block"],
)
def test_sweep_at_the_int8_floor_and_past_skipped_blocks(formula, complement):
    result = solve_mitm(formula, alpha=0.02)
    assert result.stats.cover_size == 0
    assert result.stats.complement_vars == complement
    truth = brute_solve(formula)
    assert result.sat == truth.sat
    assert evaluate(formula, result.model)
    # with an empty cover the first hit is the lowest satisfying assignment
    assert result.model == truth.first_model
    first = sum(b << (v - 1) for v, b in truth.first_model.items())
    assert result.stats.sweep_count == first + 1


def reference_choose_cover(formula, alpha):
    """The greedy cover plan, rebuilding each clause's variable set per pick;
    covered lists the variables in pick order."""
    constrained = set()
    for c in formula.clauses:
        constrained |= c.variables()
    goal = alpha * len(constrained)
    covered = []
    cover = []
    boundary = None
    remaining = set(range(len(formula.clauses)))
    while remaining and len(covered) < goal:
        pick = max(
            remaining,
            key=lambda i: (len(formula.clauses[i].variables() - set(covered)), -i),
        )
        new_vars = sorted(formula.clauses[pick].variables() - set(covered))
        if len(covered) + len(new_vars) >= goal:
            best_h = min(
                range(len(new_vars) + 1),
                key=lambda h: (abs(len(covered) + h - goal), -h),
            )
            if best_h == len(new_vars):
                cover.append(pick)
                covered += new_vars
                remaining.remove(pick)
            elif best_h > 0:
                boundary = pick
                covered += new_vars[:best_h]
                remaining.remove(pick)
            break
        cover.append(pick)
        covered += new_vars
        remaining.remove(pick)
    shared = [i for i in range(len(formula.clauses)) if i not in cover and i != boundary]
    return SplitPlan(
        cover=cover,
        shared=shared,
        boundary=boundary,
        covered_vars=tuple(covered),
        complement_vars=tuple(sorted(constrained - set(covered))),
    )


def split_shaped_corpus():
    """200 seeded formulas shaped like the benchmark's MITM split family:
    n 30..34, clause lengths 4..6, targets up to 4, planted and unplanted."""
    rng = random.Random(20260)
    for seed in range(200):
        n = rng.randint(30, 34)
        spec = GenSpec(num_vars=n, num_clauses=n // 2, min_len=4, max_len=6,
                       max_target=rng.randint(1, 4), planted=seed % 2 == 0, seed=seed)
        yield generate(spec)[0]


def test_cover_plan_matches_the_greedy_reference():
    cases = [(f, alpha) for f, alpha in reference_corpus()]
    cases += [(f, None) for f in split_shaped_corpus()]
    boundaries = 0
    for f, alpha in cases:
        if alpha is None:
            alpha = default_alpha(max((c.target for c in f.clauses), default=1))
        plan = choose_cover(f, alpha)
        reference = reference_choose_cover(f, alpha)
        # covered_vars is the fixing order the cover table follows
        assert plan.covered_vars == reference.covered_vars, f
        assert plan == reference, f
        boundaries += plan.boundary is not None
    assert 0 < boundaries < len(cases)


def test_emitted_rows_within_the_product_of_cover_clause_solution_counts():
    # the cover table holds at most sol(C) rows per cover clause C, times
    # every assignment of the boundary's inside variables in no cover clause
    cases = list(reference_corpus()) + [(f, None) for f in split_shaped_corpus()]
    profiled = 0
    for f, alpha in cases:
        result = solve_mitm(f, alpha=alpha)
        plan = choose_cover(f, result.stats.alpha)
        bound, in_cover = 1, set()
        for c in (f.clauses[i] for i in plan.cover):
            order = sorted(c.variables())
            sol = sum(true_count(c, dict(zip(order, bits))) == c.target
                      for bits in product((0, 1), repeat=len(order)))
            mults = [c.occ.get(v, 0) + c.occ.get(-v, 0) for v in order]
            if len(c.occ) == len(order) and 1 <= c.target <= 4 and max(mults) <= c.target:
                # no x/-x pair: negating a variable maps models one to one,
                # so the count is the multiplicity profile's
                parts = [mults.count(m) for m in range(1, 5)]
                assert sol == profile_count(OccurrenceProfile(len(order), *parts), c.target), c
                profiled += 1
            bound *= sol
            in_cover |= c.variables()
        bound <<= len(set(plan.covered_vars) - in_cover)
        assert result.stats.emitted <= bound, f
    assert profiled > 500


@pytest.mark.parametrize(
    "formula,plan,rows",
    [
        # empty cover: one row, no covered variable, every clause watched
        (F(4, C(2, 1, 2, 3, 4), C(1, 1, 4)),
         SplitPlan([], [0, 1], complement_vars=(1, 2, 3, 4)), 1),
        # a cover clause with no variable and target 1 can never be met
        (F(3, C(1, 1, 2, 3), Clause(1, [])),
         SplitPlan([0, 1], [], covered_vars=(1, 2, 3)), 0),
        # boundary only: its 6 inside variables with at most 2 of them true
        (F(10, C(2, *range(1, 11))), None, 1 + 6 + 15),
    ],
    ids=["empty-cover", "empty-table", "boundary-only"],
)
def test_enumerate_edges_match_the_reference(formula, plan, rows):
    if plan is None:
        plan = choose_cover(formula, 0.6)
        assert plan.cover == [] and plan.boundary == 0
    emitted = list(enumerate_cover_side(formula, plan))
    assert len(emitted) == rows
    assert emitted == list(reference_enumerate(formula, plan))


def test_cover_table_fixes_variables_in_the_plan_order():
    # a hand-built plan listing the cover's variables backwards: the rows
    # are the same assignments, in lexicographic order along that order
    f = F(6, C(2, 1, 2, 3, 4), C(1, 4, 5, 6))
    plan = choose_cover(f, 0.99)
    assert plan.covered_vars == (1, 2, 3, 4, 5, 6)
    backwards = SplitPlan(plan.cover, plan.shared, covered_vars=plan.covered_vars[::-1])
    emitted = [a for a, _ in enumerate_cover_side(f, backwards)]
    forward = [a for a, _ in enumerate_cover_side(f, plan)]
    assert sorted(sorted(a.items()) for a in emitted) == sorted(sorted(a.items()) for a in forward)
    rows = [[a[v] for v in backwards.covered_vars] for a in emitted]
    assert rows == sorted(rows) and len(rows) == 9


def test_cover_table_rejects_a_plan_missing_a_cover_variable():
    f = F(3, C(1, 1, 2, 3))
    with pytest.raises(AssertionError, match="outside covered_vars"):
        list(enumerate_cover_side(f, SplitPlan([0], [], covered_vars=(1, 2))))


@pytest.mark.parametrize("n_words", [1, 2, 3])
def test_first_rows_are_those_of_np_unique(n_words):
    # seeded vectors with many repeats, on both key kinds of _keys (the
    # int64 word, and the byte string of several words); np.unique with
    # return_index, which also sorts stably, is the reference
    rng = np.random.default_rng(n_words)
    for rows in (0, 1, 2, 7, 300):
        keys = mitm_module._keys(rng.integers(-3, 3, (n_words, rows)).astype(np.int64))
        got_keys, got_first = mitm_module._first_rows(keys)
        want_keys, want_first = np.unique(keys, return_index=True)
        assert got_keys.dtype == keys.dtype
        assert got_keys.tolist() == want_keys.tolist()
        assert got_first.tolist() == want_first.tolist()
        # each first row holds its key, and no earlier row does
        for key, row in zip(got_keys.tolist(), got_first.tolist()):
            assert keys[row].tolist() == key and key not in keys[:row].tolist()


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0, math.nan])
def test_alpha_outside_0_1_is_an_input_error(alpha):
    # raised by choose_cover, and by solve_mitm as it is: an input error, not
    # the RuntimeError solve_mitm makes of a later ValueError
    f = F(3, C(1, 1, 2, 3))
    for call in (choose_cover, solve_mitm):
        with pytest.raises(ValueError) as info:
            call(f, alpha)
        assert (type(info.value), str(info.value)) == \
            (ValueError, "alpha must be strictly between 0 and 1")


def test_a_value_error_past_the_input_checks_is_an_internal_error(monkeypatch):
    def broken(*args):
        raise ValueError("sweep broke")

    monkeypatch.setattr(mitm_module, "_sweep", broken)
    with pytest.raises(RuntimeError, match="internal error: sweep broke") as info:
        solve_mitm(F(3, C(1, 1, 2, 3)))
    assert isinstance(info.value.__cause__, ValueError)
