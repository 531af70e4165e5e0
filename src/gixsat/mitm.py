"""Exponential-space solver: asymmetric split plus vector matching.

One side of the variable split is a union of whole clauses (the cover),
tabulated so that only assignments satisfying every covered clause exactly
survive. Each survivor is summarised by its contribution vector: per
remaining (watched) clause, how many literals it makes true. One clause may
straddle the cut; its inside part is tabulated like a cover clause but only
capped by the target, exactly as for the other watched clauses, so a wide
exactly-1 boundary clause keeps 1 + |inside| rows, not 2^|inside|.

The table is grown in numpy one covered variable at a time, in the order
choose_cover covers them (SplitPlan.covered_vars), which is the order a
clause-by-clause depth-first search fixes them. A row is one int64 word
(several for wide formulas) of bit fields, one per clause, watched clauses in
the low bits. A field holds its clause's count plus a bias that sets the
field's top (guard) bit exactly when the count passes the target (Lamport's
guard-bit packing). One broadcast add gives every row two children, the
variable 0 then 1, with its literals' packed counts added, and one AND and
one compare drop the children with a guard bit set or with a completed cover
clause's field off its target. The table holds packed counts only; each step
keeps its survivors' child indices, through which a row's values are read
back. Rows stay in that search's order, so the first row with a given vector
is its representative. A vector's words are read off its row: every final
row has its cover fields at their targets, so less the row with watched
counts 0 and cover counts at their targets, a word holds
sum(entry_j * 2^shift_j) over its watched fields: the vector times the place
matrix of _places. One key builder, _keys, serves the index and the sweep:
one word is its own int64 key, several are one byte string. The distinct
keys are sorted once. The complement is swept in ascending assignment number
(complement variable k is bit k), in blocks of 2^18 over the low bits; a
block whose high bits alone overshoot a target is skipped. A block's need
vectors are written once, in int8, as the columns of one clause-by-assignment
table that doubles one low bit at a time. With one word their keys double
alongside in one int64 column; with several, the columns that can match are
packed by the place matrix as they are matched. The first 2^10 columns are
matched together with np.searchsorted, then each new half as soon as it is
written, so the sweep stops at the first match. That match gives the model,
which is verified before it is returned.

The cover fraction alpha defaults to the value balancing the per-variable
enumeration cost of the worst clause against the 2^((1-alpha) n) sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, Optional

import numpy as np

from .analysis import alpha_for, binom_branching
from .formula import MAX_TARGET, Formula, ResourceLimitError, SolveResult, evaluate

_BLOCK_BITS = 18
# A variable adds at most target + 1 to a clause (_step_table caps it), so in
# a sweep block that is not skipped every need entry lies in
# [-(MAX_TARGET + 1) * _BLOCK_BITS, MAX_TARGET] and fits int8.
assert -(MAX_TARGET + 1) * _BLOCK_BITS >= np.iinfo(np.int8).min
# Columns of a sweep block matched at once before the half-by-half checks.
# With packed keys, over the 270 seed-1 mitm_split instances (each instance's
# fastest of 25 solves, summed; two runs in opposite orders), 2^8, 2^10 and
# 2^12 took 146.3/146.8, 145.8/144.4 and 147.4/145.6 ms.
_FIRST_CHECK = 1 << 10
# Bits of each int64 word that cover-table rows pack clause fields into,
# below the sign bit (see _fields).
_WORD_BITS = 63


def default_alpha(max_target: int) -> float:
    """Split fraction for the worst single-occurrence clause of the class.

    Targets clamp to 1..MAX_TARGET. The worst exactly-t clause has 2t + 1
    literals, where C(k, t)^(1/k) peaks.
    """
    t = max(1, min(MAX_TARGET, max_target))
    return alpha_for(binom_branching(2 * t + 1, t))[0]


@dataclass
class SplitPlan:
    cover: list[int]                      # clause indices fully inside
    shared: list[int]                     # every other clause index
    boundary: Optional[int] = None        # straddling clause index, if any
    # the fixing order: each cover clause's new variables ascending, in plan
    # order, then the boundary's inside new variables ascending
    covered_vars: tuple = ()
    complement_vars: tuple = ()


@dataclass
class MitmStats:
    alpha: float = 0.0
    cover_size: int = 0
    covered_vars: int = 0
    complement_vars: int = 0
    emitted: int = 0        # rows of the cover table
    index_size: int = 0     # distinct contribution vectors among them
    # the hit's assignment number + 1, or 2^|complement| when none matches,
    # counting the assignments of skipped blocks as tried
    sweep_count: int = 0
    cover_s: float = 0.0    # choose_cover
    enumerate_s: float = 0.0  # cover table and its index
    sweep_s: float = 0.0    # complement sweep


def choose_cover(formula: Formula, alpha: float) -> SplitPlan:
    """Greedy clause cover of about alpha * n constrained variables.

    Clauses join the cover largest-new-variable-count first (ties on index),
    and covered_vars lists the variables in the order they are covered. The
    clause that would cross the cut-off may be split, keeping inside the
    number of its new variables that lands closest to the target (ties
    toward more inside). Variables in no clause are in neither
    covered_vars nor complement_vars.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be strictly between 0 and 1")
    var_sets = [c.variables() for c in formula.clauses]
    constrained = set().union(*var_sets)
    goal = alpha * len(constrained)
    covered: set[int] = set()
    order: list[int] = []
    cover: list[int] = []
    boundary = None
    remaining = set(range(len(formula.clauses)))
    while remaining and len(order) < goal:
        pick = max(remaining, key=lambda i: (len(var_sets[i] - covered), -i))
        remaining.remove(pick)
        new_vars = sorted(var_sets[pick] - covered)
        take = len(new_vars)
        if len(order) + take >= goal:
            take = min(range(take + 1), key=lambda h: (abs(len(order) + h - goal), -h))
            remaining.clear()   # the clause at the cut-off is the last one picked
        if take == len(new_vars):
            cover.append(pick)
        elif take:
            boundary = pick
        order.extend(new_vars[:take])
        covered.update(new_vars[:take])
    shared = [i for i in range(len(formula.clauses)) if i not in cover and i != boundary]
    return SplitPlan(
        cover=cover,
        shared=shared,
        boundary=boundary,
        covered_vars=tuple(order),
        complement_vars=tuple(sorted(constrained - covered)),
    )


def _watched(plan: SplitPlan) -> list[int]:
    """Clause indices of the contribution vector: shared, then the boundary."""
    return plan.shared + ([plan.boundary] if plan.boundary is not None else [])


def _step_table(clauses: list, order) -> np.ndarray:
    """Per step, the counts each value of order[k] adds to every clause.

    Returns a (len(order), 2, len(clauses)) int8 array whose [k, b, j] entry
    is the number of clause j's literals that variable order[k] = b makes
    true, capped at the target + 1, which rules a row out just the same.
    """
    pos = {v: k for k, v in enumerate(order)}
    table = np.zeros((len(order), 2, len(clauses)), dtype=np.int8)
    for j, c in enumerate(clauses):
        for lit, mult in c.occ.items():
            k = pos.get(abs(lit))
            if k is not None:
                table[k, int(lit > 0), j] = min(mult, c.target + 1)
    return table


def _fields(clauses: list) -> list[tuple[int, int, int, int]]:
    """Each clause's bit field in a packed cover-table row: (word, shift,
    width, bias).

    Clause j takes width_j = target_j.bit_length() + 1 bits holding
    count_j + bias_j, with bias_j = 2^(width_j - 1) - 1 - target_j. So the
    field's top (guard) bit is set exactly when count_j passes target_j, and
    the field equals 2^(width_j - 1) - 1 exactly when count_j meets it. A
    step adds at most target_j + 1 to a count within target_j, so a field
    never carries into the next. Fields lie in order from bit 0 of word 0;
    one that would pass bit _WORD_BITS - 1 starts the next word, so no field
    straddles two words and every mask stays below 2^63.
    """
    fields, word, shift, bits = [], 0, 0, _WORD_BITS
    for c in clauses:
        target = c.target
        width = target.bit_length() + 1
        if shift + width > bits:
            if width > bits:
                raise ValueError(f"target {target} does not fit a {bits}-bit word")
            word, shift = word + 1, 0
        fields.append((word, shift, width, (1 << (width - 1)) - 1 - target))
        shift += width
    return fields


def _cover_table(formula: Formula, plan: SplitPlan):
    """The cover side as arrays: (survivors per step, packed contribution
    vectors, watched fields).

    Covered variables are fixed in plan.covered_vars order, which is the
    order of the clause-by-clause search. A row holds one field per clause,
    watched clauses first and then the cover clauses (_fields), in one or
    more int64 words. Step k extends every row by the variable 0 then 1
    (child 2 * i + b of row i) with one add per word of that value's packed
    literal counts. A child is kept when no guard bit is set, which means no
    count passes its target, and when every cover clause whose last variable
    is fixed at step k has its field at its target: one AND and one compare
    per word. Survivors stay in lexicographic order of their values along
    the fixing order.

    Returns each step's surviving child indices (parent idx >> 1, value
    idx & 1; _values reads them back), the final rows' contribution vectors
    and the watched clauses' fields. The vectors are packed: one int64
    array per word that holds watched fields, whose entry for a row is
    sum(count_j * 2^shift_j) over the fields in that word: the row's counts
    times _places(fields). _counts unpacks them.
    """
    watched = [formula.clauses[i] for i in _watched(plan)]
    cover = [formula.clauses[i] for i in plan.cover]
    clauses = watched + cover
    order = plan.covered_vars
    assert set().union(*(c.variables() for c in cover)) <= set(order), \
        "a cover clause has a variable outside covered_vars"

    fields = _fields(clauses)
    n_words = fields[-1][0] + 1 if fields else 1
    pos = {v: k for k, v in enumerate(order)}
    start = [0] * n_words   # the row with every count 0
    guard = [0] * n_words
    add = [[0] * (2 * len(order)) for _ in range(n_words)]   # [2 * k + value]
    for c, (word, shift, width, bias) in zip(clauses, fields):
        start[word] |= bias << shift
        guard[word] |= 1 << (shift + width - 1)
        cap, step = c.target + 1, add[word]
        for lit, mult in c.occ.items():
            k = pos.get(abs(lit), -1)
            if k >= 0:
                step[2 * k + (lit > 0)] += (mult if mult < cap else cap) << shift
    mask = [[g] * len(order) for g in guard]
    want = [[0] * len(order) for _ in range(n_words)]   # a kept row's word & mask[k]
    done = start[:]   # watched counts 0, cover counts at their targets
    empty = False
    for c, (word, shift, width, _) in zip(cover, fields[len(watched):]):
        done[word] += c.target << shift
        if c.occ:
            last = max(pos[abs(lit)] for lit in c.occ)
            mask[word][last] |= ((1 << width) - 1) << shift
            want[word][last] |= ((1 << (width - 1)) - 1) << shift
        elif c.target != 0:
            empty = True
    words = [np.array([] if empty else [s], dtype=np.int64) for s in start]
    add = [np.array(a, dtype=np.int64).reshape(-1, 2) for a in add]
    kept = []
    for k in range(len(order)):
        rows = [(w[:, None] + a[k]).ravel() for w, a in zip(words, add)]
        ok = (rows[0] & mask[0][k]) == want[0][k]
        for i in range(1, n_words):
            ok &= (rows[i] & mask[i][k]) == want[i][k]
        kept.append(ok.nonzero()[0])
        words = [r[kept[-1]] for r in rows]
    # every final row has its cover fields at their targets, so subtracting
    # done leaves just the watched counts in the watched words
    n_keys = fields[len(watched) - 1][0] + 1 if watched else 1
    return kept, [w - d for w, d in zip(words[:n_keys], done)], fields[:len(watched)]


def _values(kept: list, rows) -> np.ndarray:
    """Values along the fixing order of final cover-table rows (one index or
    an index array), read back through each step's survivor indices."""
    values = np.zeros(np.shape(rows) + (len(kept),), dtype=np.int8)
    for k in reversed(range(len(kept))):
        child = kept[k][rows]
        values[..., k] = child & 1
        rows = child >> 1
    return values


def _counts(vectors: list, fields: list) -> np.ndarray:
    """The (rows, len(fields)) counts of contribution vectors packed as
    _cover_table returns them."""
    counts = np.empty((len(vectors[0]), len(fields)), dtype=np.int64)
    for j, (word, shift, width, _) in enumerate(fields):
        counts[:, j] = (vectors[word] >> shift) & ((1 << (width - 1)) - 1)
    return counts


def _places(fields: list) -> np.ndarray:
    """The (clauses, words) int64 place matrix of fields (_fields).

    Entry (j, word_j) is 2^shift_j and the others are 0, so counts @ place
    packs each vector over the clauses into its words. An entry j in
    0..target_j lies below 2^(width_j - 1), so such a vector packs exactly
    and distinctly, into the words _cover_table returns for it.
    """
    place = np.zeros((len(fields), fields[-1][0] + 1 if fields else 1), dtype=np.int64)
    place[range(len(fields)), [f[0] for f in fields]] = [1 << f[1] for f in fields]
    return place


def _keys(words) -> np.ndarray:
    """Sortable, comparable keys of vectors packed into int64 words, one
    array per word: the word itself when there is one, else each vector's
    words as one fixed-width byte string."""
    if len(words) == 1:
        return words[0]
    rows = np.asarray(words).T.copy()   # C order: a vector's words adjacent
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _first_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, sorted, and the first (representative) row of each.

    A stable sort keeps equal keys in row order, so a key's first row heads
    its run; one compare with the neighbour finds the runs. Either key kind
    of _keys works: != compares byte strings elementwise too.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    head = np.empty(len(keys), bool)
    head[:1] = True
    head[1:] = keys[1:] != keys[:-1]
    return keys[head], order[head]


def enumerate_cover_side(formula: Formula, plan: SplitPlan) -> Iterator[tuple[dict, tuple]]:
    """All covered-side assignments exactly satisfying the cover clauses.

    Each yield is (assignment over covered_vars, contribution vector). The
    vector lists, for every non-cover clause (straddling clause last), how
    many of its literals the assignment makes true; assignments pushing any
    entry past the clause target are discarded. Assignments come in the
    order of a clause-by-clause depth-first search (see _cover_table).
    """
    kept, vectors, fields = _cover_table(formula, plan)
    vectors = _counts(vectors, fields)
    values = _values(kept, np.arange(len(vectors)))
    for row, vec in zip(values.tolist(), vectors.tolist()):
        yield dict(zip(plan.covered_vars, row)), tuple(vec)


def solve_mitm(formula: Formula, alpha: Optional[float] = None) -> SolveResult:
    """Decide by cover-side enumeration against a complement sweep."""
    for c in formula.clauses:
        if c.target > MAX_TARGET:
            raise ValueError(f"solve_mitm handles targets up to {MAX_TARGET}, got {c.target}")
    if alpha is None:
        alpha = default_alpha(max((c.target for c in formula.clauses), default=1))
    started = perf_counter()
    plan = choose_cover(formula, alpha)  # checks alpha
    try:
        planned = perf_counter()
        stats = MitmStats(
            alpha=alpha,
            cover_size=len(plan.cover) + (plan.boundary is not None),
            covered_vars=len(plan.covered_vars),
            complement_vars=len(plan.complement_vars),
            cover_s=planned - started,
        )

        try:
            kept, vectors, fields = _cover_table(formula, plan)
            keys, first = _first_rows(_keys(vectors))
        except MemoryError as exc:
            raise ResourceLimitError("vector table exceeded available memory") from exc
        stats.emitted = len(vectors[0])
        stats.index_size = len(keys)
        indexed = perf_counter()
        stats.enumerate_s = indexed - planned
        if not len(keys):
            return SolveResult(False, None, stats)

        try:
            hit = _sweep(formula, plan, keys, fields)
        except MemoryError as exc:
            raise ResourceLimitError("sweep table exceeded available memory") from exc
        stats.sweep_s = perf_counter() - indexed
        if hit is None:
            stats.sweep_count = 1 << len(plan.complement_vars)
            return SolveResult(False, None, stats)
        bits, at = hit
        stats.sweep_count = bits + 1
        # every variable in no clause takes 0; the model is the one dict built
        model = dict.fromkeys(range(1, formula.num_vars + 1), 0)
        model.update(zip(plan.covered_vars, _values(kept, first[at]).tolist()))
        model.update((v, (bits >> k) & 1) for k, v in enumerate(plan.complement_vars))
        if not evaluate(formula, model):
            raise RuntimeError("internal error: matched vectors gave a bad model")
        return SolveResult(True, model, stats)
    except ValueError as exc:
        # the input passed its checks, so this is the solver's fault
        raise RuntimeError(f"internal error: {exc}") from exc


def _sweep(formula: Formula, plan: SplitPlan, keys: np.ndarray, fields: list) -> Optional[tuple]:
    """First complement assignment whose need vector is in keys, or None.

    Complement variable k is bit k of the assignment number; assignments are
    tried in ascending number, in blocks over the low bits. A block whose
    high bits alone overshoot a target is skipped. One column-major int8
    need table, a column per assignment of the block, is filled in place by
    doubling: column 0 is the need with every low bit 0, and columns
    2^k..2^(k+1)-1 are columns 0..2^k-1 minus the change of setting bit k,
    so column a is assignment a's need. Keys are those of _keys over the
    words of _places, as for the index (fields are the watched clauses'
    fields, as _cover_table returns them). With one word, a key column
    doubles alongside, which is faster than packing at match time: a key is
    linear in its vector, so each new half of keys is the old half minus
    the packed change. That int64 arithmetic wraps mod 2^64, which leaves
    the key of every need with no negative entry exact. With several words,
    _match packs only the columns that can match, which is faster than
    doubling a column per word. The first _FIRST_CHECK columns are matched
    once written, then each new half as it is written, and the first hit
    ends the sweep.
    Returns (the assignment number, the position of its need vector in keys).
    """
    clauses = [formula.clauses[i] for i in _watched(plan)]
    comp = plan.complement_vars
    targets = np.array([c.target for c in clauses], dtype=np.int64)
    place = _places(fields)
    adds = _step_table(clauses, comp)
    low_bits = min(len(comp), _BLOCK_BITS)
    low, high = adds[:low_bits], adds[low_bits:]
    low_zero = low[:, 0].sum(axis=0, dtype=np.int64)
    steps = low[:, 1] - low[:, 0]
    need = np.empty((len(clauses), 1 << low_bits), dtype=np.int8)
    key = None
    if place.shape[1] == 1:
        key = np.empty(1 << low_bits, dtype=np.int64)
        step_keys = np.dot(steps, place[:, 0])
    for block in range(1 << len(high)):
        base = targets.copy()
        for k, by_value in enumerate(high):
            base -= by_value[(block >> k) & 1]
        # with no high bits base is the targets, never negative
        if len(high) and (base < 0).any():   # low contributions are never negative
            continue
        base -= low_zero
        need[:, 0] = base
        if key is not None:
            key[0] = np.dot(base, place[:, 0])
        start = 0
        for k in range(low_bits + 1):
            end = 1 << k   # assignments [0, end) are written
            if end >= _FIRST_CHECK or k == low_bits:
                hit = _match(keys, need[:, start:end], None if key is None else key[start:end], place)
                if hit is not None:
                    return (block << low_bits) + start + hit[0], hit[1]
                start = end
            if k < low_bits:
                np.subtract(need[:, :end], steps[k, :, None], out=need[:, end:2 * end])
                if key is not None:
                    np.subtract(key[:end], step_keys[k], out=key[end:2 * end])
    return None


def _match(keys: np.ndarray, need: np.ndarray, need_keys: Optional[np.ndarray],
           place: np.ndarray) -> Optional[tuple]:
    """(column, position in keys) of the first column of need found in keys,
    or None. need_keys are the columns' one-word keys, or None, and then the
    candidate columns are packed as place.T @ need, into the words _keys
    takes. A column with a negative entry cannot match."""
    cand = (need.min(axis=0, initial=0) >= 0).nonzero()[0]
    if not len(cand):
        return None
    wanted = _keys(place.T @ need[:, cand]) if need_keys is None else need_keys[cand]
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    found = (keys[at] == wanted).nonzero()[0]
    if not len(found):
        return None
    i = found[0]
    return int(cand[i]), int(at[i])
