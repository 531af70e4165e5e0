"""Shared polynomial-time simplification rules.

simplify_to_fixpoint applies, in a fixed priority order, every reduction that
is forced regardless of branching:

  (a) reject clauses no counting argument can satisfy
  (b) cancel x / -x pairs against the target
  (c) falsify literals whose multiplicity exceeds the target
  (d) divide a clause through by a uniform literal multiplicity
  (e) turn 2-literal exactly-1 clauses into links
  (f) assign whole clauses whose target is 0 or equals their size
  (g) negate clauses whose target exceeds half their length
  (h) drop satisfied empty clauses

Whether a rule applies is a property of one clause, so the fixpoint runs as
a worklist. Each clause is classified once into a bitmask of the rules that
apply to it, and one Python int per rule is a bitset of the clauses carrying
that rule: bit i of pending[r] is set exactly when clause i is live and its
mask holds rule r. A step fires the highest-priority rule on the
lowest-index clause that carries it, the clause a rescan of the whole
formula in priority order would pick: the first nonzero bitset, at its
lowest set bit, (x & -x).bit_length() - 1. It applies the rule there
directly. Afterwards only the clauses the step changed are classified again:
the clause edited in place, or the clauses that held the variable an
assignment or link eliminated. Those are found through a variable ->
clause-index occurrence map. A deleted clause leaves an empty slot, so
indices and clause order stay fixed.

Constants and links take one pass, _Worklist.eliminate: one call makes a
list of literals false, in order, or links one literal to a literal of
another variable. For each literal, one visit of the clauses that hold its variable
computes and writes each clause's new state at once, then the counters are
updated and the trail entry is written, before the next literal. A constant
drops the visited literal and lowers the target by 0 or 1; a link renames it
to the partner's literal, or cancels it against the partner's opposite one.
A conflict returns False at the clause where it shows, leaving the worklist
half edited and the trail holding the entries of the literals before it, so
a worklist that returned False must be discarded, as every caller does. A
clause whose rule mask changes flips its bit in the bitsets of the changed
rules only, read from a table of set bits; a flip is exact, since the
bitsets agree with the masks. Ints are immutable, so an update or a pick
copies the int: O(m) bytes for m clause slots, a few machine words on a
search's small formulas and a few kilobytes at tens of thousands of clauses,
but no O(|pending|) Python work, as a min() over a set of pending indices
was.

Shortcuts make a step cheaper without changing which steps run or in what
order. Most clauses the pass reaches are plain: k distinct literals, each
once, no variable in both signs. A plain clause's mask depends only on its
target t and size k, so a constant drops the literal, lowers the target,
checks for a conflict and computes the new mask from t and k alone
(_plain_mask, tabled below 16 literals), building no clause; _classify
reads a plain clause's mask from the same table. A link reaching
a plain clause that lacks the partner's variable keeps its target, size and
mask: the literal is renamed to the partner, deleted and appended, the order
substitute gives. A link reaching a plain clause that holds the partner's
literal with the opposite sign to the renamed one cancels the pair: both
literals go, the target drops by 1 and the size by 2, and the clause stays
plain, its mask again from t and k. Every (e) step meets this on its own
clause, which it empties. A link that would double a literal, and any visit
to a clause that is not plain, go through substitute and _classify.
Trail.check's tests run inline, and check itself only to raise, so every
failure still raises its message before its literal's edit; a link's
variable and partner are tested before the pass. Rule (g) acts on a plain
clause, so the negated clause takes its mask from t and k too. And rule (c)
on a target-0 clause sorts its literals once, in canonical order, and zeroes
them in one pass with the clause as its home: before each literal after the
first, the pass stops unless no (a) or (b) step is pending and the home
clause is still the lowest-index one carrying (c), and each literal it goes
on to counts one (c) fire. The clause is unpaired and zeroing a literal
changes only the clauses holding its variable, so each literal is exactly
the step a rescan would take next, and the trail, the literal order of every
clause and the point of any conflict stay the same. Unpaired, the clause's
canonical order is its order by variable alone, and so is that of the
clauses (e) and (f) act on, since no (b) step is pending when they run; an
(f) step is one pass too.

Clauses are copied on first edit. A worklist's owned set holds the slots
whose Clause it built since it was created or last forked. The plain-clause
edits above change an owned clause in place and copy any other clause once,
claiming the copy; substitute and rule (g) build a new clause, which is
claimed too. Clauses put in by add or replace are not owned. So the input
formula and its clauses are never mutated, and a clause another worklist
shares is copied before it changes.

The worklist (_Worklist) also serves as the search state of a whole
branch-and-bound solve: the solver applies rule actions to it, settles it to
a fixpoint, and forks it at each branch. A fork copies the flat slot and
size lists and the trail, so parent and child share every Clause; the child
starts owning none of them and the parent keeps its owned set. The parent
must therefore not be edited while a fork of it is in use, or the fork would
see the parent's in-place edits. A fork also shares the occurrence map.
The map is built from the live slots at a solve's first eliminate or fork,
since nothing else reads it: a solve the endgame decides at the root, with
no step that eliminates, never builds it. From then on it only grows:
every clause that gains a variable (by a link, an added clause or a
replaced clause) is registered under it, and nothing is ever removed. The
map may therefore name clauses that have lost the variable, or slots that
another branch added, and substitution skips both. A per-worklist map that dropped each eliminated
variable skipped far fewer entries but was no faster: the time goes to the
clauses that still hold the variable.

The progress bound (alive variables, total occurrences, clause count, target
sum) is kept as running counters and must fall lexicographically with every
step, which bounds the number of steps.

The result is a fixpoint: none of the rules applies to it. Unsatisfiability
is a normal outcome (returned as None), never an exception.
"""

from __future__ import annotations

from operator import neg
from typing import Optional

from .formula import _CONST, Clause, Formula, Trail, substitute

_A, _B, _C, _D, _E, _F, _G, _H = (1 << r for r in range(8))
RULE_LETTERS = "abcdefgh"


def _classify(c: Clause) -> tuple[int, int]:
    """Bitmask of the rules (a)-(h) that apply to c, and the size of c.

    A clause rule (a) rejects gets bit (a) alone, since it ends the fixpoint.
    """
    occ = c.occ
    t = c.target
    if not occ:
        return (_H if t == 0 else _A), 0
    mults = occ.values()
    k = sum(mults)
    if t < 0 or t > k:
        return _A, k
    paired = not occ.keys().isdisjoint(map(neg, occ))
    if k < 16 and k == len(occ) and not paired:
        # plain: every literal once, no variable in both signs
        return _PLAIN[k][t], k
    if len(occ) == 1:
        if t != k and t != 0:
            return _A, k
    elif len(occ) == 2 and paired and t not in mults:
        return _A, k
    hi = max(mults)
    mask = _B if paired else 0
    if hi > t:
        mask |= _C
    if hi >= 2 and t % hi == 0 and min(mults) == hi:
        mask |= _D
    if t == 1 and k == 2 and len(occ) == 2:
        mask |= _E
    if t == 0 or t == k:
        mask |= _F
    if hi == 1 and 2 * t > k:
        mask |= _G
    return mask, k


def _plain_mask(t: int, k: int) -> int:
    """The rule mask of every plain clause of target t and size k.

    A plain clause holds k distinct literals, each once, and no variable in
    both signs, so of _classify's conditions only those on t and k can hold:
    (a) or (h) when empty, (a) out of range, else (c) and (f) at target 0,
    (e) for two literals of target 1, (f) at target k and (g) above k / 2.
    """
    if k == 0:
        return _H if t == 0 else _A
    if t < 0 or t > k:
        return _A
    return ((_C | _F if t == 0 else 0) | (_E if t == 1 and k == 2 else 0)
            | (_F if t == k else 0) | (_G if 2 * t > k else 0))


# _PLAIN[k][t] is _plain_mask(t, k), for sizes below 16 and targets in range
_PLAIN = tuple(tuple(_plain_mask(t, k) for t in range(k + 1)) for k in range(16))

# _SET_BITS[m] lists the rules whose bits m sets, in ascending order
_SET_BITS = tuple(tuple(r for r in range(8) if m >> r & 1) for m in range(256))


class _Worklist:
    """Clause slots, per-rule bitsets, occurrence map and bound counters.

    A worklist can be the search state of a whole solve: callers edit it
    through add, replace, delete and eliminate, run settle to reach a
    fixpoint, and fork it at a branch point. fires counts the steps of each
    rule (a)-(h); forks share it, so it counts the steps of a whole search.
    """

    __slots__ = ("trail", "slots", "masks", "sizes", "pending", "owned",
                 "occ", "occurrences", "targets", "count", "fires")

    def __init__(self, formula: Formula, trail: Trail):
        assert trail.num_vars == formula.num_vars, "trail and formula differ in variables"
        self.trail = trail
        self.slots: list[Optional[Clause]] = []
        self.masks: list[int] = []
        self.sizes: list[int] = []
        self.pending: list[int] = [0] * 8
        self.owned: set[int] = set()
        # built at the first eliminate or fork: a solve decided without
        # either never reads it
        self.occ: Optional[dict[int, set[int]]] = None
        self.occurrences = 0
        self.targets = 0
        self.count = 0
        self.fires = [0] * 8
        for c in formula.clauses:
            self.add(c)

    def _register(self, i: int, c: Clause) -> None:
        occ = self.occ
        for lit in c.occ:
            v = abs(lit)
            held = occ.get(v)
            if held is None:
                occ[v] = {i}
            else:
                held.add(i)

    def _occurrences(self) -> dict[int, set[int]]:
        """The occurrence map, built from the live slots on first use."""
        if self.occ is None:
            self.occ = {}
            for i, c in enumerate(self.slots):
                if c is not None:
                    self._register(i, c)
        return self.occ

    def _remask(self, i: int, mask: int) -> None:
        old = self.masks[i]
        self.masks[i] = mask
        pending = self.pending
        bit = 1 << i
        for r in _SET_BITS[mask ^ old]:
            pending[r] ^= bit

    def add(self, c: Clause) -> None:
        """Append c as a new clause and classify it."""
        i = len(self.slots)
        mask, size = _classify(c)
        self.slots.append(c)
        self.masks.append(0)
        self.sizes.append(size)
        self.occurrences += size
        self.targets += c.target
        self.count += 1
        if self.occ is not None:
            self._register(i, c)
        if mask:
            self._remask(i, mask)

    def replace(self, i: int, c: Clause) -> None:
        """Replace clause i by c, which may hold variables clause i lacks,
        and classify it again."""
        if self.occ is not None:
            self._register(i, c)
        mask, size = _classify(c)
        self.occurrences += size - self.sizes[i]
        self.targets += c.target - self.slots[i].target
        self.sizes[i] = size
        self.slots[i] = c
        self.owned.discard(i)
        if mask != self.masks[i]:
            self._remask(i, mask)

    def delete(self, i: int) -> None:
        self.occurrences -= self.sizes[i]
        self.targets -= self.slots[i].target
        self.count -= 1
        self.slots[i] = None
        self._remask(i, 0)

    def eliminate(self, lits, home: Optional[int] = None,
                  partner: Optional[int] = None) -> bool:
        """Eliminate the variables of lits, in order, in one call.

        With no partner each literal is made false; with one, lits holds one
        literal a, linked by value(a) = value(partner): a is renamed to
        partner and -a to -partner. Each literal takes one pass
        over the clauses that hold its variable, then its trail entry is
        written. With home, the slot of a target-0 clause whose (c) step
        this is, the step stops before each literal after the first unless
        it is still the step a rescan would take: no (a) or (b) step pending
        and slot home still the lowest carrying (c); each literal it goes on
        to counts one (c) fire. Returns True, or False on a conflict,
        leaving the worklist half edited and the earlier literals' entries
        written: after False it must be discarded. Raises ValueError, as
        Trail.check does, before a literal's edit if its variable is out of
        range or eliminated, and before any edit if the link is not allowed.
        """
        trail = self.trail
        entries = trail.entries
        num_vars = trail.num_vars
        # what lit and -lit turn into, and the fall of the target when they
        # go: a constant (to 0) drops the literal, lowering the target by 0
        # for the false lit and 1 for -lit; a link renames lit to partner and
        # -lit to -partner, or cancels the new literal against the partner's
        # opposite one, lowering the target by 1
        if partner is None:
            link = linked = None
            to = drop_lit = 0
        else:
            a, = lits
            var = abs(a)
            link = ("link", partner if a > 0 else -partner)
            to, drop_lit, linked = partner, 1, []
            # check's tests of the variable and the partner, inline and
            # before any edit: check itself runs only to raise, naming the
            # failure, the variable's first
            p = abs(partner)
            if not (1 <= var <= num_vars and var not in entries and 1 <= p <= num_vars
                    and p != var and p not in entries):
                trail.check(var, link)
        slots = self.slots
        sizes = self.sizes
        masks = self.masks
        owned = self.owned
        pending = self.pending
        where = self.occ
        if where is None:
            where = self._occurrences()
        n = len(slots)
        watching = home is not None
        bit = 1 << home if watching else 0
        watch = False
        nto = -to
        for lit in lits:
            if watch:
                held = pending[2]
                if pending[0] or pending[1] or held & -held != bit:
                    return True
                self.fires[2] += 1
            watch = watching
            var = abs(lit)
            nlit = -lit
            state = link or _CONST[lit < 0]
            # check's tests, inline: check itself runs only to raise, naming
            # the failure
            if not (1 <= var <= num_vars and var not in entries):
                trail.check(var, state)
            occurrences = targets = 0
            # the map never shrinks and forks share it, so it may name slots
            # this worklist lacks and clauses that no longer hold var
            for i in where.get(var, ()):
                if i >= n:
                    continue
                c = slots[i]
                if c is None:
                    continue
                occ = c.occ
                if lit in occ:
                    gone, new, drop = lit, to, drop_lit
                elif nlit in occ:
                    gone, new, drop = nlit, nto, 1
                else:
                    continue
                old = masks[i]
                k = sizes[i]
                # plain: every literal once, var in one sign only (3 is
                # _A | _B, folded to a constant), and a link not doubling
                # the partner's literal
                if k == len(occ) and not old & 3 and (not new or new not in occ):
                    if i not in owned:
                        nc = Clause.__new__(Clause)
                        nc.target = c.target
                        nc.occ = occ = dict(occ)
                        slots[i] = c = nc
                        owned.add(i)
                    del occ[gone]
                    if new:
                        if -new not in occ:
                            # renamed: target, size and mask stay
                            occ[new] = 1
                            linked.append(i)
                            continue
                        # the partner's opposite literal cancels the new one
                        del occ[-new]
                        k -= 1
                        occurrences -= 1
                    k -= 1
                    occurrences -= 1
                    t = c.target - drop
                    if t < 0 or t > k:
                        return False
                    targets -= drop
                    c.target = t
                    sizes[i] = k
                    mask = _PLAIN[k][t] if k < 16 else _plain_mask(t, k)
                else:
                    nc = substitute(c, var, state)
                    if nc is None:
                        return False
                    mask, size = _classify(nc)
                    slots[i] = nc
                    owned.add(i)
                    occurrences += size - k
                    targets += nc.target - c.target
                    sizes[i] = size
                    if link:
                        linked.append(i)
                if mask != old:
                    masks[i] = mask
                    b = 1 << i
                    for r in _SET_BITS[mask ^ old]:
                        pending[r] ^= b
            self.occurrences += occurrences
            self.targets += targets
            entries[var] = state
        # a cancelled clause already held the partner, so is registered
        if linked:
            where.setdefault(abs(to), set()).update(linked)
        return True

    def settle(self) -> bool:
        """Apply rules until none fires. False means unsatisfiable.

        After False the worklist is not a fixpoint and must be discarded.
        """
        pending = self.pending
        fires = self.fires
        slots = self.slots
        num_vars = self.trail.num_vars
        entries = self.trail.entries
        prev = None
        while True:
            cur = (num_vars - len(entries), self.occurrences, self.count, self.targets)
            assert prev is None or cur < prev, "simplification failed to make progress"
            prev = cur
            # the first rule any clause carries, at its lowest set bit
            a, b, c, d, e, f, g, h = pending
            if a:
                fires[0] += 1
                return False
            if b:
                rule, held, step = 1, b, _step_b
            elif c:
                rule, held, step = 2, c, _step_c
            elif d:
                rule, held, step = 3, d, _step_d
            elif e:
                rule, held, step = 4, e, _step_e
            elif f:
                rule, held, step = 5, f, _step_f
            elif g:
                rule, held, step = 6, g, _step_g
            elif h:
                fires[7] += 1
                self.delete((h & -h).bit_length() - 1)
                continue
            else:
                return True
            fires[rule] += 1
            i = (held & -held).bit_length() - 1
            if not step(self, i, slots[i]):
                return False

    def fork(self) -> "_Worklist":
        """A copy to branch on, with its own trail; the occurrence map,
        built here if no eliminate has built it, is shared.

        Only a fixpoint is forked, so the copy starts with every mask and
        every rule bitset 0. The copy shares every Clause and owns none;
        self keeps its owned set and edits those clauses in place, so self
        must not be edited while the copy is in use. A search meets this by
        searching each fork to the end, and dropping it, before editing the
        worklist it forked.
        """
        assert not any(self.pending) and not any(self.masks), "fork outside a fixpoint"
        w = _Worklist.__new__(_Worklist)
        w.trail = self.trail.copy()
        w.slots = self.slots.copy()
        w.masks = [0] * len(self.slots)
        w.sizes = self.sizes.copy()
        w.pending = [0] * 8
        w.owned = set()
        w.occ = self._occurrences()
        w.occurrences = self.occurrences
        w.targets = self.targets
        w.count = self.count
        w.fires = self.fires
        return w

    def slot(self, j: int) -> int:
        """The slot of clause j of formula()."""
        return [i for i, c in enumerate(self.slots) if c is not None][j]

    def formula(self) -> Formula:
        out = Formula.__new__(Formula)
        out.num_vars = self.trail.num_vars
        out.clauses = [c for c in self.slots if c is not None]
        return out


# Each rule's step at clause i, which carries the rule; False means
# unsatisfiable. Rule (a) has no step: it ends the fixpoint; settle deletes
# the clause of an (h) step itself.


def _step_b(w: _Worklist, i: int, c: Clause) -> bool:
    v = next(v for v in sorted(c.variables()) if v in c.occ and -v in c.occ)
    p, q = c.occ[v], c.occ[-v]
    cancel = min(p, q)
    nc = c.copy()
    nc.target -= cancel
    for lit, m in ((v, p - cancel), (-v, q - cancel)):
        if m:
            nc.occ[lit] = m
        else:
            del nc.occ[lit]
    w.replace(i, nc)
    return True


def _step_c(w: _Worklist, i: int, c: Clause) -> bool:
    if c.target:
        lit = next(lit for lit in c.sorted_literals() if c.occ[lit] > c.target)
        return w.eliminate((lit,))
    # Target 0: every literal exceeds the target, so a rescan would step here
    # again, zeroing the next literal in canonical order, for as long as no
    # (a) or (b) step is pending and clause i stays the lowest-index clause
    # carrying (c); eliminate stops as soon as that fails. No (b) step is
    # pending now, so clause i is unpaired, and zeroing a literal edits only
    # the clauses holding its variable: the literals can be sorted once, by
    # variable alone. After the last one clause i is empty.
    return w.eliminate(sorted(c.occ, key=abs), i)


def _step_d(w: _Worklist, i: int, c: Clause) -> bool:
    m = next(iter(c.occ.values()))
    w.replace(i, Clause(c.target // m, {lit: 1 for lit in c.occ}))
    return True


def _step_e(w: _Worklist, i: int, c: Clause) -> bool:
    l1, l2 = sorted(c.occ, key=abs)  # no (b) step is pending: unpaired
    # value(l1) = value(-l2), eliminating var(l1)
    return w.eliminate((l1,), partner=-l2)


def _step_f(w: _Worklist, i: int, c: Clause) -> bool:
    # every nonempty target-0 clause carries (c), which outranks (f), so c's
    # target is its size; no (b) step is pending, so c is unpaired. Every
    # literal is made true
    assert c.target, "a target-0 clause carries rule (c), which outranks (f)"
    return w.eliminate([-lit for lit in sorted(c.occ, key=abs)])


def _step_g(w: _Worklist, i: int, c: Clause) -> bool:
    # no (a)-(f) step is pending, so c is plain and so is its negation, of
    # the same size: the mask comes from the table
    k = w.sizes[i]
    t = k - c.target
    nc = Clause.__new__(Clause)
    nc.target = t
    nc.occ = {-lit: 1 for lit in c.occ}
    w.targets += t - c.target
    w.slots[i] = nc
    w.owned.add(i)
    w._remask(i, _PLAIN[k][t] if k < 16 else _plain_mask(t, k))
    return True


def simplify_to_fixpoint(formula: Formula, trail: Trail) -> Optional[tuple[Formula, Trail]]:
    """Apply rules until none fires. None means unsatisfiable.

    The input formula is not mutated. The trail is extended in place by
    forced assignments and links; on an unsatisfiable outcome the pair must
    be discarded by the caller.
    """
    w = _Worklist(formula, trail)
    if not w.settle():
        return None
    return w.formula(), trail
