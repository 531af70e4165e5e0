"""Search-tree mathematics: branching factors, weighted measures, counting.

A branching vector (t1..tr) lists the measure decrease in each branch of a
rule; its factor is the unique root beta > 1 of sum(beta^-ti) = 1, which
bounds the leaf count of the recursion tree as beta^mu. The weighted
measures mirror the solvers' variable-weight schemes and are used as
diagnostics: along any branch the scheme measure must shrink.

The counting half deals with a single counted clause: F_j gives the exact
number of ways to satisfy it for a given occurrence profile (how many
variables appear once, twice, ...), and G is the single-occurrence binomial
ceiling. F <= G is what lets the clause-by-clause enumerator charge each
clause at most C(k, j) cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .formula import Clause, Formula

TAU_FIXTURE = Path(__file__).parent / "data" / "tau_values.txt"
TAU_FIXTURE_TOL = 1e-3  # a fixture root matches within this of its expected value
ORACLE_ELL_MAX = 8  # verify_f_le_g counts profiles up to this ell by brute force
BINOM_BRANCHING_BOUND = 1.5849  # the per-variable case count long clauses stay below


# ---------------------------------------------------------------------------
# branching vectors


MAX_BRANCHING_FACTOR = 1e300  # larger roots are rejected as bad input
ROOT_RESIDUAL_TOL = 1e-9  # how far from 0 the residual at a returned root may be


def branching_factor(decreases: Sequence[float]) -> float:
    """Unique beta > 1 with sum(beta**-t) == 1, found by bisection."""
    ts = tuple(float(t) for t in decreases)
    if len(ts) < 2:
        raise ValueError("need at least two branches")
    if not all(0 < t < math.inf for t in ts):  # also rejects NaN
        raise ValueError("branching vector entries must be positive and finite")

    # expm1: a plain x**-t - 1 rounds to 0 once t * ln x < 2**-53, and the other terms with it
    t_min, *rest = sorted(ts)

    def residual(x: float) -> float:
        return math.expm1(-t_min * math.log(x)) + sum(x ** -t for t in rest)

    # residual is strictly decreasing on (1, inf) with residual(1+) = r-1 > 0,
    # and it is negative at r**(1/min t); grow a tight bracket by doubling,
    # which must stop short of inf, where every entry's term is 0
    lo = 1.0 + 1e-12
    hi = 2.0
    while residual(hi) > 0.0:
        if hi > MAX_BRANCHING_FACTOR:
            raise ValueError(f"branching vector entries too small: the factor exceeds "
                             f"{MAX_BRANCHING_FACTOR:g}")
        lo = hi
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * hi:
            break
    beta = 0.5 * (lo + hi)
    assert abs(residual(beta)) <= ROOT_RESIDUAL_TOL
    return beta


def combine_vectors(u_branch_index: int, parent: Sequence[float], child: Sequence[float]) -> tuple[float, ...]:
    """Replace entry u of parent with u + t for every child entry t.

    Models an immediate follow-up branching inside one branch: the combined
    vector of (u, v) with follow-up (t, w) on the first branch is
    (u+t, u+w, v).
    """
    parent = tuple(float(t) for t in parent)
    child = tuple(float(t) for t in child)
    if not (0 <= u_branch_index < len(parent)):
        raise ValueError("branch index out of range")
    if not child:
        raise ValueError("child vector must be nonempty")
    u = parent[u_branch_index]
    return (
        parent[:u_branch_index]
        + tuple(u + t for t in child)
        + parent[u_branch_index + 1 :]
    )


# ---------------------------------------------------------------------------
# weighted measures


# scheme -> {clause target: variable weight}
MEASURE_SCHEMES = {
    "g2": {1: 0.8039, 2: 1.0},
    "g3": {1: 0.6985, 2: 0.875, 3: 1.0},
    "g4": {1: 0.6464, 2: 0.8376, 3: 0.9412, 4: 1.0},
}


def measure(formula: Formula, scheme: str) -> float:
    """Weighted variable count for the given scheme; at most num_vars."""
    if scheme not in MEASURE_SCHEMES:
        raise ValueError(f"unknown measure scheme {scheme!r}")
    weights = MEASURE_SCHEMES[scheme]
    # one pass over the clauses gives each occurring variable its weight;
    # the sum then runs over variables in ascending order
    if scheme == "g2":
        # low weight when some clause that depends on v is not a
        # 4+-literal exactly-2 clause, high weight otherwise. A clause depends
        # on v when flipping v can change its true-literal count, that is when
        # v and -v occur unequally often: pairs of them contribute a constant 1.
        held: set[int] = set()
        low_vars: set[int] = set()
        for c in formula.clauses:
            occ = c.occ
            held.update(map(abs, occ))
            if c.target != 2 or c.size() < 4:
                low_vars.update([abs(lit) for lit, m in occ.items() if occ.get(-lit, 0) != m])
        weight_of = dict.fromkeys(held, weights[2])
        weight_of.update(dict.fromkeys(low_vars, weights[1]))
    else:
        # weight by the smallest positive target among v's clauses
        min_target: dict[int, int] = {}
        for c in formula.clauses:
            if c.target >= 1:
                for v in c.variables():
                    if c.target < min_target.get(v, c.target + 1):
                        min_target[v] = c.target
        top = max(weights)
        weight_of = {v: weights[min(t, top)] for v, t in min_target.items()}
    total = 0.0
    for v in sorted(weight_of):
        total += weight_of[v]
    return total


# ---------------------------------------------------------------------------
# clause solution counting


@dataclass(frozen=True)
class OccurrenceProfile:
    """How many of a clause's ell variables appear once/twice/thrice/4 times."""

    ell: int
    once: int
    twice: int = 0
    thrice: int = 0
    quad: int = 0

    def __post_init__(self):
        parts = (self.once, self.twice, self.thrice, self.quad)
        if any(p < 0 for p in parts) or sum(parts) != self.ell:
            raise ValueError("inconsistent occurrence profile")

    def as_clause(self, target: int) -> Clause:
        lits = []
        v = 1
        for count, mult in ((self.once, 1), (self.twice, 2), (self.thrice, 3), (self.quad, 4)):
            for _ in range(count):
                lits.extend([v] * mult)
                v += 1
        return Clause(target, lits)


def profile_count(profile: OccurrenceProfile, target: int) -> int:
    """Exact satisfying-assignment count for the canonical profile clause.

    A variable of multiplicity m makes m literals true or none, so the count
    is the coefficient of z^target in
    (1+z)^once (1+z^2)^twice (1+z^3)^thrice (1+z^4)^quad.
    """
    if not 1 <= target <= 4:
        raise ValueError("target must be 1..4")
    counts = (profile.once, profile.twice, profile.thrice, profile.quad)
    if any(counts[target:]):
        raise ValueError("multiplicity exceeds target")
    poly = [1] + [0] * target  # coefficients of z^0 .. z^target
    for m, count in enumerate(counts[:target], start=1):
        poly = [sum(math.comb(count, r) * poly[k - m * r] for r in range(k // m + 1))
                for k in range(target + 1)]
    return poly[target]


def _profiles(ell: int, max_mult: int) -> Iterable[tuple[int, ...]]:
    if max_mult == 1:
        yield (ell,)
        return
    for head in range(ell + 1):
        for rest in _profiles(ell - head, max_mult - 1):
            yield (head,) + rest


def big_f(ell: int, h: int) -> int:
    """Max ways to satisfy any clause with ell variables and target <= h."""
    if not (1 <= h <= 4):
        raise ValueError("h must be 1..4")
    if ell == 0:
        return 1
    return max(
        profile_count(OccurrenceProfile(ell, *parts, *(0,) * (4 - j)), j)
        for j in range(1, h + 1)
        for parts in _profiles(ell, j)
    )


def big_g(ell: int, h: int) -> int:
    """Single-occurrence ceiling: max of C(ell, j) over j <= h."""
    if ell < 0 or not (1 <= h <= 4):
        raise ValueError("bad arguments")
    return max(math.comb(ell, j) for j in range(0, h + 1))


@dataclass
class CountingReport:
    ell_max: int
    profiles_checked: int = 0
    oracle_checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_f_le_g(ell_max: int) -> CountingReport:
    """Check F(ell,h) <= G(ell,h) everywhere, and F against brute counts.

    The brute cross-check enumerates every occurrence profile up to
    ORACLE_ELL_MAX and compares profile_count with exhaustive counting of the
    canonical clause.
    """
    from .oracle import count_clause_solutions

    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    report = CountingReport(ell_max=ell_max)
    for ell in range(0, ell_max + 1):
        for h in range(1, 5):
            report.profiles_checked += 1
            if big_f(ell, h) > big_g(ell, h):
                report.failures.append(("F>G", ell, h, big_f(ell, h), big_g(ell, h)))
    for ell in range(1, min(ORACLE_ELL_MAX, ell_max) + 1):
        for j in range(1, 5):
            for parts in _profiles(ell, j):
                prof = OccurrenceProfile(ell, *parts, *(0,) * (4 - j))
                expected = count_clause_solutions(prof.as_clause(j))
                got = profile_count(prof, j)
                report.oracle_checked += 1
                if got != expected:
                    report.failures.append(("F!=brute", j, parts, got, expected))
    return report


# ---------------------------------------------------------------------------
# split parameter for the two-sided solver


def binom_branching(k: int, h: int) -> float:
    """Per-variable case count C(k,h)**(1/k) of branching a k-variable clause."""
    if not (1 <= h <= k):
        raise ValueError("need 1 <= h <= k")
    return math.comb(k, h) ** (1.0 / k)


def alpha_for(c: float) -> tuple[float, float]:
    """Split fraction alpha with c**alpha == 2**(1-alpha), and that common base.

    alpha n variables enumerated at cost c per variable balance against a
    2**((1-alpha) n) sweep of the rest.
    """
    if not 1.0 < c < math.inf:  # also rejects NaN
        raise ValueError("base must exceed 1 and be finite")
    alpha = math.log(2.0) / (math.log(2.0) + math.log(c))
    return alpha, c ** alpha


@dataclass
class BoundReport:
    k_max: int
    bound: float
    max_pair_term: float
    max_single_term: float

    @property
    def ok(self) -> bool:
        return self.max_pair_term <= self.bound and self.max_single_term <= self.bound


def max_binom_branching_bound(k_max: int) -> BoundReport:
    """Confirm (k(k-1)/2)**(1/k) and k**(1/k) stay below BINOM_BRANCHING_BOUND for k >= 7.

    Works in log space so k_max around 10**6 is cheap; both sequences are
    decreasing on this range, but every k is still checked.
    """
    import numpy as np

    if k_max < 7:
        raise ValueError("k_max must be >= 7")
    ks = np.arange(7, k_max + 1, dtype=np.float64)
    pair = (np.log(ks) + np.log(ks - 1.0) - math.log(2.0)) / ks
    single = np.log(ks) / ks
    return BoundReport(
        k_max=k_max,
        bound=BINOM_BRANCHING_BOUND,
        max_pair_term=float(np.exp(pair.max())),
        max_single_term=float(np.exp(single.max())),
    )


# ---------------------------------------------------------------------------
# regression fixture


def load_tau_regression() -> list[tuple[tuple[float, ...], float, str]]:
    """Parse the shipped fixture: lines of "t1,t2,... = expected  # note"."""
    entries = []
    for raw in TAU_FIXTURE.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        note = raw.split("#", 1)[1].strip() if "#" in raw else ""
        if not line:
            continue
        lhs, rhs = line.split("=")
        vector = tuple(float(t) for t in lhs.split(","))
        entries.append((vector, float(rhs), note))
    return entries


def run_tau_regression():
    """Recompute every fixture entry: (vector, expected, computed, ok, note) tuples."""
    results = []
    for vector, expected, note in load_tau_regression():
        got = branching_factor(vector)
        results.append((vector, expected, got, abs(got - expected) <= TAU_FIXTURE_TOL, note))
    return results
