"""Golden pins: rule selection on repeated-literal clauses and search counts.

Rule selection is pinned for a single exactly-3 clause with a repeated
literal (g3/g4 rule 9) and a single exactly-4 clause with a repeated literal
(g4 rule 11), over every occurrence profile of one to six distinct literals
with multiplicities up to the target, plus seven doubled or single literals.
It is also pinned for the other g3/g4 clause classes: an exactly-1 clause of
3 to 6 literals (rule 6), an exactly-2 clause with a doubled literal and one
to five singles or doubles (rule 7), and a single-occurrence exactly-t clause
of 2t to 2t + 3 literals (rules 8, 10 and 12). Each pinned selection's
branches must also partition the clause's models. Search counts are pinned for
seeded hard instances, since node counts are the main regression signal:
status, nodes, rule fires, simplification fires, fixpoint calls and a hash of
the model.

The data in tests/data was recorded by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py

Re-recording it changes what the solvers are held to, so only do it for an
intended behaviour change and say why.
"""

import hashlib
import json
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from conftest import check_partition
from gixsat.dpll import _is_fallback, _select, solve_auto
from gixsat.formula import Clause, Formula
from gixsat.generator import GenSpec, generate

DATA = Path(__file__).parent / "data"
SELECTION_FILE = DATA / "golden_selection.json"
SEARCH_FILE = DATA / "golden_search.json"

SEARCH_SPECS = {
    "g2-unplanted": dict(num_vars=48, num_clauses=24, min_len=5, max_len=5,
                         max_target=2, neg_prob=0.0),
    "g34-planted": dict(num_vars=38, num_clauses=19, min_len=6, max_len=8,
                        max_target=4, neg_prob=0.0, planted=True),
}
SEARCH_SEEDS = range(4)


def _profiles(target):
    """Non-increasing multiplicity tuples whose largest entry is at least 2.

    Up to six distinct literals take any multiplicity up to the target;
    seven take at most 2, reaching the widest doubled-literal shapes.
    """
    for size in range(1, 8):
        top = target if size <= 6 else 2
        for mults in combinations_with_replacement(range(top, 0, -1), size):
            if mults[0] >= 2:
                yield mults


def _class_profiles():
    """(schemes, target, multiplicities) for every pinned clause shape."""
    for target, schemes in ((3, ("g3", "g4")), (4, ("g4",))):
        for mults in _profiles(target):
            yield schemes, target, mults
    for size in range(3, 7):
        yield ("g3", "g4"), 1, (1,) * size
    for size in range(1, 6):
        for rest in combinations_with_replacement((2, 1), size):
            yield ("g3", "g4"), 2, (2,) + rest
    for target, schemes in ((2, ("g3", "g4")), (3, ("g3", "g4")), (4, ("g4",))):
        for size in range(2 * target, 2 * target + 4):
            yield schemes, target, (1,) * size


def selection_cases():
    """(scheme, target, occ pairs) for every shape in two literal orders."""
    for schemes, target, mults in _class_profiles():
        # descending multiplicities on positive literals, and ascending
        # ones with every even variable negated
        arrangements = (
            [(v, m) for v, m in enumerate(mults, 1)],
            [(v if v % 2 else -v, m) for v, m in enumerate(reversed(mults), 1)],
        )
        for occ in arrangements:
            for scheme in schemes:
                yield scheme, target, occ


def _selection_formula(target, occ):
    return Formula(len(occ), [Clause(target, dict(occ))])


def _selection_entry(scheme, target, occ):
    rule = _select(_selection_formula(target, occ), scheme)
    # recorded by kind: no branch is "unsat", one is "simp" (its actions)
    kind = ("unsat", "simp", "branch")[min(len(rule.branches), 2)]
    entry = {
        "scheme": scheme,
        "target": target,
        "occ": occ,
        "tag": rule.tag,
        "kind": kind,
        "actions": rule.branches[0] if kind == "simp" else (),
        "branches": rule.branches if kind == "branch" else (),
        "fallback": _is_fallback(rule.tag),
    }
    return json.loads(json.dumps(entry))


def _search_entry(family, seed):
    formula, _ = generate(GenSpec(seed=seed, **SEARCH_SPECS[family]))
    result = solve_auto(formula)
    stats = result.stats
    model = sorted(result.model.items()) if result.sat else None
    return {
        "family": family,
        "seed": seed,
        "status": result.status,
        "nodes_expanded": stats.nodes_expanded,
        "rule_fires": dict(sorted(stats.rule_fires.items())),
        "simplify_fires": stats.simplify_fires,
        "fixpoint_calls": stats.fixpoint_calls,
        "fixpoint_unsat": stats.fixpoint_unsat,
        "model_sha256": hashlib.sha256(json.dumps(model).encode()).hexdigest(),
    }


def _load(path):
    return json.loads(path.read_text())


def test_selection_golden_covers_every_profile():
    golden = _load(SELECTION_FILE)
    assert [(e["scheme"], e["target"], e["occ"]) for e in golden] == [
        (scheme, target, [list(p) for p in occ]) for scheme, target, occ in selection_cases()
    ]
    tags = {e["tag"] for e in golden}
    assert any(t.startswith("g3.9.twice.") for t in tags)
    assert any(t.startswith("g4.11.thrice.") for t in tags)
    assert any(t.startswith("g4.11.twice.") for t in tags)
    assert "g4.11.quad" in tags
    for tag in ("g3.6", "g4.6", "g3.7.len3", "g3.7.odd0", "g3.7.branch", "g4.7.len3",
                "g4.7.pair", "g4.7.odd0", "g4.7.branch", "g3.8.len4", "g4.8.len5",
                "g3.8.long", "g4.10.len6", "g3.10.long", "g4.12.len8", "g4.12.long"):
        assert tag in tags


def test_selection_matches_golden():
    golden = _load(SELECTION_FILE)
    mismatches = [
        (want, got)
        for want, got in zip(golden, (_selection_entry(*case) for case in selection_cases()))
        if want != got
    ]
    assert not mismatches, f"{len(mismatches)} selections changed, first: {mismatches[0]}"


def test_selection_partitions_the_models():
    # every pinned g3/g4 prescription, checked against the clause's models
    for scheme, target, occ in selection_cases():
        f = _selection_formula(target, occ)
        check_partition(f, _select(f, scheme).branches)


@pytest.mark.parametrize("family", sorted(SEARCH_SPECS))
@pytest.mark.parametrize("seed", SEARCH_SEEDS)
def test_search_counts_match_golden(family, seed):
    golden = {(e["family"], e["seed"]): e for e in _load(SEARCH_FILE)}
    assert _search_entry(family, seed) == golden[(family, seed)]


def _write_json_lines(path, entries):
    lines = ",\n".join(json.dumps(e) for e in entries)
    path.write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    _write_json_lines(SELECTION_FILE, [_selection_entry(*case) for case in selection_cases()])
    _write_json_lines(SEARCH_FILE, [_search_entry(family, seed)
                                    for family in sorted(SEARCH_SPECS) for seed in SEARCH_SEEDS])
