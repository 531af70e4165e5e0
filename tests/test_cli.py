"""Command-line behaviour: exit codes and line-oriented output."""

import io
import os
import subprocess
import sys

import pytest

import gixsat
from gixsat import analysis, cli, dpll, generator, mitm
from gixsat.cli import main
from gixsat.formula import Trail
from gixsat.oracle import brute_solve
from gixsat.textio import parse

SAT_FILE = "p gxsat 3 1\n2 1 2 3 0\n"
UNSAT_FILE = "p gxsat 1 1\n2 1 -1 0\n"


@pytest.fixture
def sat_path(tmp_path):
    path = tmp_path / "sat.gxsat"
    path.write_text(SAT_FILE)
    return str(path)


@pytest.fixture
def unsat_path(tmp_path):
    path = tmp_path / "unsat.gxsat"
    path.write_text(UNSAT_FILE)
    return str(path)


@pytest.mark.parametrize("algo", ["auto", "g2", "g3", "g4", "mitm", "brute"])
def test_solve_exit_codes(algo, sat_path, unsat_path, capsys):
    assert main(["solve", sat_path, "--algo", algo]) == 10
    assert "s SATISFIABLE" in capsys.readouterr().out
    assert main(["solve", unsat_path, "--algo", algo]) == 20
    assert "s UNSATISFIABLE" in capsys.readouterr().out


def test_solve_witness_line(sat_path, capsys):
    assert main(["solve", sat_path, "--witness"]) == 10
    out = capsys.readouterr().out
    vline = next(l for l in out.splitlines() if l.startswith("v "))
    lits = [int(t) for t in vline[2:].split()]
    assert lits[-1] == 0
    model = {abs(l): int(l > 0) for l in lits[:-1]}
    assert sum(model[v] for v in (1, 2, 3)) == 2


@pytest.mark.parametrize("algo", ["auto", "g2", "g3", "g4", "mitm", "brute"])
def test_solve_witness_line_without_variables(algo, tmp_path, capsys):
    # the empty model of a formula with no variables is a witness too
    path = tmp_path / "empty.gxsat"
    path.write_text("p gxsat 0 0\n")
    assert main(["solve", str(path), "--witness", "--algo", algo]) == 10
    assert capsys.readouterr().out.splitlines() == ["s SATISFIABLE", "v 0"]


def test_solve_wide_clause(tmp_path, capsys):
    # one exactly-2 clause over -1..-40: the endgame finds its one witness
    # with 1 and 2 false without filtering 2**38 product entries first
    text = "p gxsat 40 1\n2 " + " ".join(str(-v) for v in range(1, 41)) + " 0\n"
    path = tmp_path / "wide.gxsat"
    path.write_text(text)
    assert main(["solve", str(path), "--witness", "--stats"]) == 10
    out = capsys.readouterr().out
    assert "c rule g2.18 1" in out.splitlines()
    vline = next(l for l in out.splitlines() if l.startswith("v "))
    lits = [int(t) for t in vline[2:].split()]
    assert lits[-1] == 0
    assert [-l for l in lits[:-1] if l < 0] == [1, 2]


def test_solve_stats(sat_path, capsys):
    assert main(["solve", sat_path, "--stats"]) == 10
    out = capsys.readouterr().out
    assert any(l.startswith("c nodes ") for l in out.splitlines())
    assert main(["solve", sat_path, "--algo", "mitm", "--stats"]) == 10
    out = capsys.readouterr().out
    assert any(l.startswith("c cover_size ") for l in out.splitlines())


def test_solve_stats_counts_measure_violations(tmp_path, monkeypatch, capsys):
    # a constant measure never drops, so each branch g2.8 takes is a violation
    path = tmp_path / "branch.gxsat"
    path.write_text("p gxsat 4 1\n1 1 -2 -3 -4 0\n")
    monkeypatch.setattr(dpll, "measure", lambda f, scheme: 1.0)
    assert main(["solve", str(path), "--algo", "g2", "--stats"]) == 10
    lines = capsys.readouterr().out.splitlines()
    count = next(int(l.split()[2]) for l in lines if l.startswith("c measure_violations "))
    assert count >= 1


def test_solve_mitm_stats_keys(sat_path, capsys):
    assert main(["solve", sat_path, "--algo", "mitm", "--stats"]) == 10
    stats = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("c "):
            key, value = line[2:].split()
            stats[key] = float(value)
    assert set(stats) == {"time", "alpha", "cover_size", "covered_vars", "complement_vars",
                          "emitted", "index_size", "sweep_count",
                          "cover_s", "enumerate_s", "sweep_s"}
    assert stats["emitted"] >= stats["index_size"] >= 1
    assert stats["sweep_count"] >= 1
    assert all(stats[key] >= 0 for key in ("cover_s", "enumerate_s", "sweep_s"))


def test_solve_dpll_stats_keys(sat_path, capsys):
    assert main(["solve", sat_path, "--stats"]) == 10
    stats = {}
    simplify = {}
    for line in capsys.readouterr().out.splitlines():
        fields = line.split()
        if fields[0] == "c" and fields[1] == "simplify":
            simplify[fields[2]] = int(fields[3])
        elif fields[0] == "c" and fields[1] not in ("rule", "fallback"):
            stats[fields[1]] = float(fields[2])
    assert set(stats) == {"time", "nodes", "max_depth", "root_measure",
                          "fixpoint_calls", "fixpoint_unsat",
                          "measure_checks", "measure_violations"}
    assert stats["fixpoint_calls"] >= stats["nodes"] >= 1
    assert 0 <= stats["fixpoint_unsat"] <= stats["fixpoint_calls"]
    # one step: rule (g) negates the exactly-2 clause over three literals
    assert simplify == {**dict.fromkeys("abcdefgh", 0), "g": 1}


def test_solve_stats_pinned(tmp_path, capsys):
    # a 3-clause g4 formula whose only rule is one g4.11.thrice fallback;
    # every line but the wall time is deterministic
    path = tmp_path / "fallback.gxsat"
    assert main(["gen", "--n", "8", "--m", "3", "--min-len", "3", "--max-len", "7",
                 "--max-target", "4", "--neg-prob", "0.3", "--max-repeat", "3",
                 "--seed", "35", "--out", str(path)]) == 0
    assert main(["solve", str(path), "--stats"]) == 20
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("c time ")]
    assert lines == [
        "s UNSATISFIABLE",
        "c nodes 1",
        "c max_depth 0",
        "c root_measure 7.0000",
        "c fixpoint_calls 2",
        "c fixpoint_unsat 1",
        "c measure_checks 0",
        "c measure_violations 0",
        "c rule g4.11.thrice.fallback 1",
        "c fallback g4.11.thrice.fallback 1",
        "c simplify a 1",
        "c simplify b 1",
        "c simplify c 0",
        "c simplify d 0",
        "c simplify e 0",
        "c simplify f 2",
        "c simplify g 0",
        "c simplify h 2",
    ]


def test_solve_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.gxsat"
    bad.write_text("p gxsat 2 1\n9 1 2 0\n")
    assert main(["solve", str(bad)]) == 1
    assert main(["solve", str(tmp_path / "missing.gxsat")]) == 1


@pytest.mark.parametrize("error", [RuntimeError, RecursionError, KeyError, IndexError])
def test_solve_internal_error_exit_code(error, sat_path, monkeypatch, capsys):
    def broken(formula, instrument=False):
        raise error("solver broke")

    monkeypatch.setattr(dpll, "solve_auto", broken)
    assert main(["solve", sat_path]) == 3
    err = capsys.readouterr().err
    # str(KeyError("m")) quotes its message
    assert f"c internal {error.__name__}: {error('solver broke')}" in err


def test_solve_mitm_alpha_flag(sat_path):
    assert main(["solve", sat_path, "--algo", "mitm", "--alpha", "0.600823"]) == 10


def test_gen_round_trip(tmp_path, capsys):
    out_path = tmp_path / "gen.gxsat"
    assert main(["gen", "--n", "8", "--m", "5", "--max-target", "3",
                 "--seed", "7", "--out", str(out_path)]) == 0
    f = parse(out_path.read_text())
    assert f.num_vars == 8 and len(f.clauses) == 5


def test_gen_planted_comment(tmp_path, capsys):
    assert main(["gen", "--n", "6", "--m", "4", "--planted", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("c planted ")
    f = parse(out)
    assert f.num_vars == 6
    path = tmp_path / "planted.gxsat"
    path.write_text(out)
    assert main(["solve", str(path)]) == 10  # planted, so SAT


def test_analyze_tau(capsys):
    assert main(["analyze", "--tau", "2,3"]) == 0
    value = float(capsys.readouterr().out.split("=")[1])
    assert value == pytest.approx(1.3248, abs=1e-4)


def test_analyze_tau_with_a_tiny_entry(capsys):
    # the root of (1e-20, 1) satisfies x ln x = 1e20, far past 2**53
    assert main(["analyze", "--tau", "1e-20,1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tau(1e-20,1) = ")
    assert float(out.split("=")[1]) == pytest.approx(2.3636887249603e18, rel=1e-12)


def test_analyze_alpha(capsys):
    assert main(["analyze", "--alpha-for", "1.7115"]) == 0
    lines = capsys.readouterr().out.splitlines()
    alpha = float(lines[0].split("=")[1])
    base = float(lines[1].split("=")[1])
    assert alpha == pytest.approx(0.5633, abs=1e-4)
    assert base == pytest.approx(1.3536, abs=1e-4)


def test_analyze_tables(capsys):
    assert main(["analyze", "--tables", "8"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1].startswith("8 ")
    assert rows[-1].split() == ["8", "28", "28", "56", "56", "70", "70"]


def test_analyze_regression(capsys):
    assert main(["analyze", "--regression"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_verify_random(capsys):
    assert main(["verify", "--count", "40", "--n", "8", "--seed", "11"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_verify_planted_only(capsys):
    assert main(["verify", "--count", "25", "--n", "8", "--seed", "2", "--planted"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_verify_mismatch_is_an_internal_error(monkeypatch, capsys):
    def wrong(formula, instrument=False):
        return dpll.SolveResult(not brute_solve(formula).sat)

    monkeypatch.setattr(dpll, "solve_auto", wrong)
    assert main(["verify", "--count", "3", "--n", "6", "--seed", "1"]) == 3
    assert "3 mismatches" in capsys.readouterr().out


def test_verify_solver_exception_is_an_internal_error(monkeypatch, capsys):
    def broken(formula, instrument=False):
        raise RuntimeError("solver broke")

    monkeypatch.setattr(dpll, "solve_auto", broken)
    assert main(["verify", "--count", "2", "--n", "6", "--seed", "1"]) == 3
    out, err = capsys.readouterr()
    assert "2 mismatches" in out
    assert err.count("c internal RuntimeError: solver broke") == 2


def test_verify_zero_instances(capsys):
    assert main(["verify", "--count", "0"]) == 0


def _raising(exc):
    def solver(*args, **kwargs):
        raise exc
    return solver


def _alarm_fires(*args, **kwargs):
    cli._alarm(None, None)


# (argv, patch as (module, name, replacement) or None, GIXSAT_ORACLE_LIMIT, exit
# code, stderr marker); {sat} is a satisfiable file and {tmp} a directory
FAILURES = {
    "unknown-algo": (["solve", "{sat}", "--algo", "nope"], None, None, 1, "invalid choice"),
    "missing-argument": (["solve"], None, None, 1, "error:"),
    "unknown-command": (["nope"], None, None, 1, "error:"),
    "bad-option-value": (["gen", "--n", "x", "--m", "2"], None, None, 1, "invalid int"),
    "missing-file": (["solve", "{tmp}/missing.gxsat"], None, None, 1, "error: "),
    "unreadable-file": (["solve", "{tmp}"], None, None, 1, "error: "),
    "malformed-file": (["solve", "{tmp}/bad.gxsat"], None, None, 1, "error: "),
    "gen-out-missing-dir": (["gen", "--n", "5", "--m", "2", "--out", "{tmp}/no/such.gxsat"],
                            None, None, 1, "error: "),
    "gen-bad-spec": (["gen", "--n", "2", "--m", "2"], None, None, 1, "error: "),
    "verify-n-below-3": (["verify", "--n", "2"], None, None, 1, "error: --n must lie in 3..24"),
    "verify-n-above-cap": (["verify", "--n", "30"], None, None, 1, "error: --n must lie in 3..24"),
    "verify-n-above-env-cap": (["verify", "--n", "10"], None, "8", 1,
                               "error: --n must lie in 3..8"),
    "verify-negative-count": (["verify", "--count", "-1"], None, None, 1, "error: --count"),
    "verify-oracle-limit-not-int": (["verify"], None, "abc", 1, "error: GIXSAT_ORACLE_LIMIT "
                                    "must be a non-negative integer, got 'abc'"),
    "verify-oracle-limit-negative": (["verify"], None, "-5", 1, "error: GIXSAT_ORACLE_LIMIT "
                                     "must be a non-negative integer, got '-5'"),
    # int() reads each of these, as 10, 5, 2 and 7
    **{f"verify-oracle-limit-{name}": (["verify"], None, raw, 1, "error: GIXSAT_ORACLE_LIMIT "
                                       f"must be a non-negative integer, got {raw!r}")
       for name, raw in (("underscore", "1_0"), ("plus", "+5"), ("arabic-indic", "\u0662"),
                         ("spaces", " 7 "))},
    "brute-oracle-limit-not-int": (["solve", "{sat}", "--algo", "brute"], None, "abc", 1,
                                   "error: GIXSAT_ORACLE_LIMIT must be a non-negative integer"),
    "negative-timeout": (["solve", "{sat}", "--timeout", "-1"], None, None, 1,
                         "error: --timeout must lie in 0..1e+09 seconds, got -1"),
    "nan-timeout": (["solve", "{sat}", "--timeout", "nan"], None, None, 1, "error: --timeout"),
    "huge-timeout": (["solve", "{sat}", "--timeout", "1e300"], None, None, 1, "error: --timeout"),
    "alpha-with-g2": (["solve", "{sat}", "--algo", "g2", "--alpha", "0.5"], None, None, 1,
                      "error: --alpha applies to --algo mitm only, got --algo g2"),
    "alpha-with-brute": (["solve", "{sat}", "--algo", "brute", "--alpha", "7"], None, None, 1,
                         "error: --alpha applies to --algo mitm only, got --algo brute"),
    # checked before the file is read: the file does not exist
    "alpha-out-of-range": (["solve", "{tmp}/missing.gxsat", "--algo", "mitm", "--alpha", "1"],
                           None, None, 1, "error: --alpha must lie strictly between 0 and 1, got 1"),
    "nan-alpha": (["solve", "{sat}", "--algo", "mitm", "--alpha", "nan"], None, None, 1,
                  "error: --alpha must lie strictly between 0 and 1, got nan"),
    "nothing-to-analyze": (["analyze"], None, None, 1,
                           "error: one of the arguments --tau --alpha-for --tables "
                           "--regression is required"),
    "two-analyze-modes": (["analyze", "--tau", "2,3", "--tables", "2"], None, None, 1,
                          "error: argument --tables: not allowed with argument --tau"),
    "bad-tau": (["analyze", "--tau", "2,x"], None, None, 1, "error: "),
    "negative-tables": (["analyze", "--tables", "-1"], None, None, 1,
                        "error: --tables must lie in 1..40, got -1"),
    "zero-tables": (["analyze", "--tables", "0"], None, None, 1,
                    "error: --tables must lie in 1..40, got 0"),
    "tables-above-cap": (["analyze", "--tables", "41"], None, None, 1,
                         "error: --tables must lie in 1..40, got 41"),
    "nan-tau": (["analyze", "--tau", "2,nan"], None, None, 1, "error: branching vector entries"),
    "inf-tau": (["analyze", "--tau", "inf,inf"], None, None, 1,
                "error: branching vector entries must be positive and finite"),
    "one-inf-tau": (["analyze", "--tau", "1,inf"], None, None, 1,
                    "error: branching vector entries must be positive and finite"),
    "tiny-tau": (["analyze", "--tau", "1e-300,1e-300"], None, None, 1,
                 "error: branching vector entries too small"),
    "gen-negative-m": (["gen", "--n", "5", "--m", "-1"], None, None, 1,
                       "error: num_clauses must not be negative"),
    "gen-neg-prob-above-1": (["gen", "--n", "5", "--m", "2", "--neg-prob", "2"], None, None, 1,
                             "error: neg_prob must lie in [0, 1]"),
    "gen-nan-neg-prob": (["gen", "--n", "5", "--m", "2", "--neg-prob", "nan"], None, None, 1,
                         "error: neg_prob must lie in [0, 1]"),
    "gen-beyond-capacity": (["gen", "--n", "1", "--m", "1", "--min-len", "5", "--max-len", "5",
                             "--max-repeat", "2", "--neg-prob", "0"], None, None, 1,
                            "error: max_len 5 exceeds the 2 literals the spec allows"),
    "gen-beyond-capacity-both-signs": (["gen", "--n", "2", "--m", "1", "--min-len", "9",
                                        "--max-len", "9", "--max-repeat", "2"], None, None, 1,
                                       "error: max_len 9 exceeds the 8 literals the spec allows"),
    "nan-alpha-for": (["analyze", "--alpha-for", "nan"], None, None, 1, "error: base must exceed 1"),
    "inf-alpha-for": (["analyze", "--alpha-for", "inf"], None, None, 1,
                      "error: base must exceed 1 and be finite"),
    "solver-value-error": (["solve", "{sat}"], (dpll, "solve_auto", _raising(ValueError("no"))),
                           None, 1, "error: no"),
    "solver-resource-limit": (["solve", "{sat}", "--algo", "mitm"],
                              (mitm, "solve_mitm", _raising(mitm.ResourceLimitError("memory"))),
                              None, 2, "c resource memory"),
    # a MemoryError is a resource limit too, named although it carries no message
    "solver-memory-error": (["solve", "{sat}"], (dpll, "solve_auto", _raising(MemoryError())),
                            None, 2, "c resource memory exhausted\n"),
    "reconstruct-memory-error": (["solve", "{sat}", "--algo", "g4"],
                                 (Trail, "reconstruct", _raising(MemoryError())),
                                 None, 2, "c resource memory exhausted\n"),
    "solver-timeout": (["solve", "{sat}", "--algo", "g3"], (dpll, "solve_g3", _alarm_fires),
                       None, 2, "c resource timeout"),
    # past the input checks, a ValueError is the solver's own fault: here a
    # rule that links variable 1 twice, and a sweep that fails
    "dpll-internal-value-error": (["solve", "{sat}"],
                                  (dpll, "_select_g2", lambda f: dpll.Rule(
                                      "g2.bug", ((("link", 1, 2), ("link", 1, 3)),))),
                                  None, 3, "c internal RuntimeError: internal error: "
                                  "variable 1 already eliminated"),
    "mitm-internal-value-error": (["solve", "{sat}", "--algo", "mitm"],
                                  (mitm, "_sweep", _raising(ValueError("sweep broke"))),
                                  None, 3, "c internal RuntimeError: internal error: sweep broke"),
    "solver-runtime-error": (["solve", "{sat}"], (dpll, "solve_auto", _raising(RuntimeError("x"))),
                             None, 3, "c internal RuntimeError: x"),
    "solver-key-error": (["solve", "{sat}", "--algo", "g2"],
                         (dpll, "solve_g2", _raising(KeyError(2))), None, 3, "c internal KeyError: 2"),
    "gen-internal-error": (["gen", "--n", "5", "--m", "2"],
                           (generator, "generate", _raising(RuntimeError("gen broke"))),
                           None, 3, "c internal RuntimeError: gen broke"),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failure_exit_codes(case, sat_path, tmp_path, monkeypatch, capsys):
    argv, patch, oracle_limit, code, marker = FAILURES[case]
    (tmp_path / "bad.gxsat").write_text("p gxsat 2 1\n9 1 2 0\n")
    argv = [a.format(sat=sat_path, tmp=tmp_path) for a in argv]
    if patch is not None:
        monkeypatch.setattr(*patch)
    if oracle_limit is None:
        monkeypatch.delenv("GIXSAT_ORACLE_LIMIT", raising=False)
    else:
        monkeypatch.setenv("GIXSAT_ORACLE_LIMIT", oracle_limit)
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse leaves through sys.exit
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    assert marker in err
    assert "Traceback" not in err + out


def _failing_fixture():
    return [((2.0, 3.0), "1.5", analysis.branching_factor((2.0, 3.0)), False, "wrong on purpose")]


def test_analyze_regression_failure_is_an_internal_error(monkeypatch, capsys):
    # the fixture ships with the package, so a failing entry is an internal fault
    monkeypatch.setattr(analysis, "run_tau_regression", _failing_fixture)
    assert main(["analyze", "--regression"]) == 3
    out = capsys.readouterr().out
    assert "FAIL tau(2,3)" in out and "1 failures" in out


def _run_cli(argv, stdin=None):
    src = os.path.dirname(os.path.dirname(gixsat.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("GIXSAT_ORACLE_LIMIT", None)
    return subprocess.run([sys.executable, "-m", "gixsat.cli", *argv], env=env, input=stdin,
                          capture_output=True, text=True, timeout=60)


def test_failure_exit_codes_in_a_process():
    for argv in (["verify", "--n", "2"], ["solve", "--algo", "nope", "-"]):
        proc = _run_cli(argv)
        assert proc.returncode == 1
        assert "error: " in proc.stderr and "Traceback" not in proc.stderr


def test_timeout_alarm_in_a_process(tmp_path):
    # brute force over 24 variables takes seconds; the real interval timer
    # stops it after 0.05 s
    path = tmp_path / "n24.gxsat"
    path.write_text(_run_cli(["gen", "--n", "24", "--m", "12", "--seed", "5"]).stdout)
    proc = _run_cli(["solve", str(path), "--algo", "brute", "--timeout", "0.05"])
    assert proc.returncode == 2
    assert proc.stderr == "c resource timeout\n"


def test_core_modules_do_not_load_numpy():
    # only mitm and oracle use numpy; the package's oracle names and the
    # commands that run those modules load it on first use
    src = os.path.dirname(os.path.dirname(gixsat.__file__))
    code = ("import sys, gixsat, gixsat.dpll, gixsat.textio, gixsat.generator, gixsat.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')[:3])")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_solve_reads_stdin_in_a_process():
    planted = _run_cli(["gen", "--n", "12", "--m", "8", "--planted", "--seed", "3"]).stdout
    proc = _run_cli(["solve", "-"], stdin=planted)
    assert proc.returncode == 10
    assert proc.stdout.splitlines() == ["s SATISFIABLE"]


def _input(source, data, tmp_path, monkeypatch):
    """The solve argument that reads data: a file path, or - with data on stdin."""
    if source == "-":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        return "-"
    path = tmp_path / "in.gxsat"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("source", ["file", "-"])
def test_solve_accepts_a_byte_order_mark(source, tmp_path, monkeypatch, capsys):
    arg = _input(source, b"\xef\xbb\xbf" + SAT_FILE.encode(), tmp_path, monkeypatch)
    assert main(["solve", arg]) == 10
    assert capsys.readouterr().out == "s SATISFIABLE\n"


@pytest.mark.parametrize("source", ["file", "-"])
def test_input_that_is_not_utf8_is_named(source, tmp_path, monkeypatch, capsys):
    arg = _input(source, b"\xff" + SAT_FILE.encode(), tmp_path, monkeypatch)
    assert main(["solve", arg]) == 1
    assert capsys.readouterr().err == (f"error: {arg}: 'utf-8' codec can't decode byte 0xff "
                                       "in position 0: invalid start byte\n")
