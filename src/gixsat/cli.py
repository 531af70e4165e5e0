"""Command-line front end.

Exit codes follow solver-community convention: 10 satisfiable, 20
unsatisfiable, 0 for the other commands' success. main() maps every failure
to one code: a usage error, ValueError or OSError is an input error (exit 1,
"error: <message>" on stderr); a ResourceLimitError, the --timeout
alarm included, is a resource limit (exit 2, "c resource <message>"), and so
is a MemoryError (exit 2, "c resource memory exhausted"); any other exception
is an internal error (exit 3, "c internal <Type>: <message>").
"verify" counts a solver that raises, or disagrees with the brute-force
oracle, as a mismatch and exits 3 when there is one. Output is line
oriented: "s ..." for status, "v ..." for a witness, "c key value" for
diagnostics. GIXSAT_ORACLE_LIMIT overrides the brute-force variable cap.
mitm and oracle, the modules that use numpy, are imported by the commands
that run them, so the other commands start without numpy.
"""

from __future__ import annotations

import argparse
import random
import signal
import sys
import time

from . import analysis, dpll, generator, textio
from .formula import MAX_TARGET, Formula, ResourceLimitError

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_INPUT = 1
EXIT_RESOURCE = 2
EXIT_INTERNAL = 3
# setitimer overflows a little above 9.2e9 seconds
MAX_TIMEOUT_S = 1e9
# analyze --tables: the table up to 40 takes seconds, and its cost grows
# steeply with the size (up to 80 takes over a minute)
MAX_TABLE_ELL = 40


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _alarm(signum, frame):
    raise ResourceLimitError("timeout")


def _internal(exc: Exception) -> None:
    print(f"c internal {type(exc).__name__}: {exc}", file=sys.stderr)


def _read_formula(path: str) -> Formula:
    """Parse the UTF-8 text at path, or stdin for "-"; one leading byte-order
    mark is dropped, as editors on some platforms write one."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # the codec's message names no input
        raise ValueError(f"{path}: {exc}") from None
    return textio.parse(text)


def _cmd_solve(args) -> int:
    if not 0 <= args.timeout <= MAX_TIMEOUT_S:
        raise ValueError(f"--timeout must lie in 0..{MAX_TIMEOUT_S:g} seconds, "
                         f"got {args.timeout:g}")
    if args.alpha is not None:
        if args.algo != "mitm":
            raise ValueError(f"--alpha applies to --algo mitm only, got --algo {args.algo}")
        if not 0 < args.alpha < 1:  # also rejects NaN
            raise ValueError(f"--alpha must lie strictly between 0 and 1, got {args.alpha:g}")
    formula = _read_formula(args.file)
    # imported before the alarm is set, so that it cannot stop an import
    if args.algo == "brute":
        from . import oracle
    elif args.algo == "mitm":
        from . import mitm
    if args.timeout:
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, args.timeout)
    try:
        started = time.monotonic()
        if args.algo == "brute":
            report = oracle.brute_solve(formula)
            result = dpll.SolveResult(report.sat, report.first_model)
        elif args.algo == "mitm":
            result = mitm.solve_mitm(formula, alpha=args.alpha)
        else:
            solver = getattr(dpll, f"solve_{args.algo}")
            result = solver(formula, instrument=args.stats)
        elapsed = time.monotonic() - started
    finally:
        if args.timeout:
            signal.setitimer(signal.ITIMER_REAL, 0)

    print("s SATISFIABLE" if result.sat else "s UNSATISFIABLE")
    if args.witness and result.sat:
        lits = [v if result.model[v] else -v for v in sorted(result.model)]
        print("v " + " ".join(map(str, lits + [0])))
    if args.stats:
        print(f"c time {elapsed:.3f}")
        st = result.stats
        if isinstance(st, dpll.SearchStats):
            print(f"c nodes {st.nodes_expanded}")
            print(f"c max_depth {st.max_depth}")
            print(f"c root_measure {st.measure_at_root:.4f}")
            print(f"c fixpoint_calls {st.fixpoint_calls}")
            print(f"c fixpoint_unsat {st.fixpoint_unsat}")
            print(f"c measure_checks {st.measure_checks}")
            print(f"c measure_violations {len(st.measure_violations)}")
            for tag, n in sorted(st.rule_fires.items()):
                print(f"c rule {tag} {n}")
            for tag, n in sorted(st.fallback_fires.items()):
                print(f"c fallback {tag} {n}")
            for letter, count in st.simplify_fires.items():
                print(f"c simplify {letter} {count}")
        elif args.algo == "mitm":
            print(f"c alpha {st.alpha:.6f}")
            for key in ("cover_size", "covered_vars", "complement_vars",
                        "emitted", "index_size", "sweep_count"):
                print(f"c {key} {getattr(st, key)}")
            for key in ("cover_s", "enumerate_s", "sweep_s"):
                print(f"c {key} {getattr(st, key):.6f}")
    return EXIT_SAT if result.sat else EXIT_UNSAT


def _cmd_gen(args) -> int:
    spec = generator.GenSpec(
        num_vars=args.n,
        num_clauses=args.m,
        min_len=args.min_len,
        max_len=args.max_len,
        max_target=args.max_target,
        neg_prob=args.neg_prob,
        max_repeat=args.max_repeat,
        planted=args.planted,
        seed=args.seed,
    )
    formula, hidden = generator.generate(spec)
    text = textio.serialize(formula)
    if hidden is not None:
        lits = " ".join(str(v if hidden[v] else -v) for v in sorted(hidden))
        text = f"c planted {lits}\n" + text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_analyze(args) -> int:
    if args.tau is not None:
        value = analysis.branching_factor(tuple(float(t) for t in args.tau.split(",")))
        print(f"tau({args.tau}) = {value:.6f}")
        return 0
    if args.alpha_for is not None:
        alpha, base = analysis.alpha_for(args.alpha_for)
        print(f"alpha = {alpha:.6f}")
        print(f"base = {base:.6f}")
        return 0
    if args.tables is not None:
        if not 1 <= args.tables <= MAX_TABLE_ELL:
            raise ValueError(f"--tables must lie in 1..{MAX_TABLE_ELL}, got {args.tables}")
        print("ell F(.,2) G(.,2) F(.,3) G(.,3) F(.,4) G(.,4)")
        for ell in range(1, args.tables + 1):
            row = [str(ell)]
            for h in (2, 3, 4):
                row.append(str(analysis.big_f(ell, h)))
                row.append(str(analysis.big_g(ell, h)))
            print(" ".join(row))
        return 0
    # the modes are one required group, so this is --regression
    results = analysis.run_tau_regression()
    for vector, expected, got, ok, note in results:
        vec = ",".join(f"{t:g}" for t in vector)
        print(f"{'ok' if ok else 'FAIL'} tau({vec}) = {got:.5f} expected {expected} ({note})")
    bad = sum(not ok for *_, ok, _ in results)
    print(f"c {len(results)} entries, {bad} failures")
    # the fixture ships with the package, so a failing entry is an internal fault
    return 0 if bad == 0 else EXIT_INTERNAL


def _cmd_verify(args) -> int:
    from . import mitm, oracle
    limit = oracle.env_limit()
    if not 3 <= args.n <= limit:
        raise ValueError(f"--n must lie in 3..{limit} (the oracle's cap), got {args.n}")
    if args.count < 0:
        raise ValueError(f"--count must not be negative, got {args.count}")
    rng = random.Random(args.seed)
    mismatches = 0
    for k in range(args.count):
        n = rng.randint(3, args.n)
        spec = generator.GenSpec(
            num_vars=n,
            num_clauses=rng.randint(1, max(2, (2 * n) // 3)),
            min_len=1,
            max_len=min(6, n),
            max_target=rng.randint(1, MAX_TARGET),
            neg_prob=0.5,
            max_repeat=rng.choice([1, 1, 2]),
            planted=args.planted,
            seed=rng.getrandbits(48),
        )
        formula, _ = generator.generate(spec)
        truth = oracle.brute_solve(formula).sat
        answers = {}
        for name, solve in (("dpll", dpll.solve_auto), ("mitm", mitm.solve_mitm)):
            try:
                answers[name] = solve(formula).sat
            except Exception as exc:
                _internal(exc)
                # never equal to the oracle's bool, so it counts as a mismatch
                answers[name] = type(exc).__name__
        wrong = {name: got for name, got in answers.items() if got != truth}
        if wrong:
            mismatches += 1
            print(f"c mismatch instance {k}: oracle={truth} {wrong}")
            sys.stdout.write(textio.serialize(formula))
    print(f"c verified {args.count} instances, {mismatches} mismatches")
    return 0 if mismatches == 0 else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gixsat")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide an instance")
    p.add_argument("file", help="input path, or - for stdin")
    p.add_argument("--algo", choices=["auto", "g2", "g3", "g4", "mitm", "brute"], default="auto")
    p.add_argument("--alpha", type=float, default=None, help="cover fraction for --algo mitm")
    p.add_argument("--witness", action="store_true", help="print a model when satisfiable")
    p.add_argument("--stats", action="store_true", help="print search diagnostics")
    p.add_argument("--timeout", type=float, default=0.0, help="seconds before giving up")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--min-len", type=int, default=3)
    p.add_argument("--max-len", type=int, default=5)
    p.add_argument("--max-target", type=int, default=2)
    p.add_argument("--neg-prob", type=float, default=0.5)
    p.add_argument("--max-repeat", type=int, default=1)
    p.add_argument("--planted", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="branching factors, split fractions, tables")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tau", default=None, help="comma-separated branching vector")
    mode.add_argument("--alpha-for", type=float, default=None, dest="alpha_for")
    mode.add_argument("--tables", type=int, default=None, help="print F/G tables up to this size")
    mode.add_argument("--regression", action="store_true",
                      help="run the shipped branching-factor fixture")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="cross-check solvers against brute force")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n", type=int, default=10, help="max variables per instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--planted", action="store_true", help="generate satisfiable instances only")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"c resource {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:  # its message is most often empty
        print(f"c resource memory exhausted{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        _internal(exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
