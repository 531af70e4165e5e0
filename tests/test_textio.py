"""Extended DIMACS dialect: grammar, diagnostics, round trips."""

import random
import re

import pytest

from conftest import C, F
from gixsat.formula import Clause, Formula
from gixsat.generator import GenSpec, generate
from gixsat.textio import MAX_TARGET, ParseError, parse, serialize


def test_parse_basic():
    f = parse("p gxsat 3 1\n2 1 2 3 0\n")
    assert f.num_vars == 3
    assert f.clauses == [C(2, 1, 2, 3)]


def test_parse_tautological_pair_kept_verbatim():
    f = parse("p gxsat 2 1\n1 1 -1 0\n")
    assert f.clauses == [C(1, 1, -1)]


def test_parse_comments_and_crlf():
    f = parse("c a comment\r\np gxsat 2 2\r\n1 1 2 0\r\nc mid comment\r\n2 1 -2 0\r\n")
    assert len(f.clauses) == 2


def test_parse_clause_spanning_lines():
    f = parse("p gxsat 4 1\n2 1 2\n3 4 0\n")
    assert f.clauses == [C(2, 1, 2, 3, 4)]


def test_parse_multiplicity():
    f = parse("p gxsat 2 1\n2 1 1 2 0\n")
    assert f.clauses[0].occ[1] == 2


def test_error_target_too_large():
    with pytest.raises(ParseError, match="exceeds 4"):
        parse("p gxsat 2 1\n5 1 2 0\n")


def test_error_missing_header():
    with pytest.raises(ParseError, match="header"):
        parse("1 1 2 0\n")


def test_error_literal_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse("p gxsat 2 1\n1 1 3 0\n")


def test_error_missing_terminator():
    with pytest.raises(ParseError, match="terminator"):
        parse("p gxsat 2 1\n1 1 2\n")


def test_error_clause_count_mismatch():
    with pytest.raises(ParseError, match="declared 2"):
        parse("p gxsat 2 2\n1 1 2 0\n")


def test_error_reports_line_numbers():
    try:
        parse("c x\np gxsat 2 1\n7 1 2 0\n")
    except ParseError as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected a parse error")


@pytest.mark.parametrize("text, line, message", [
    # a header fault on a later line wins over a held clause fault
    ("p gxsat 2 1\n9 1 2 0\np gxsat 2 1\n", 3, "duplicate header"),
    ("p gxsat 2 1\n1 1 x 0\np gxsat 2\n", 3, "duplicate header"),
    # a held clause fault wins over a missing terminator and a wrong clause count
    ("p gxsat 2 1\n1 1 3\n", 2, "literal 3 out of range 1..2"),
    ("p gxsat 2 3\n1 1 2 0\n1 x 0\n", 3, "expected literal, got 'x'"),
])
def test_error_order(text, line, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (str(info.value), info.value.line) == (f"line {line}: {message}", line)
    assert _outcome(parse, text) == _outcome(reference_parse, text)


# int() alone reads each of these: as 10, 1 and 2
NOT_ASCII_INTEGERS = ("1_0", "+1", "\u0662")


@pytest.mark.parametrize("tok", NOT_ASCII_INTEGERS)
@pytest.mark.parametrize("text, line, message", [
    ("p gxsat 3 1\n{} 1 2 0\n", 2, "expected clause target, got {!r}"),
    ("p gxsat 3 1\n1 2 0\n1 {} 0\n", 3, "expected literal, got {!r}"),
    ("p gxsat 3 2\n1 1 2 0 1\n2 {} 0\n", 3, "expected literal, got {!r}"),
    ("p gxsat {} 1\n1 1 0\n", 1, "header counts must be integers"),
    ("c\np gxsat 3 {}\n1 1 0\n", 2, "header counts must be integers"),
])
def test_tokens_must_be_ascii_integers(tok, text, line, message):
    text, message = text.format(tok), message.format(tok)
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (str(info.value), info.value.line) == (f"line {line}: {message}", line)
    assert _outcome(parse, text) == _outcome(reference_parse, text)


def test_comment_with_other_characters_keeps_the_tokens():
    # a comment holding non-ASCII text, '_' or '+' sends the whole text
    # through the per-token check, which reads the same formula
    text = "p gxsat 3 2\n2 1 -2 3 0\n1 1 1 -3 0\n"
    for comment in ("c \u00e9t\u00e9 +1 1_0\n", "c \u0662\n"):
        assert parse(comment + text) == parse(text) == reference_parse(comment + text)


def test_serialize_empty():
    assert serialize(F(4)) == "p gxsat 4 0\n"


def test_serialize_sorts_and_round_trips():
    f = F(3, C(2, 3, -2, 1, 1))
    text = serialize(f)
    assert text == "p gxsat 3 1\n2 1 1 -2 3 0\n"
    assert parse(text) == f


def test_serialize_orders_both_signs_of_a_variable():
    # canonical order: by variable, v before -v, each repeated in place
    f = F(3, C(3, -2, 3, 2, -2, -1, 1, 3))
    text = serialize(f)
    assert text == "p gxsat 3 1\n3 1 -1 2 -2 -2 3 3 0\n"
    assert parse(text) == f


def test_serialize_parse_identity(rng):
    from conftest import random_formula

    for _ in range(150):
        f = random_formula(rng)
        if any(c.target > 4 for c in f.clauses):
            continue
        g = parse(serialize(f))
        assert g == f
        assert serialize(g) == serialize(f)


# Reference: the two-pass parser, which collects (line, token) pairs first
# and then converts and checks each token on its own.


def _integer(tok: str) -> int:
    if re.fullmatch(r"-?[0-9]+", tok, re.ASCII) is None:
        raise ValueError(tok)
    return int(tok)



def reference_parse(text: str) -> Formula:
    header = None
    tokens: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "gxsat":
                raise ParseError("header must be 'p gxsat <vars> <clauses>'", lineno)
            try:
                header = (_integer(parts[2]), _integer(parts[3]), lineno)
            except ValueError:
                raise ParseError("header counts must be integers", lineno) from None
            if header[0] < 0 or header[1] < 0:
                raise ParseError("header counts must be nonnegative", lineno)
            continue
        if header is None:
            raise ParseError("clause data before 'p gxsat' header", lineno)
        for tok in line.split():
            tokens.append((lineno, tok))
    if header is None:
        raise ParseError("missing 'p gxsat' header", len(text.splitlines()) or 1)
    num_vars, num_clauses, _ = header

    clauses = []
    pos = 0
    while pos < len(tokens):
        lineno, tok = tokens[pos]
        try:
            target = _integer(tok)
        except ValueError:
            raise ParseError(f"expected clause target, got {tok!r}", lineno) from None
        if target < 0:
            raise ParseError(f"clause target {target} is negative", lineno)
        if target > MAX_TARGET:
            raise ParseError(f"clause target {target} exceeds {MAX_TARGET}", lineno)
        pos += 1
        lits = []
        closed = False
        while pos < len(tokens):
            lineno, tok = tokens[pos]
            try:
                lit = _integer(tok)
            except ValueError:
                raise ParseError(f"expected literal, got {tok!r}", lineno) from None
            pos += 1
            if lit == 0:
                closed = True
                break
            if not (1 <= abs(lit) <= num_vars):
                raise ParseError(f"literal {lit} out of range 1..{num_vars}", lineno)
            lits.append(lit)
        if not closed:
            raise ParseError("clause missing its 0 terminator", tokens[-1][0])
        clauses.append(Clause(target, lits))
    if len(clauses) != num_clauses:
        raise ParseError(
            f"header declared {num_clauses} clauses, found {len(clauses)}",
            tokens[-1][0] if tokens else header[2],
        )
    return Formula(num_vars, clauses)



def _mutate(rng, text, num_vars):
    """text with one seeded edit: a token deleted, duplicated or replaced, a
    clause split across lines, CRLF line ends, a comment line, a missing or
    duplicated header, or a wrong clause count."""
    lines = text.split("\n")
    kind = rng.randrange(8)
    if kind < 3:  # a token deleted, duplicated or replaced
        # mostly clause tokens: a broken header hides every later error
        header_too = rng.random() < 0.1
        spots = [(i, k) for i, line in enumerate(lines) if header_too or not line.startswith("p")
                 for k in range(len(line.split()))]
        if not spots:
            return text
        i, k = rng.choice(spots)
        toks = lines[i].split()
        if kind == 0:
            del toks[k]
        elif kind == 1:
            toks.insert(k, toks[k])
        else:
            toks[k] = rng.choice(["0", "-0", "x", "5", "-1", str(num_vars + 1),
                                  str(-num_vars - 1), *NOT_ASCII_INTEGERS])
        lines[i] = " ".join(toks)
    elif kind == 3:  # a clause split across lines
        i = rng.randrange(len(lines))
        toks = lines[i].split()
        cut = rng.randint(0, len(toks))
        lines[i:i + 1] = [" ".join(toks[:cut]), " ".join(toks[cut:])]
    elif kind == 4:
        return text.replace("\n", "\r\n")
    elif kind == 5:
        lines.insert(rng.randint(0, len(lines)), rng.choice(["c note", "c", "  c 1 0"]))
    elif kind == 6:  # a missing or duplicated header
        header = lines.pop(0)
        if rng.random() < 0.5:
            lines.insert(rng.randint(0, len(lines)), header)
            lines.insert(0, header)
    else:  # a wrong clause count
        for i, line in enumerate(lines):
            parts = line.split()
            if parts[:2] == ["p", "gxsat"] and parts[-1].isdigit():
                parts[-1] = str(int(parts[-1]) + rng.choice([-1, 1]))
                lines[i] = " ".join(parts)
                break
    return "\n".join(lines)


def parse_corpus(count=2400, seed=12):
    """Seeded serialize output of GenSpec formulas, most with 1-3 mutations."""
    rng = random.Random(seed)
    texts = []
    for i in range(count):
        n = rng.randint(1, 12)
        max_len = rng.randint(1, n)
        spec = GenSpec(n, rng.randint(0, 8), min_len=rng.randint(1, max_len), max_len=max_len,
                       max_target=rng.randint(1, MAX_TARGET), neg_prob=rng.random(),
                       max_repeat=rng.randint(1, 2), planted=rng.random() < 0.5, seed=i)
        text = serialize(generate(spec)[0])
        for _ in range(rng.randint(0, 3)):
            text = _mutate(rng, text, n)
        texts.append(text)
    return texts


def _outcome(parser, text):
    try:
        f = parser(text)
    except ParseError as exc:
        return "error", str(exc), exc.line
    # the literal order of each clause is kept too: selection reads it
    return "formula", f, [list(c.occ.items()) for c in f.clauses]


def test_parse_matches_the_two_pass_reference():
    formulas, messages = 0, set()
    for text in parse_corpus():
        got = _outcome(parse, text)
        assert got == _outcome(reference_parse, text), text
        if got[0] == "formula":
            formulas += 1
        else:
            messages.add(re.sub(r"-?\d+|'.*'", "#", got[1]))
    assert formulas >= 600
    # the corpus reaches all 13 messages parse can raise
    assert len(messages) == 13, messages
