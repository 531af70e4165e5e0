"""Extended DIMACS dialect: grammar, diagnostics, round trips."""

import pytest

from conftest import C, F
from gixsat.textio import ParseError, parse, serialize


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


def test_serialize_empty():
    assert serialize(F(4)) == "p gxsat 4 0\n"


def test_serialize_sorts_and_round_trips():
    f = F(3, C(2, 3, -2, 1, 1))
    text = serialize(f)
    assert text == "p gxsat 3 1\n2 1 1 -2 3 0\n"
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
