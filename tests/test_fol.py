"""Statement parsing and evidence sets."""

import io

import pytest

from semcomm.errors import ArityConflictError, StatementParseError
from semcomm.fol import (EvidenceSet, parse_evidence, parse_statement,
                         parse_triple_list)

from conftest import random_evidence_text


def _parse(text: str) -> EvidenceSet:
    return parse_evidence(io.StringIO(text), source_id="test")


def test_monadic_and_dyadic():
    ev = _parse("Barks(Rex)\nChases(Rex, Tom)\n")
    assert list(ev.predicates) == ["Barks", "Chases"]
    assert list(ev.entities) == ["Rex", "Tom"]
    s1, s2 = ev.statements
    assert s1.positive and s1.obj is None
    assert s2.obj == "Tom"


def test_negation_prefix():
    ev = _parse("!Barks(Rex)\n")
    assert not ev.statements[0].positive


def test_comments_and_blank_lines():
    ev = _parse("# header\n\nBarks(Rex)\n  # trailing\n")
    assert len(ev.statements) == 1


def test_duplicates_kept_in_stream_once_in_distinct():
    ev = _parse("Barks(Rex)\nBarks(Rex)\nBarks(Rex)\n")
    assert len(ev.statements) == 3
    assert len(ev.distinct_statements) == 1


def test_first_appearance_order():
    ev = _parse("Naps(Zoe)\nBarks(Abe)\nNaps(Abe)\n")
    assert list(ev.entities) == ["Zoe", "Abe"]
    assert list(ev.predicates) == ["Naps", "Barks"]


def test_arity_conflict():
    with pytest.raises(ArityConflictError):
        _parse("Barks(Rex)\nBarks(Rex, Tom)\n")


# column and message of the first offending character on line 2
_PARSE_ERRORS = {
    "Barks": (6, "expected '(', found end of line"),
    "Barks(": (7, "expected individual name, found end of line"),
    "Barks()": (7, "expected individual name, found ')'"),
    "Barks(Rex,)": (11, "expected individual name, found ')'"),
    "Barks(Rex, Tom, Sid)": (15, "expected ')', found ','"),
    "!!Barks(Rex)": (2, "expected predicate name, found '!'"),
    "Barks(Rex) extra": (12, "unexpected trailing text 'extra'"),
    "Barks(,Rex)": (7, "expected individual name, found ','"),
    "x_1,": (4, "expected '(', found ','"),
    "Barks(Rex, Tom Sid)": (16, "expected ')', found 'S'"),
    "Barks(Zo\u00eb)": (9, "expected ')', found '\u00eb'"),
}


@pytest.mark.parametrize("bad", list(_PARSE_ERRORS))
def test_parse_errors_carry_line_number(bad):
    column, message = _PARSE_ERRORS[bad]
    with pytest.raises(StatementParseError) as err:
        _parse("Hums(Ada)\n" + bad + "\n")
    assert (err.value.line, err.value.column) == (2, column)
    assert str(err.value) == f"line 2, column {column}: {message}"


def test_tabs_and_spaces_everywhere():
    ev = _parse(" \t! \tChases \t( \tRex \t, \tTom \t) \t\n")
    assert ev.normalized_text() == "!Chases(Rex, Tom)\n"


def test_parse_statement_direct():
    st_ = parse_statement("Chases(Rex, Tom)", {})
    assert st_.predicate == "Chases"
    assert st_.subject == "Rex"


def test_names_are_shared():
    # each name is one str object however often the stream repeats it
    ev = _parse("P(a)\nQ(a)\n")
    assert ev.statements[0].subject is ev.statements[1].subject


def test_normalized_text_round_trip():
    text = "Barks(Rex)\n!Chases(Rex, Tom)\nBarks(Rex)\n"
    ev = _parse(text)
    assert ev.normalized_text() == text
    again = _parse(ev.normalized_text())
    assert again.normalized_text() == text


def test_normalized_text_empty():
    assert _parse("# nothing\n").normalized_text() == ""


def test_observations_metadata():
    ev = parse_evidence(io.StringIO("Barks(Rex)\n"), observations=5812)
    assert ev.observations == 5812


def test_parse_triple_list():
    ev = parse_triple_list(["Barks(Rex)", "!Naps(Tom)"], source_id="triples")
    assert len(ev.statements) == 2
    assert ev.source_id == "triples"
    assert not ev.statements[1].positive


def test_random_evidence_reparses(rng):
    for _ in range(25):
        text = random_evidence_text(rng)
        ev = _parse(text)
        again = _parse(ev.normalized_text())
        assert again.normalized_text() == ev.normalized_text()
