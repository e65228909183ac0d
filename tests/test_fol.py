"""Statement parsing and evidence sets."""

import inspect
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcomm.errors import ArityConflictError, StatementParseError, clip
from semcomm.fol import (AtomicStatement, EvidenceSet, parse_evidence, parse_statement,
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
    # a manifest's declared volume stays on its Story; parsed evidence
    # holds the statements and a source id, nothing else
    ev = parse_evidence(io.StringIO("Barks(Rex)\n"))
    assert list(inspect.signature(EvidenceSet).parameters) == ["statements", "source_id"]
    assert vars(ev) == {"statements": ev.statements, "source_id": "evidence"}
    with pytest.raises(TypeError):
        parse_evidence(io.StringIO("Barks(Rex)\n"), observations=5812)
    with pytest.raises(TypeError):
        parse_triple_list(["Barks(Rex)"], observations=5812)


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


# --- the strict grammar against the diagnostic parser ------------------

# the parser as it was before the strict grammar decided each line: one
# diagnostic match per line, after the comment and newline are cut off
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_REFERENCE = re.compile(rf"""
    [ \t]* (?P<neg>!)? [ \t]*
    (?: (?P<pred>{_NAME}) [ \t]*
      (?: (?P<open>\() [ \t]*
        (?: (?P<subj>{_NAME}) [ \t]*
          (?: , [ \t]* (?: (?P<obj>{_NAME}) [ \t]* | (?P<no_obj>) ) )?
          (?(no_obj) | (?: (?P<close>\)) [ \t]* )? )
        )?
      )?
    )?
""", re.VERBOSE)
_EXPECTED = {None: "predicate name", "neg": "predicate name", "pred": "'('",
             "open": "individual name", "no_obj": "individual name",
             "subj": "')'", "obj": "')'"}


def _reference_statement(text, arities, line_no):
    m = _REFERENCE.match(text)
    end = m.end()
    if m.lastgroup != "close":
        found = repr(text[end]) if end < len(text) else "end of line"
        raise StatementParseError(f"expected {_EXPECTED[m.lastgroup]}, found {found}",
                                  line=line_no, column=end + 1)
    if end < len(text):
        raise StatementParseError(f"unexpected trailing text {clip(repr(text[end:]))}",
                                  line=line_no, column=end + 1)
    pred, subj, obj = m.group("pred", "subj", "obj")
    arity = 1 if obj is None else 2
    seen = arities.setdefault(pred, arity)
    if seen != arity:
        raise ArityConflictError(pred, seen, arity)
    return AtomicStatement(pred, subj, obj, m["neg"] is None)


def _reference_evidence(lines):
    arities, statements = {}, []
    for line_no, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            statements.append(_reference_statement(body.rstrip("\n"), arities, line_no))
    return statements


def _outcome(parse):
    """What a parse gives: its statements, or its error in full."""
    try:
        return list(parse())
    except StatementParseError as exc:
        return ("parse error", str(exc), exc.line, exc.column)
    except ArityConflictError as exc:
        return ("arity error", str(exc))


_ALPHABET = "abPQ_09!(),# \t\r\n\u00eb"


@st.composite
def _line(draw):
    """A well-formed line, then edited at up to three places."""
    def blank():
        return draw(st.sampled_from(["", " ", "\t", " \t "]))

    # predicate names carry their arity, so a conflict needs an edit
    dyadic = draw(st.booleans())
    pred = draw(st.sampled_from(["R", "b_1"] if dyadic else ["P", "_x9"]))
    args = draw(st.sampled_from(["a", "Zo", "x0"])) + blank()
    if dyadic:
        args += "," + blank() + draw(st.sampled_from(["a", "B_2"])) + blank()
    line = (blank() + draw(st.sampled_from(["", "!"])) + blank() + pred + blank() + "("
            + blank() + args + ")" + blank() + draw(st.sampled_from(["", "#", "# P(a)", " #!"]))
            + draw(st.sampled_from(["\n", "\n", "", "\r", "\r\n", "\n\n"])))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(line)))
        cut = draw(st.integers(0, 2))
        line = line[:at] + draw(st.sampled_from(["", *_ALPHABET])) + line[at + cut:]
    return line


_LINES = st.lists(st.one_of(_line(), st.text(alphabet=_ALPHABET, max_size=24)), max_size=6)


def _assert_parsed_alike(lines):
    # lines as an iterable may hold several newlines or none; the text of
    # the same lines is split at each newline
    want = _outcome(lambda: _reference_evidence(lines))
    assert _outcome(lambda: parse_evidence(lines).statements) == want
    text = "".join(lines)
    want = _outcome(lambda: _reference_evidence(io.StringIO(text)))
    assert _outcome(lambda: _parse(text).statements) == want
    # a JSON item is a bare statement: a comment or newline is an error
    for line in lines:
        want = _outcome(lambda: [_reference_statement(line, {}, 3)])
        assert _outcome(lambda: [parse_statement(line, {}, 3)]) == want


@settings(max_examples=400, deadline=None)
@given(_LINES)
def test_strict_grammar_parses_as_the_diagnostic_parser(lines):
    _assert_parsed_alike(lines)


@pytest.mark.parametrize("line", ["P(a)\n", " !_x9 (\tZo ) # P(a)\n", "R(a, B_2)",
                                  "\t!b_1( x0 ,a)\t#!\n"])
def test_strict_grammar_on_every_one_character_edit(line):
    for at in range(len(line) + 1):
        edits = [line[:at] + line[at + 1:]]
        for ch in _ALPHABET:
            edits += [line[:at] + ch + line[at:], line[:at] + ch + line[at + 1:]]
        for edited in edits:
            _assert_parsed_alike(["P(a)\n", edited, "R(a, a)\n"])
