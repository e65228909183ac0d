"""Atomic relational statements and evidence files.

The evidence format is line-oriented.  Each non-empty line holds one
statement: ``Pred(A)`` or ``Pred(A, B)``, optionally negated with a
leading ``!``.  ``#`` starts a comment that runs to the end of the line;
blank lines are skipped.  Statement order is the stream order used by
the coder; duplicates are legal and kept (they are flagged, and later
deduplicated for kind assignment only).

Names (predicates and individuals) share one lexical shape:
``[A-Za-z_][A-Za-z0-9_]*``.  A predicate's arity is fixed by its first
occurrence; later use with a different arity is an error.

An ``EvidenceSet`` holds the statements and a source id, nothing else: a
corpus manifest's declared evidence volume stays with its ``Story``.

One strict regular expression of the grammar decides each line: a match
gives the statement's fields.  A diagnostic expression runs only on the
lines it rejects, which are blank, comment-only or wrong, and explains a
wrong one as a ``StatementParseError`` placed at its first bad character.
"""

from __future__ import annotations

import re
import sys
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import ArityConflictError, StatementParseError, clip


class AtomicStatement(NamedTuple):
    """One polarized atomic fact over bare names."""

    predicate: str
    subject: str
    obj: str | None
    positive: bool = True

    def text(self) -> str:
        """Canonical serialization; parsing it reproduces the statement."""
        neg = "" if self.positive else "!"
        if self.obj is None:
            return f"{neg}{self.predicate}({self.subject})"
        return f"{neg}{self.predicate}({self.subject}, {self.obj})"


def check_arity(arities: dict[str, int], predicate: str, arity: int) -> None:
    """Hold a predicate to the arity of its first use."""
    seen = arities.setdefault(predicate, arity)
    if seen != arity:
        raise ArityConflictError(predicate, seen, arity)


NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# one line: negation, predicate, subject, optional object, then the tail
# (group 5), an optional comment and the newline
_STRICT = re.compile(rf"[ \t]*(!?)[ \t]*({NAME.pattern})[ \t]*\([ \t]*({NAME.pattern})[ \t]*"
                     rf"(?:,[ \t]*({NAME.pattern})[ \t]*)?\)[ \t]*((?:#.*)?\n?)")
# The diagnostic grammar, compiled (and cached by re) on first use, so an
# import does not pay for it.  Each part is optional and nested in the one
# before it, so the match stops where the first missing part belongs; the
# last group it matched names what the statement needed next.  A comma with
# no name after it stops the match before the closing parenthesis.
_STATEMENT = rf"""
    [ \t]* (?P<neg>!)? [ \t]*
    (?: (?P<pred>{NAME.pattern}) [ \t]*
      (?: (?P<open>\() [ \t]*
        (?: (?P<subj>{NAME.pattern}) [ \t]*
          (?: , [ \t]* (?: (?P<obj>{NAME.pattern}) [ \t]* | (?P<no_obj>) ) )?
          (?(no_obj) | (?: (?P<close>\)) [ \t]* )? )
        )?
      )?
    )?
"""
_EXPECTED_AFTER = {None: "predicate name", "neg": "predicate name", "pred": "'('",
                   "open": "individual name", "no_obj": "individual name",
                   "subj": "')'", "obj": "')'"}


def _diagnose(text: str, line_no: int) -> tuple[str | None, str, str, str | None]:
    """The (negation, predicate, subject, object) fields of ``text``, which
    the strict grammar rejected, or the error at its first wrong character.

    It can still accept: an item of a line iterable may hold a newline
    before its comment, or several at its end, which the strict grammar
    rejects.
    """
    m = re.match(_STATEMENT, text, re.VERBOSE)
    end = m.end()
    if m.lastgroup != "close":
        found = repr(text[end]) if end < len(text) else "end of line"
        raise StatementParseError(f"expected {_EXPECTED_AFTER[m.lastgroup]}, found {found}",
                                  line=line_no, column=end + 1)
    if end < len(text):
        raise StatementParseError(f"unexpected trailing text {clip(repr(text[end:]))}",
                                  line=line_no, column=end + 1)
    return m.group("neg", "pred", "subj", "obj")


def parse_statement(text: str, arities: dict[str, int], line_no: int = 1) -> AtomicStatement:
    """Parse one statement line (comments already stripped).

    ``arities`` maps each predicate seen so far to its arity.  Names are
    interned, so a long stream holds each name once.
    """
    m = _STRICT.fullmatch(text)
    # a bare statement has no tail: a comment or newline here is an error
    neg, pred, subj, obj = (m.groups()[:4] if m is not None and not m[5]
                            else _diagnose(text, line_no))
    pred = sys.intern(pred)
    check_arity(arities, pred, 1 if obj is None else 2)
    return tuple.__new__(AtomicStatement, (pred, sys.intern(subj), obj and sys.intern(obj),
                                           not neg))


def _iter_lines(source) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                yield from fh
        except UnicodeDecodeError as exc:
            raise utf8_error(Path(source)) from exc
    else:
        yield from source


def utf8_error(path: Path) -> StatementParseError:
    """Parse error placed at the first bytes of a file that are not UTF-8."""
    # the text reader decodes ahead of the line it yields, so decode again
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        return StatementParseError(f"{path}: not UTF-8 text", head.count("\n") + 1,
                                   len(head) - head.rfind("\n"))
    return StatementParseError(f"{path}: not UTF-8 text")


class EvidenceSet:
    """An ordered stream of parsed statements.  Equal only to itself."""

    def __init__(self, statements: tuple[AtomicStatement, ...],
                 source_id: str = "evidence"):
        self.statements = statements
        self.source_id = source_id

    # each index is built on first use; all keep first-appearance order

    @cached_property
    def distinct_statements(self) -> tuple[AtomicStatement, ...]:
        return tuple(dict.fromkeys(self.statements))

    @cached_property
    def entities(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(ent for st in self.distinct_statements
                                   for ent in (st.subject, st.obj) if ent is not None))

    @cached_property
    def predicates(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(st.predicate for st in self.distinct_statements))

    def normalized_text(self) -> str:
        """Canonical file image: one statement per line, stream order kept."""
        if not self.statements:
            return ""
        return "\n".join(st.text() for st in self.statements) + "\n"


def parse_evidence(source, source_id: str | None = None) -> EvidenceSet:
    """Parse an evidence stream (path, open text file, or iterable of lines)."""
    arities: dict[str, int] = {}
    if source_id is None:
        source_id = Path(source).stem if isinstance(source, (str, Path)) else "evidence"
    statements: list[AtomicStatement] = []
    # parse_statement's steps, inlined: this loop runs once per line, and
    # tuple.__new__ skips the named tuple's Python-level __new__
    match, intern, new, append = _STRICT.fullmatch, sys.intern, tuple.__new__, statements.append
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        m = match(raw)
        if m is not None:
            neg, pred, subj, obj, _ = m.groups()
        else:
            body = raw.split("#", 1)[0]
            if not body.strip():
                continue
            neg, pred, subj, obj = _diagnose(body.rstrip("\n"), line_no)
        pred = intern(pred)
        check_arity(arities, pred, 1 if obj is None else 2)
        append(new(AtomicStatement, (pred, intern(subj), obj and intern(obj), not neg)))
    return EvidenceSet(tuple(statements), source_id)


def parse_triple_list(triples: Iterable[str], source_id: str = "evidence") -> EvidenceSet:
    """Permissive list-of-strings form: each item is one statement."""
    arities: dict[str, int] = {}
    statements = [parse_statement(t, arities, i + 1) for i, t in enumerate(triples)]
    return EvidenceSet(tuple(statements), source_id)
