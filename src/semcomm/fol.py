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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ArityConflictError, StatementParseError


@dataclass(frozen=True, slots=True)
class Entity:
    """A named individual."""

    name: str


@dataclass(frozen=True, slots=True)
class Predicate:
    """A named relation of fixed arity (1 or 2)."""

    name: str
    arity: int


@dataclass(frozen=True, slots=True)
class AtomicStatement:
    """One polarized atomic fact."""

    predicate: Predicate
    subject: Entity
    obj: Entity | None
    positive: bool = True

    def atom_key(self) -> tuple:
        """Identity of the unpolarized atom (for contradiction checks)."""
        return (self.predicate.name, self.subject.name, self.obj.name if self.obj else None)

    def text(self) -> str:
        """Canonical serialization; parsing it reproduces the statement."""
        neg = "" if self.positive else "!"
        if self.obj is None:
            return f"{neg}{self.predicate.name}({self.subject.name})"
        return f"{neg}{self.predicate.name}({self.subject.name}, {self.obj.name})"


class Vocabulary:
    """Interning registry for predicates and entities.

    Names register on first sight; a predicate reused with a different
    arity raises ArityConflictError.
    """

    def __init__(self) -> None:
        self._predicates: dict[str, Predicate] = {}
        self._entities: dict[str, Entity] = {}

    def predicate(self, name: str, arity: int) -> Predicate:
        known = self._predicates.get(name)
        if known is None:
            known = Predicate(name, arity)
            self._predicates[name] = known
        elif known.arity != arity:
            raise ArityConflictError(name, known.arity, arity)
        return known

    def entity(self, name: str) -> Entity:
        known = self._entities.get(name)
        if known is None:
            known = Entity(name)
            self._entities[name] = known
        return known


# Each part is optional and nested in the one before it, so the match stops
# where the first missing part belongs; the last group it matched names
# what the statement needed next.  A comma with no name after it stops the
# match before the closing parenthesis.
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_STATEMENT = re.compile(rf"""
    [ \t]* (?P<neg>!)? [ \t]*
    (?: (?P<pred>{NAME.pattern}) [ \t]*
      (?: (?P<open>\() [ \t]*
        (?: (?P<subj>{NAME.pattern}) [ \t]*
          (?: , [ \t]* (?: (?P<obj>{NAME.pattern}) [ \t]* | (?P<no_obj>) ) )?
          (?(no_obj) | (?: (?P<close>\)) [ \t]* )? )
        )?
      )?
    )?
""", re.VERBOSE)
_EXPECTED_AFTER = {None: "predicate name", "neg": "predicate name", "pred": "'('",
                   "open": "individual name", "no_obj": "individual name",
                   "subj": "')'", "obj": "')'"}


def parse_statement(text: str, vocab: Vocabulary, line_no: int = 1) -> AtomicStatement:
    """Parse one statement line (comments already stripped)."""
    m = _STATEMENT.match(text)
    end = m.end()
    if m.lastgroup != "close":
        found = repr(text[end]) if end < len(text) else "end of line"
        raise StatementParseError(f"expected {_EXPECTED_AFTER[m.lastgroup]}, found {found}",
                                  line=line_no, column=end + 1)
    if end < len(text):
        raise StatementParseError(f"unexpected trailing text {text[end:]!r}",
                                  line=line_no, column=end + 1)
    pred_name, subj_name, obj_name = m.group("pred", "subj", "obj")
    pred = vocab.predicate(pred_name, 1 if obj_name is None else 2)
    subj = vocab.entity(subj_name)
    obj = vocab.entity(obj_name) if obj_name is not None else None
    return AtomicStatement(pred, subj, obj, m["neg"] is None)


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


@dataclass(frozen=True)
class EvidenceSet:
    """An ordered stream of parsed statements plus its vocabulary."""

    statements: tuple[AtomicStatement, ...]
    vocab: Vocabulary
    source_id: str = "evidence"
    observations: int | None = None  # optional declared evidence volume

    # each index is built on first use; all keep first-appearance order

    @cached_property
    def distinct_statements(self) -> tuple[AtomicStatement, ...]:
        return tuple(dict.fromkeys(self.statements))

    @cached_property
    def entities(self) -> tuple[Entity, ...]:
        return tuple(dict.fromkeys(ent for st in self.distinct_statements
                                   for ent in (st.subject, st.obj) if ent is not None))

    @cached_property
    def predicates(self) -> tuple[Predicate, ...]:
        return tuple(dict.fromkeys(st.predicate for st in self.distinct_statements))

    def normalized_text(self) -> str:
        """Canonical file image: one statement per line, stream order kept."""
        if not self.statements:
            return ""
        return "\n".join(st.text() for st in self.statements) + "\n"


def parse_evidence(source, vocab: Vocabulary | None = None, source_id: str | None = None,
                   observations: int | None = None) -> EvidenceSet:
    """Parse an evidence stream (path, open text file, or iterable of lines)."""
    vocab = vocab or Vocabulary()
    if source_id is None:
        source_id = Path(source).stem if isinstance(source, (str, Path)) else "evidence"
    statements: list[AtomicStatement] = []
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        statements.append(parse_statement(body.rstrip("\n"), vocab, line_no))
    return EvidenceSet(tuple(statements), vocab, source_id, observations)


def parse_triple_list(triples: Iterable[str], vocab: Vocabulary | None = None,
                      source_id: str = "evidence", observations: int | None = None) -> EvidenceSet:
    """Permissive list-of-strings form: each item is one statement."""
    vocab = vocab or Vocabulary()
    statements = [parse_statement(t, vocab, i + 1) for i, t in enumerate(triples)]
    return EvidenceSet(tuple(statements), vocab, source_id, observations)
