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

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ArityConflictError, StatementParseError

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


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


class _Scanner:
    def __init__(self, text: str, line_no: int):
        self.text = text
        self.pos = 0
        self.line_no = line_no

    def error(self, message: str) -> StatementParseError:
        return StatementParseError(message, line=self.line_no, column=self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            got = repr(self.peek()) if self.peek() else "end of line"
            raise self.error(f"expected {ch!r}, found {got}")
        self.pos += 1

    def ident(self, what: str) -> str:
        if self.peek() not in _IDENT_START:
            got = repr(self.peek()) if self.peek() else "end of line"
            raise self.error(f"expected {what}, found {got}")
        start = self.pos
        while self.peek() in _IDENT_CONT:
            self.pos += 1
        return self.text[start : self.pos]


def parse_statement(text: str, vocab: Vocabulary, line_no: int = 1) -> AtomicStatement:
    """Parse one statement line (comments already stripped)."""
    sc = _Scanner(text, line_no)
    sc.skip_ws()
    positive = True
    if sc.peek() == "!":
        positive = False
        sc.pos += 1
        sc.skip_ws()
    pred_name = sc.ident("predicate name")
    sc.skip_ws()
    sc.expect("(")
    sc.skip_ws()
    subj_name = sc.ident("individual name")
    sc.skip_ws()
    obj_name = None
    if sc.peek() == ",":
        sc.pos += 1
        sc.skip_ws()
        obj_name = sc.ident("individual name")
        sc.skip_ws()
    sc.expect(")")
    sc.skip_ws()
    if sc.peek():
        raise sc.error(f"unexpected trailing text {sc.text[sc.pos:]!r}")

    arity = 1 if obj_name is None else 2
    pred = vocab.predicate(pred_name, arity)
    subj = vocab.entity(subj_name)
    obj = vocab.entity(obj_name) if obj_name is not None else None
    return AtomicStatement(pred, subj, obj, positive)


def _iter_lines(source) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
    else:
        yield from source


@dataclass(frozen=True)
class EvidenceSet:
    """An ordered stream of parsed statements plus its vocabulary."""

    statements: tuple[AtomicStatement, ...]
    vocab: Vocabulary
    source_id: str = "evidence"
    observations: int | None = None  # optional declared evidence volume

    @property
    def entities(self) -> tuple[Entity, ...]:
        seen: dict[Entity, None] = {}
        for st in self.statements:
            seen.setdefault(st.subject)
            if st.obj is not None:
                seen.setdefault(st.obj)
        return tuple(seen)

    @property
    def predicates(self) -> tuple[Predicate, ...]:
        seen: dict[Predicate, None] = {}
        for st in self.statements:
            seen.setdefault(st.predicate)
        return tuple(seen)

    @property
    def distinct_statements(self) -> tuple[AtomicStatement, ...]:
        seen: dict[AtomicStatement, None] = {}
        for st in self.statements:
            seen.setdefault(st)
        return tuple(seen)

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
