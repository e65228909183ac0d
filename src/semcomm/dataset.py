"""Story corpus loading: manifest, paired text/evidence files, formats.

A corpus directory holds a ``manifest.json`` naming each story's English
text file, its statement-stream file, and optionally the evidence volume
the stream stands in for (``observations``).  That count stays on the
``Story``: parsing never sees it, and only ``analyze`` reads it, to
rescale the evidence summary.  Statement files come in the
one-statement-per-line format or as a JSON list of triples; which one
was used is recorded so reports can say how the evidence was read.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .errors import StatementParseError, clip
from .fol import (AtomicStatement, EvidenceSet, parse_evidence, parse_triple_list,
                  utf8_error)


class Story(NamedTuple):
    """One corpus entry: paths plus the declared evidence volume."""

    story_id: str
    text_path: Path
    evidence_path: Path
    observations: int | None

    def read_text(self) -> bytes:
        return self.text_path.read_bytes()


def _statement_from_item(item) -> str:
    """One permissive JSON triple -> statement text."""
    if isinstance(item, str):
        return item
    if isinstance(item, dict):
        pred = item.get("predicate")
        subj = item.get("subject")
        obj = item.get("object")
        positive = item.get("positive", True)
    elif isinstance(item, (list, tuple)) and 2 <= len(item) <= 4:
        pred, subj = item[0], item[1]
        obj = item[2] if len(item) >= 3 else None
        positive = item[3] if len(item) == 4 else True
    else:
        raise StatementParseError(f"unrecognized triple item {clip(repr(item))}")
    if not isinstance(pred, str) or not isinstance(subj, str):
        raise StatementParseError(f"triple item {clip(repr(item))} needs string names")
    # a JSON bool only: by truthiness the string "false" would read as true
    if not isinstance(positive, bool):
        raise StatementParseError(f"triple item {clip(repr(item))} has a "
                                  f"non-boolean polarity {clip(repr(positive))}")
    if obj is not None and not isinstance(obj, str):
        raise StatementParseError(f"triple item {clip(repr(item))} has a non-string object")
    return AtomicStatement(pred, subj, obj, positive).text()


def load_evidence(path: str | Path) -> tuple[EvidenceSet, str]:
    """Read a statement file; returns the evidence and the format used."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise utf8_error(path) from exc
        except json.JSONDecodeError as exc:
            raise StatementParseError(f"{path}: not JSON ({exc.msg})",
                                      exc.lineno, exc.colno) from exc
        except RecursionError as exc:
            raise StatementParseError(f"{path}: JSON nested too deeply") from exc
        except ValueError as exc:  # an integer past the interpreter's digit limit
            raise StatementParseError(f"{path}: not JSON ({exc})") from exc
        if isinstance(payload, dict):
            payload = payload.get("triples", payload.get("statements"))
        if not isinstance(payload, list):
            raise StatementParseError(
                f"{path}: JSON evidence must be a list of triples")
        lines = [_statement_from_item(item) for item in payload]
        return parse_triple_list(lines, source_id=path.stem), "json-triples"
    return parse_evidence(path), "line"


def load_manifest(directory: str | Path) -> list[Story]:
    """Read a corpus directory's manifest into Story entries, in order."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no manifest.json in {directory}")
    try:
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    except RecursionError as exc:
        raise ValueError(f"{manifest_path}: JSON nested too deeply") from exc
    entries = payload.get("stories") if isinstance(payload, dict) else payload
    if not isinstance(entries, list):
        raise ValueError(f'{manifest_path} holds no "stories" list')
    stories = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{manifest_path}: entry {i + 1} is not an object")
        story_id = entry.get("id", f"story{i + 1}")
        # the id names the story's report and container files, so it must
        # be a string that names a file inside the output directory
        if (not isinstance(story_id, str) or story_id in ("", ".", "..")
                or any(ch in story_id for ch in "/\\\0")):
            raise ValueError(f"{manifest_path}: story id {clip(repr(story_id))} "
                             "is not a plain file name")
        if any(st.story_id == story_id for st in stories):
            raise ValueError(f"{manifest_path}: story id {clip(repr(story_id))} is repeated")
        entry_name = f"manifest entry {clip(story_id)}"
        if not all(isinstance(entry.get(key), str) for key in ("text", "evidence")):
            raise ValueError(f"{entry_name} names no text or evidence file")
        text_path = directory / entry["text"]
        evidence_path = directory / entry["evidence"]
        for p in (text_path, evidence_path):
            if not p.is_file():
                raise FileNotFoundError(f"{entry_name}: missing {p}")
        obs = entry.get("observations")
        # a JSON integer; bool is an int subclass, and floats would truncate
        if obs is not None and (type(obs) is not int or obs < 1):
            raise ValueError(f"{entry_name}: observations must be a positive "
                             f"integer, not {clip(repr(obs))}")
        stories.append(Story(story_id, text_path, evidence_path, obs))
    if not stories:
        raise ValueError(f"{manifest_path} lists no stories")
    return stories
