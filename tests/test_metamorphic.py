"""Metamorphic relations: what the measures and the container's prices
must not depend on.

The measures are functions of an exchangeable evidence summary, the
individuals' kind counts, so they cannot depend on what the predicates
and entities are called, on the order of the statements (Carnap 1952), or
on each statement being written r times, which leaves every individual's
kind as it was.  The container's ideal section lengths are functions of
symbol counts alone, so they cannot depend on the order of the statements;
the payload's, priced from how often each distinct statement occurs,
cannot depend on the names either.  Each relation is checked with ``==``,
on the seven stories and on random evidence.
"""

import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from semcomm.cli import main
from semcomm.fol import AtomicStatement, EvidenceSet, parse_evidence
from semcomm.lossless import lossless_encode_report

from conftest import DATA_DIR, random_evidence_text

SOURCES = [*(f"story{i}" for i in range(1, 8)), "random"]
_NAME = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,9}", fullmatch=True)


def _evidence(data, source: str) -> EvidenceSet:
    if source == "random":
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        text = random_evidence_text(rng, max_ents=10, max_stmts=80)
        return parse_evidence(io.StringIO(text), source_id="random")
    return parse_evidence(DATA_DIR / f"{source}.fol")


def _shuffled(data, ev: EvidenceSet) -> EvidenceSet:
    return EvidenceSet(tuple(data.draw(st.permutations(ev.statements),
                                       label="order")))


def _renamed(data, ev: EvidenceSet) -> EvidenceSet:
    """The evidence under one bijection on predicate names and one on
    entity names; each predicate keeps its arity."""
    preds, ents = ev.predicates, ev.entities
    pred_map = dict(zip(preds, data.draw(st.lists(
        _NAME, min_size=len(preds), max_size=len(preds), unique=True),
        label="predicates")))
    ent_map = dict(zip(ents, data.draw(st.lists(
        _NAME, min_size=len(ents), max_size=len(ents), unique=True),
        label="entities")))
    return EvidenceSet(tuple(
        AtomicStatement(pred_map[s.predicate], ent_map[s.subject],
                        None if s.obj is None else ent_map[s.obj], s.positive)
        for s in ev.statements))


def _repeated(data, ev: EvidenceSet) -> tuple[EvidenceSet, int]:
    r = data.draw(st.integers(2, 4), label="r")
    return EvidenceSet(tuple(s for s in ev.statements for _ in range(r))), r


# --- compress: the report's ideal lengths ------------------------------------


@pytest.mark.parametrize("source", SOURCES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_compress_prices_ignore_statement_order(source, data):
    ev = _evidence(data, source)
    want = lossless_encode_report(ev)[1]
    got = lossless_encode_report(_shuffled(data, ev))[1]
    assert got.payload_bits_ideal == want.payload_bits_ideal
    assert got.dictionary_bits_ideal == want.dictionary_bits_ideal


@pytest.mark.parametrize("source", SOURCES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_compress_payload_ignores_names(source, data):
    ev = _evidence(data, source)
    want = lossless_encode_report(ev)[1]
    got = lossless_encode_report(_renamed(data, ev))[1]
    assert got.payload_bits_ideal == want.payload_bits_ideal
    assert got.alphabet_size == want.alphabet_size
    assert got.n_statements == want.n_statements


# --- analyze: the whole report -----------------------------------------------


def _analyze_reports(*evs: EvidenceSet) -> list[dict]:
    """The ``analyze --out`` report of each evidence set, each analyzed on
    its own; source_id is left out, since it names the file."""
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, ev in enumerate(evs):
            path = Path(tmp) / f"source{i}.fol"
            path.write_text(ev.normalized_text())
            res = CliRunner().invoke(main, ["analyze", str(path), "--out", tmp])
            assert res.exit_code == 0, res.output
            report = json.loads((Path(tmp) / f"source{i}.json").read_text())
            assert report.pop("source_id") == f"source{i}"
            reports.append(report)
    return reports


@pytest.mark.parametrize("source", SOURCES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_analyze_ignores_names_and_order(source, data):
    ev = _evidence(data, source)
    want, renamed, shuffled = _analyze_reports(
        ev, _renamed(data, ev), _shuffled(data, ev))
    assert renamed == want
    assert shuffled == want


@pytest.mark.parametrize("source", SOURCES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_analyze_ignores_repetition(source, data):
    ev = _evidence(data, source)
    repeated, r = _repeated(data, ev)
    want, got = _analyze_reports(ev, repeated)
    assert got["evidence"].pop("statements") == r * want["evidence"].pop("statements")
    assert got == want
