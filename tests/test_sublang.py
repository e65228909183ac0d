"""Kind quotient, evidence summaries, and sentence algebra."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcomm.errors import (CapacityError, DomainMismatchError,
                            InconsistentEvidenceError)
from semcomm.fol import parse_evidence
from semcomm.sublang import (Constituent, EvidenceSummary, SubLanguageConfig,
                             build_sublanguage, check_consistent,
                             enumerate_constituents, entity_patterns)

from conftest import random_evidence_text


def _sl(text: str, slack: int = 0):
    ev = parse_evidence(io.StringIO(text), source_id="test")
    return build_sublanguage(ev, SubLanguageConfig(slack=slack))


def test_identical_patterns_share_a_kind():
    sl = _sl("Barks(Rex)\nBarks(Tom)\n!Barks(Sid)\n")
    assert sl.summary.c == 2
    assert sl.summary.counts == (2, 1)


def test_role_and_sign_split_kinds():
    # subject vs object role and positive vs negative sign all distinguish
    sl = _sl("Chases(Rex, Tom)\n!Chases(Sid, Ada)\n")
    assert sl.summary.c == 4


def test_slack_extends_language():
    text = "Barks(Rex)\n!Barks(Tom)\n"
    assert _sl(text, slack=0).big_k == 2
    assert _sl(text, slack=3).big_k == 5


def test_inconsistent_evidence_rejected():
    ev = parse_evidence(io.StringIO("Barks(Rex)\n!Barks(Rex)\n"),
                        source_id="t")
    with pytest.raises(InconsistentEvidenceError):
        check_consistent(ev)
    with pytest.raises(InconsistentEvidenceError):
        build_sublanguage(ev)


def test_empty_evidence_needs_slack():
    ev = parse_evidence(io.StringIO("# empty\n"), source_id="t")
    with pytest.raises(CapacityError):
        build_sublanguage(ev, SubLanguageConfig(slack=0))
    sl = build_sublanguage(ev, SubLanguageConfig(slack=2))
    assert sl.big_k == 2 and sl.summary.c == 0


def test_kind_of_consistency(rng):
    for _ in range(20):
        text = random_evidence_text(rng)
        ev = parse_evidence(io.StringIO(text), source_id="t")
        sl = build_sublanguage(ev)
        pats = entity_patterns(ev)
        for a in ev.entities:
            for b in ev.entities:
                same = sl.kind_of(a) == sl.kind_of(b)
                assert same == (pats[a.name] == pats[b.name])


def test_enumerate_constituents_counts():
    sl = _sl("Barks(Rex)\n!Barks(Tom)\n", slack=1)
    cons = enumerate_constituents(sl)
    assert len(cons) == 2 ** sl.big_k - 1
    widths = [c.width for c in cons]
    assert widths == sorted(widths)


def test_minimal_constituent_and_upset():
    sl = _sl("Barks(Rex)\n!Barks(Tom)\n", slack=1)
    mc = sl.minimal_constituent()
    assert mc.kinds == frozenset({0, 1})
    ups = sl.upset(mc.kinds)
    assert all(mc.kinds <= c.kinds for c in ups.constituents)
    assert len(ups.constituents) == 2  # {0,1} and {0,1,2}


def test_sentence_algebra():
    sl = _sl("Barks(Rex)\n!Barks(Tom)\n", slack=1)
    a = sl.sentence([Constituent(frozenset({0}))])
    b = sl.sentence([Constituent(frozenset({1}))])
    assert (a | b).constituents == a.constituents | b.constituents
    assert not (a & b).constituents
    taut = sl.tautology()
    assert len(taut.constituents) == 2 ** sl.big_k - 1
    assert sl.negate(a).constituents == taut.constituents - a.constituents


def test_cross_language_mix_rejected():
    sl1 = _sl("Barks(Rex)\n", slack=1)
    sl2 = _sl("Barks(Rex)\n", slack=1)
    a = sl1.sentence([Constituent(frozenset({0}))])
    b = sl2.sentence([Constituent(frozenset({0}))])
    with pytest.raises(DomainMismatchError):
        a | b


def test_sentence_outside_domain_rejected():
    sl = _sl("Barks(Rex)\n", slack=0)
    with pytest.raises(DomainMismatchError):
        sl.sentence([Constituent(frozenset({5}))])


def test_summary_validation():
    with pytest.raises(ValueError):
        EvidenceSummary(n=3, c=2, counts=(1,), big_k=3)
    with pytest.raises(ValueError):
        EvidenceSummary(n=3, c=2, counts=(1, 1), big_k=3)
    with pytest.raises(ValueError):
        EvidenceSummary(n=2, c=3, counts=(1, 1, 0), big_k=3)


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                max_size=6),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=5000))
@settings(max_examples=150)
def test_scaled_to_invariants(counts, slack, n_eff):
    c = len(counts)
    n = sum(counts)
    summary = EvidenceSummary(n=n, c=c, counts=tuple(counts), big_k=c + slack)
    if n_eff < c:
        with pytest.raises(ValueError):
            summary.scaled_to(n_eff)
        return
    scaled = summary.scaled_to(n_eff)
    assert scaled.n == n_eff
    assert scaled.c == c
    assert sum(scaled.counts) == n_eff
    assert all(x >= 1 for x in scaled.counts)
    assert scaled.big_k == summary.big_k


def test_scaled_to_identity():
    summary = EvidenceSummary(n=6, c=3, counts=(3, 2, 1), big_k=4)
    assert summary.scaled_to(6) is summary


def test_scaled_to_proportions():
    summary = EvidenceSummary(n=10, c=2, counts=(8, 2), big_k=2)
    scaled = summary.scaled_to(1000)
    assert scaled.counts == (800, 200)
