"""Kind quotient, evidence summaries, and sentence algebra."""

import io
import itertools
import math
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcomm.errors import (CapacityError, DomainMismatchError,
                            InconsistentEvidenceError, clip)
from semcomm.fol import parse_evidence
from semcomm.inductive import InductiveModel
from semcomm.measures import MessagePartition
from semcomm.sublang import (Constituent, EvidenceSummary, SubLanguageConfig,
                             build_sublanguage, check_consistent,
                             enumerate_constituents, kind_quotient)

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


def _reference_patterns(ev):
    per_entity = defaultdict(Counter)
    for st_ in ev.distinct_statements:
        per_entity[st_.subject][(st_.predicate, "s", st_.positive)] += 1
        if st_.obj is not None:
            per_entity[st_.obj][(st_.predicate, "o", st_.positive)] += 1
    return {name: tuple(sorted(cnt.items())) for name, cnt in per_entity.items()}


def _reference_kinds(ev):
    # a cell id is the rank of its pattern's first appearance
    cells = {}
    return {name: cells.setdefault(pat, len(cells))
            for name, pat in _reference_patterns(ev).items()}


def test_kind_of_consistency(rng):
    for _ in range(20):
        text = random_evidence_text(rng)
        ev = parse_evidence(io.StringIO(text), source_id="t")
        kinds = build_sublanguage(ev).entity_kinds
        pats = _reference_patterns(ev)
        for a in ev.entities:
            for b in ev.entities:
                assert (kinds[a] == kinds[b]) == (pats[a] == pats[b])
        assert kinds == _reference_kinds(ev)


def test_entity_patterns_match_counter_reference(rng):
    for _ in range(200):
        ev = parse_evidence(io.StringIO(random_evidence_text(rng, max_stmts=40)))
        want = _reference_kinds(ev)
        kinds, counts = kind_quotient(ev)
        assert kinds == want
        assert list(kinds) == list(want) == list(ev.entities)
        assert counts == [Counter(want.values())[j] for j in range(len(counts))]


def test_entity_kinds_follow_entity_order(rng):
    # converge reads the kinds in this order as the individuals' arrival
    for _ in range(100):
        ev = parse_evidence(io.StringIO(random_evidence_text(rng, max_stmts=40)))
        assert list(build_sublanguage(ev).entity_kinds) == list(ev.entities)


def test_quotient_transient_memory_per_statement():
    # 16,000 distinct statements about a crowd of 4,000 individuals of five
    # kinds.  The quotient holds a set of the statements seen, then one
    # count dict per individual keyed by shared objects: about 62 bytes a
    # statement under CPython 3.11.  A new key tuple for each statement,
    # in the consistency check and in the counts, took 142.
    n = 16000
    ev = parse_evidence(io.StringIO("".join(
        (f"Sees(e{i // 4}, e{i // 4 + 1})" if i % 4 == 3
         else ("!" if i % 3 == 0 else "") + f"P{i % 4}(e{i // 4})") + "\n"
        for i in range(n))))
    assert len(ev.distinct_statements) == n  # built before the count starts
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sl = build_sublanguage(ev)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sl.summary.counts == (1, 1333, 1333, 1333, 1)
    assert peak < 100 * n


def _reference_conflict(ev):
    # the check as a dict from (predicate, subject, object) to its first sign
    polarity_seen = {}
    for st_ in ev.distinct_statements:
        if polarity_seen.setdefault(st_[:3], st_.positive) != st_.positive:
            return ("evidence both asserts and negates "
                    f"{clip(st_._replace(positive=True).text())}")
    return None


def test_first_conflict_matches_reference(rng):
    for _ in range(200):
        lines = random_evidence_text(rng, max_stmts=30).splitlines()
        # the sign twins of a few lines, each before or after its line
        for line in rng.sample(lines, min(len(lines), rng.randint(2, 4))):
            twin = line[1:] if line.startswith("!") else "!" + line
            lines.insert(rng.randint(0, len(lines)), twin)
        ev = parse_evidence(io.StringIO("\n".join(lines) + "\n"))
        want = _reference_conflict(ev)
        assert want is not None
        with pytest.raises(InconsistentEvidenceError) as err:
            check_consistent(ev)
        assert str(err.value) == want


def test_enumerate_constituents_counts():
    sl = _sl("Barks(Rex)\n!Barks(Tom)\n", slack=1)
    cons = enumerate_constituents(sl)
    assert len(cons) == 2 ** sl.big_k - 1
    widths = [len(c) for c in cons]
    assert widths == sorted(widths)


def test_minimal_constituent_and_upset():
    sl = _sl("Barks(Rex)\n!Barks(Tom)\n", slack=1)
    mc = Constituent(range(sl.summary.c))
    assert mc == frozenset({0, 1})
    ups = sl.upset(mc)
    assert all(mc <= c for c in ups.constituents)
    assert len(ups.constituents) == 2  # {0,1} and {0,1,2}


@pytest.mark.parametrize("slack", [0, 1, 3])
def test_upset_matches_brute_force(slack):
    sl = _sl("Chases(Rex, Tom)\n!Barks(Sid)\n", slack=slack)
    cons = enumerate_constituents(sl)
    shared = {id(c) for c in cons}
    for r in range(sl.big_k + 1):
        for req in itertools.combinations(range(sl.big_k), r):
            ups = sl.upset(req)
            want = {c for c in cons if set(req) <= c}
            assert ups.constituents == want
            assert ups.sublang_token == sl.token
            # the members are the sub-language's own objects
            assert {id(c) for c in ups.constituents} <= shared
    assert [id(c) for c in enumerate_constituents(sl)] == [id(c) for c in cons]
    source = MessagePartition.from_model(InductiveModel(sl))
    held = [c for c in cons if set(range(sl.summary.c)) <= c]
    assert [id(c) for m in source.members for c in m.constituents] == \
        [id(c) for c in held]


@pytest.mark.parametrize("big_k", range(1, 7))
def test_upset_matches_mask_generator(big_k):
    # the set as a generator over the cell masks built it, zero mask skipped
    sl = _sl("Barks(Rex)\n", slack=big_k - 1)
    assert sl.big_k == big_k
    by_mask = sl._constituents[1]
    for r in range(big_k + 1):
        for req in itertools.combinations(range(big_k), r):
            masks = [sum(1 << k for k in req)]
            for k in range(big_k):
                if k not in req:
                    masks += [m | 1 << k for m in masks]
            want = frozenset(by_mask[m] for m in masks if m)
            got = sl.upset(req).constituents
            assert got == want
            assert sorted(map(id, got)) == sorted(map(id, want))


@pytest.mark.parametrize("kinds", [[-1], [0, -1], [3], [1, 3]])
def test_upset_outside_domain_rejected(kinds):
    sl = _sl("Barks(Rex)\n!Barks(Tom)\n", slack=1)
    assert sl.big_k == 3
    with pytest.raises(DomainMismatchError):
        sl.upset(kinds)


def test_sentence_algebra():
    sl = _sl("Barks(Rex)\n!Barks(Tom)\n", slack=1)
    a = sl.sentence([Constituent(frozenset({0}))])
    b = sl.sentence([Constituent(frozenset({1}))])
    assert (a | b).constituents == a.constituents | b.constituents
    assert not (a & b).constituents
    taut = sl.upset(())
    assert len(taut.constituents) == 2 ** sl.big_k - 1


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
    with pytest.raises(ValueError, match="more exemplified kinds than cells"):
        EvidenceSummary(n=2, c=2, counts=(1, 1), big_k=1)
    with pytest.raises(ValueError, match="cannot scale an empty summary"):
        EvidenceSummary(n=0, c=0, counts=(), big_k=3).scaled_to(5)


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
    # the floors clamped at one overshoot, and the largest count gives back
    summary = EvidenceSummary(n=100, c=3, counts=(98, 1, 1), big_k=3)
    assert summary.scaled_to(3).counts == (1, 1, 1)


def _largest_remainder(counts, n_eff):
    """Hamilton apportionment in exact rationals, every kind kept at one
    or more."""
    n = sum(counts)
    quotas = [Fraction(n_eff * x, n) for x in counts]
    floors = [max(1, math.floor(q)) for q in quotas]
    order = sorted(range(len(counts)),
                   key=lambda j: (-(quotas[j] - math.floor(quotas[j])), j))
    for j in order[:n_eff - sum(floors)]:
        floors[j] += 1
    return tuple(floors)


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1,
                max_size=8),
       st.integers(min_value=0, max_value=40))
@settings(max_examples=200)
def test_scaled_to_is_exact_largest_remainder(counts, digits):
    n_eff = max(len(counts), 10**digits + digits)
    summary = EvidenceSummary(n=sum(counts), c=len(counts),
                              counts=tuple(counts), big_k=len(counts))
    want = _largest_remainder(counts, n_eff)
    if sum(want) == n_eff:  # no kind was lifted to one past the volume
        assert summary.scaled_to(n_eff).counts == want


def test_scaled_to_huge_volume():
    summary = EvidenceSummary(n=7, c=3, counts=(3, 3, 1), big_k=3)
    assert summary.scaled_to(10**22 + 1).counts == (
        4285714285714285714286, 4285714285714285714286, 1428571428571428571429)
    assert sum(summary.scaled_to(10**300).counts) == 10**300
