"""Observable-kind quotient and the finite sub-language it induces.

Two individuals share a kind exactly when their full participation
multisets coincide: the multiset of (predicate, role, polarity) triples
over the deduplicated evidence, where role is subject or object; cell ids
follow the patterns' first appearance in ``EvidenceSet.entities``.  The
sub-language has K cells: one per observed pattern plus a configured
number of slack cells for kinds the evidence never exemplified.  Within
it the evidence is complete by construction, so the generalization
machinery applies without padding unobserved facts.

A constituent picks the non-empty set of cells claimed to be inhabited,
and is that frozenset of cell ids; a sentence is a set of constituents
(its disjunctive support).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, NamedTuple

from ._record import Record
from .errors import CapacityError, DomainMismatchError, InconsistentEvidenceError, clip
from .fol import EvidenceSet

_token_counter = itertools.count(1)
# the one enumeration limit, 2^12 - 1 hypotheses: lossy pairs each with all
# 2^K reconstructions, and past K = 12 its solve outgrows time and precision
_MAX_ENUM_K = 12


# a claim about which kinds are inhabited: a non-empty set of cell ids
Constituent = frozenset


class Sentence(Record):
    """A disjunction of constituents from one fixed sub-language.

    Immutable, and equal (and hashed) by its token and constituents.
    """

    __slots__ = ("sublang_token", "constituents")

    def __init__(self, sublang_token: int, constituents: frozenset[Constituent]):
        object.__setattr__(self, "sublang_token", sublang_token)
        object.__setattr__(self, "constituents", constituents)

    def _check(self, other: "Sentence") -> None:
        if self.sublang_token != other.sublang_token:
            raise DomainMismatchError("sentences belong to different sub-languages")

    def __and__(self, other: "Sentence") -> "Sentence":
        self._check(other)
        return Sentence(self.sublang_token, self.constituents & other.constituents)

    def __or__(self, other: "Sentence") -> "Sentence":
        self._check(other)
        return Sentence(self.sublang_token, self.constituents | other.constituents)


class EvidenceSummary(Record):
    """What the generalization machinery needs: (n, c, per-kind counts).

    Immutable, and equal (and hashed) by its four fields.
    """

    __slots__ = ("n", "c", "counts", "big_k")

    def __init__(self, n: int, c: int, counts: tuple[int, ...], big_k: int):
        if c != len(counts) or any(x <= 0 for x in counts):
            raise ValueError("counts must list one positive total per exemplified kind")
        if sum(counts) != n:
            raise ValueError("counts must sum to n")
        if c > big_k:
            raise ValueError("more exemplified kinds than cells")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "big_k", big_k)

    def scaled_to(self, n_eff: int) -> "EvidenceSummary":
        """Reapportion the counts to a declared evidence volume.

        Largest-remainder apportionment; every exemplified kind keeps at
        least one observation, so c is preserved.
        """
        if n_eff == self.n:
            return self
        if n_eff < self.c:
            raise ValueError(f"cannot spread {n_eff} observations over {self.c} kinds")
        if self.n == 0:
            raise ValueError("cannot scale an empty summary")
        # exact integer quotas: floors, then one more for each of the
        # largest remainders; the floors fall short by fewer than c
        counts = [max(1, n_eff * x // self.n) for x in self.counts]
        short = n_eff - sum(counts)
        order = sorted(range(self.c), key=lambda j: (-(n_eff * self.counts[j] % self.n), j))
        for j in order[:max(short, 0)]:
            counts[j] += 1
        while short < 0:  # floors clamped at 1 can overshoot
            idx = max(range(self.c), key=lambda t: (counts[t], -t))
            counts[idx] -= 1
            short += 1
        return EvidenceSummary(n_eff, self.c, tuple(counts), self.big_k)


class SubLanguageConfig(NamedTuple):
    slack: int = 0


class SubLanguage:
    """The quotiented finite language for one evidence set.

    ``token`` marks its sentences; left out, each sub-language draws a new
    one.  Equal only to itself.
    """

    def __init__(self, big_k: int, entity_kinds: dict, summary: EvidenceSummary,
                 token: int | None = None):
        self.big_k = big_k
        self.entity_kinds = entity_kinds
        self.summary = summary
        self.token = next(_token_counter) if token is None else token

    # --- sentence construction ---------------------------------------

    def sentence(self, constituents: Iterable[Constituent]) -> Sentence:
        cs = frozenset(constituents)
        for c in cs:
            if not c or not all(0 <= k < self.big_k for k in c):
                raise DomainMismatchError(f"constituent {sorted(c)} outside this sub-language")
        return Sentence(self.token, cs)

    def upset(self, required_kinds: Iterable[int]) -> Sentence:
        """All constituents claiming at least the given kinds inhabited.

        ``upset(())`` is the tautology: every constituent.
        """
        req = frozenset(required_kinds)
        if not all(0 <= k < self.big_k for k in req):
            raise DomainMismatchError(f"kinds {sorted(req)} outside this sub-language")
        # the cell masks holding req: req plus each subset of the other cells
        masks = [sum(1 << k for k in req)]
        for k in range(self.big_k):
            if k not in req:
                masks += [m | 1 << k for m in masks]
        if not req:
            del masks[0]  # the empty mask, which names no constituent
        return Sentence(self.token, frozenset(
            map(self._constituents[1].__getitem__, masks)))

    @cached_property
    def _constituents(self) -> tuple[list[Constituent], list[Constituent | None]]:
        # built on first use and shared by every caller: the constituents
        # in enumeration order, and the same objects indexed by cell mask
        return _constituent_table(self.big_k)


def kind_quotient(ev: EvidenceSet) -> tuple[dict[str, int], list[int]]:
    """The cell id of every observed individual, and the individuals per cell.

    The first dict maps each entity, in the order of ``ev.entities``, to
    its cell: the rank of its participation pattern's first appearance.
    The list counts the individuals in each cell.
    """
    # one shared (predicate, role, sign) key pair per predicate, indexed by
    # sign, so the count dicts hold no tuple of their own; plain dicts and
    # get() count about twice as fast as defaultdict(Counter)
    keys: tuple[dict, dict] = ({}, {})
    kinds: dict[str, dict | int] = {}  # individuals arrive in ev.entities order
    for pred, subj, obj, positive in ev.distinct_statements:
        pair = keys[positive].get(pred)
        if pair is None:
            pair = keys[positive][pred] = ((pred, "s", positive), (pred, "o", positive))
        cnt = kinds.get(subj)
        if cnt is None:
            cnt = kinds[subj] = {}
        cnt[pair[0]] = cnt.get(pair[0], 0) + 1
        if obj is not None:
            cnt = kinds.get(obj)
            if cnt is None:
                cnt = kinds[obj] = {}
            cnt[pair[1]] = cnt.get(pair[1], 0) + 1
    # each count dict gives way to its cell id as the loop reaches it, so
    # only one pattern per cell stays alive
    cells: dict[tuple, int] = {}
    counts: list[int] = []
    for name, cnt in kinds.items():
        kinds[name] = kind = cells.setdefault(tuple(sorted(cnt.items())), len(cells))
        if kind == len(counts):
            counts.append(0)
        counts[kind] += 1
    return kinds, counts


def check_consistent(ev: EvidenceSet) -> None:
    # probing the statements before each one with its sign twin holds only
    # tuples that already exist, and reports the same first conflict
    seen: set[tuple] = set()
    for st in ev.distinct_statements:  # a repeat never conflicts first
        pred, subj, obj, positive = st
        if (pred, subj, obj, not positive) in seen:
            raise InconsistentEvidenceError(
                f"evidence both asserts and negates {clip(st._replace(positive=True).text())}")
        seen.add(st)


def build_sublanguage(ev: EvidenceSet, config: SubLanguageConfig | None = None) -> SubLanguage:
    """Quotient the evidence into kinds and wrap it in a sub-language."""
    config = config or SubLanguageConfig()
    check_consistent(ev)
    entity_kinds, counts = kind_quotient(ev)
    c = len(counts)
    big_k = c + config.slack
    if big_k < 1:
        raise CapacityError("empty evidence with no slack cells leaves no language")

    summary = EvidenceSummary(n=len(entity_kinds), c=c, counts=tuple(counts), big_k=big_k)
    return SubLanguage(big_k=big_k, entity_kinds=entity_kinds, summary=summary)


def enumerate_constituents(sl: SubLanguage) -> list[Constituent]:
    """Every constituent, ordered by (width, lexicographic cell tuple).

    The objects are the sub-language's own, shared with ``upset``.
    """
    return list(sl._constituents[0])


def _constituent_table(big_k: int) -> tuple[list[Constituent], list[Constituent | None]]:
    if big_k > _MAX_ENUM_K:
        raise CapacityError(f"K={big_k} exceeds the enumeration limit "
                            f"K={_MAX_ENUM_K}")
    ordered = []
    by_mask: list[Constituent | None] = [None] * (1 << big_k)
    bits = [1 << k for k in range(big_k)]
    for width in range(1, big_k + 1):
        for kinds, mask in zip(itertools.combinations(range(big_k), width),
                               itertools.combinations(bits, width)):
            con = Constituent(kinds)
            ordered.append(con)
            by_mask[sum(mask)] = con
    return ordered, by_mask
