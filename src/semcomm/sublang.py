"""Observable-kind quotient and the finite sub-language it induces.

Two individuals share a kind exactly when their full participation
multisets coincide: the multiset of (predicate, role, polarity) triples
over the deduplicated evidence, where role is subject or object.  The
sub-language has K cells: one per observed pattern plus a configured
number of slack cells for kinds the evidence never exemplified.  Within
it the evidence is complete by construction, so the generalization
machinery applies without padding unobserved facts.

A constituent picks the non-empty set of cells claimed to be inhabited;
a sentence is a set of constituents (its disjunctive support).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .errors import CapacityError, DomainMismatchError, InconsistentEvidenceError
from .fol import Entity, EvidenceSet

# participation pattern: sorted tuple of ((predicate, role, positive), count)
PatternKey = tuple

_token_counter = itertools.count(1)
_MAX_ENUM_K = 20  # enumeration cap: 2^20 - 1 hypotheses


@dataclass(frozen=True, slots=True)
class Constituent:
    """A claim about which kinds are inhabited: a non-empty cell set."""

    kinds: frozenset[int]

    @property
    def width(self) -> int:
        return len(self.kinds)


@dataclass(frozen=True, slots=True)
class Sentence:
    """A disjunction of constituents from one fixed sub-language."""

    sublang_token: int
    constituents: frozenset[Constituent]

    def _check(self, other: "Sentence") -> None:
        if self.sublang_token != other.sublang_token:
            raise DomainMismatchError("sentences belong to different sub-languages")

    def __and__(self, other: "Sentence") -> "Sentence":
        self._check(other)
        return Sentence(self.sublang_token, self.constituents & other.constituents)

    def __or__(self, other: "Sentence") -> "Sentence":
        self._check(other)
        return Sentence(self.sublang_token, self.constituents | other.constituents)


@dataclass(frozen=True, slots=True)
class EvidenceSummary:
    """What the generalization machinery needs: (n, c, per-kind counts)."""

    n: int
    c: int
    counts: tuple[int, ...]
    big_k: int

    def __post_init__(self):
        if self.c != len(self.counts) or any(x <= 0 for x in self.counts):
            raise ValueError("counts must list one positive total per exemplified kind")
        if sum(self.counts) != self.n:
            raise ValueError("counts must sum to n")
        if self.c > self.big_k:
            raise ValueError("more exemplified kinds than cells")

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
        quotas = [n_eff * x / self.n for x in self.counts]
        floors = [max(1, int(q)) for q in quotas]
        short = n_eff - sum(floors)
        order = sorted(range(self.c), key=lambda j: (-(quotas[j] - int(quotas[j])), j))
        counts = list(floors)
        j = 0
        while short > 0:
            counts[order[j % self.c]] += 1
            short -= 1
            j += 1
        while short < 0:  # floors clamped at 1 can overshoot
            idx = max(range(self.c), key=lambda t: (counts[t], -t))
            if counts[idx] <= 1:
                raise ValueError("cannot apportion without emptying a kind")
            counts[idx] -= 1
            short += 1
        return EvidenceSummary(n_eff, self.c, tuple(counts), self.big_k)


@dataclass(frozen=True, slots=True)
class SubLanguageConfig:
    slack: int = 0


@dataclass(frozen=True)
class SubLanguage:
    """The quotiented finite language for one evidence set."""

    big_k: int
    entity_kinds: dict
    summary: EvidenceSummary
    token: int = field(default_factory=lambda: next(_token_counter))

    def kind_of(self, entity: Entity) -> int:
        return self.entity_kinds[entity.name]

    # --- sentence construction ---------------------------------------

    def sentence(self, constituents: Iterable[Constituent]) -> Sentence:
        cs = frozenset(constituents)
        for c in cs:
            if not c.kinds or not all(0 <= k < self.big_k for k in c.kinds):
                raise DomainMismatchError(f"constituent {sorted(c.kinds)} outside this sub-language")
        return Sentence(self.token, cs)

    def tautology(self) -> Sentence:
        return self.sentence(self.all_constituents())

    def minimal_constituent(self) -> Constituent:
        """The narrowest constituent compatible with the evidence."""
        return Constituent(frozenset(range(self.summary.c)))

    def upset(self, required_kinds: Iterable[int]) -> Sentence:
        """All constituents claiming at least the given kinds inhabited."""
        req = frozenset(required_kinds)
        rest = [k for k in range(self.big_k) if k not in req]
        members = []
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                kinds = req | frozenset(extra)
                if kinds:
                    members.append(Constituent(kinds))
        return self.sentence(members)

    def all_constituents(self) -> list[Constituent]:
        return enumerate_constituents(self)

    def negate(self, s: Sentence) -> Sentence:
        if s.sublang_token != self.token:
            raise DomainMismatchError("sentence belongs to a different sub-language")
        return Sentence(self.token, frozenset(self.all_constituents()) - s.constituents)


def entity_patterns(ev: EvidenceSet) -> dict[str, PatternKey]:
    """Participation pattern of every observed individual (deduped stream)."""
    per_entity: dict[str, Counter] = {}
    for st in ev.distinct_statements:
        role_items = [(st.subject.name, "s")]
        if st.obj is not None:
            role_items.append((st.obj.name, "o"))
        for name, role in role_items:
            per_entity.setdefault(name, Counter())[
                (st.predicate.name, role, st.positive)
            ] += 1
    patterns: dict[str, PatternKey] = {}
    for ent in ev.entities:
        cnt = per_entity.get(ent.name, Counter())
        patterns[ent.name] = tuple(sorted(cnt.items()))
    return patterns


def check_consistent(ev: EvidenceSet) -> None:
    polarity_seen: dict[tuple, bool] = {}
    for st in ev.statements:
        key = st.atom_key()
        prev = polarity_seen.get(key)
        if prev is None:
            polarity_seen[key] = st.positive
        elif prev != st.positive:
            raise InconsistentEvidenceError(
                f"evidence both asserts and negates {key[0]}({key[1]}"
                + (f", {key[2]})" if key[2] else ")")
            )


def build_sublanguage(ev: EvidenceSet, config: SubLanguageConfig | None = None) -> SubLanguage:
    """Quotient the evidence into kinds and wrap it in a sub-language."""
    config = config or SubLanguageConfig()
    check_consistent(ev)
    patterns = entity_patterns(ev)

    cell_map: dict[PatternKey, int] = {}
    entity_kinds: dict[str, int] = {}
    counts: list[int] = []
    for ent in ev.entities:  # first-appearance order fixes cell ids
        pat = patterns[ent.name]
        if pat not in cell_map:
            cell_map[pat] = len(cell_map)
            counts.append(0)
        kind = cell_map[pat]
        entity_kinds[ent.name] = kind
        counts[kind] += 1

    c = len(cell_map)
    big_k = c + config.slack
    if big_k < 1:
        raise CapacityError("empty evidence with no slack cells leaves no language")

    summary = EvidenceSummary(n=sum(counts), c=c, counts=tuple(counts), big_k=big_k)
    return SubLanguage(big_k=big_k, entity_kinds=entity_kinds, summary=summary)


def enumerate_constituents(sl: SubLanguage) -> list[Constituent]:
    """Every constituent, ordered by (width, lexicographic cell tuple)."""
    if sl.big_k > _MAX_ENUM_K:
        raise CapacityError(
            f"K={sl.big_k} exceeds the enumeration cap {_MAX_ENUM_K}"
        )
    out = []
    for width in range(1, sl.big_k + 1):
        for kinds in itertools.combinations(range(sl.big_k), width):
            out.append(Constituent(frozenset(kinds)))
    return out
