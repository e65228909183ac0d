"""Seeded evidence generator for the benchmark workloads.

Every generated individual carries a fixed set of unary facts, its kind's
signature, so the observable-kind quotient recovers exactly the requested
number of kinds.  The distinct-statement count is therefore
``entities * facts``; the stream repeats distinct statements (skewed towards
a few popular ones) until it reaches the requested length, then shuffles.
The file is written in canonical form, so its bytes equal the normalized
text the lossless container must reproduce.
"""

from __future__ import annotations

import itertools
import math
import random
import string
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class StreamSpec:
    """Exact shape of one generated evidence file."""

    entities: int
    kinds: int
    facts: int          # unary facts per individual
    statements: int     # stream length, repeats included
    predicates: int     # size of the predicate pool

    @property
    def distinct(self) -> int:
        return self.entities * self.facts

    def as_json(self) -> dict:
        return {**asdict(self), "distinct": self.distinct}

    def check(self) -> None:
        if not 1 <= self.kinds <= self.entities:
            raise ValueError("need 1 <= kinds <= entities")
        if not 1 <= self.facts <= self.predicates:
            raise ValueError("need 1 <= facts <= predicates")
        if self.statements < self.distinct:
            raise ValueError("stream shorter than the distinct statements")
        signatures = math.comb(self.predicates, self.facts) * 2 ** self.facts
        if signatures < self.kinds:
            raise ValueError(f"only {signatures} kind signatures exist for "
                             f"{self.facts} of {self.predicates} predicates")


def _names(rng: random.Random, n: int, lo: int, hi: int,
           capital: bool) -> list[str]:
    """n distinct identifiers of the format's name shape.  Lengths cycle
    through lo..hi rather than being drawn, so the dictionary's size, and
    with it the container's, varies little from seed to seed."""
    first = string.ascii_uppercase if capital else string.ascii_lowercase
    rest = string.ascii_letters + string.digits + "_"
    seen: dict[str, None] = {}
    while len(seen) < n:
        length = lo + len(seen) % (hi - lo + 1)
        name = rng.choice(first) + "".join(rng.choices(rest, k=length - 1))
        seen.setdefault(name)
    return list(seen)


def generate(spec: StreamSpec, seed: int) -> bytes:
    """Canonical evidence text for the spec; the same seed gives the same bytes."""
    spec.check()
    rng = random.Random(f"{seed}:{sorted(spec.as_json().items())}")
    preds = _names(rng, spec.predicates, 4, 10, capital=True)
    ents = _names(rng, spec.entities, 3, 12, capital=False)

    signatures: dict[tuple, None] = {}
    while len(signatures) < spec.kinds:
        chosen = sorted(rng.sample(range(spec.predicates), spec.facts))
        signatures.setdefault(
            tuple((p, rng.random() < 0.7) for p in chosen))
    kinds = list(signatures)

    # the first `kinds` individuals exemplify every kind once
    assignment = list(range(spec.kinds)) + [
        rng.randrange(spec.kinds) for _ in range(spec.entities - spec.kinds)]
    distinct = [("" if positive else "!") + f"{preds[p]}({ent})"
                for ent, kind in zip(ents, assignment)
                for p, positive in kinds[kind]]

    weights = list(itertools.accumulate(
        1.0 / (rank + 1) for rank in range(len(distinct))))
    popular = rng.sample(distinct, len(distinct))
    stream = distinct + rng.choices(popular, cum_weights=weights,
                                    k=spec.statements - spec.distinct)
    rng.shuffle(stream)
    return ("\n".join(stream) + "\n").encode("ascii")
