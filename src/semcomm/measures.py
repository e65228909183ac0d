"""Content and surprise measures over posterior-weighted message spaces.

The two base measures price a message by what it rules out (cont = 1 - p)
and by how unexpected it is (inf = 1/p).  The source entropies sum one
term per width class of the 2^K - 1 hypotheses.  The one built on cont is
volume-scaled by 2^(predicates x entities), a factor never materialized
in the linear domain; quantities carrying it live in ExtremeReal.  A
complement 1 - p is log1p(-p) below one half and is summed directly over
the excluded hypotheses above it, so it survives p within 10^-15000 of 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from ._record import Record
from .errors import DomainMismatchError
from .inductive import InductiveModel
from .sublang import Sentence, enumerate_constituents
from .xreal import ExtremeReal, xsum

_NORM_TOL = 1e-9
_LN_HALF = -math.log(2.0)


def cont(p: float) -> float:
    """Content of a message with probability p: what it excludes, 1 - p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return 1.0 - p


def inf_measure(p: float) -> float:
    """Reciprocal surprise measure 1/p; p = 0 signals infinite information."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0:
        return math.inf
    return 1.0 / p


def inf_entropy(model: InductiveModel) -> float:
    """Expected log surprise sum p_i * log2(1/p_i) over the hypotheses."""
    # a class size can pass the float range; its log cannot
    terms = [(math.log(cl.size), model.ln_probability({cl.width: 1}))
             for cl in model.width_classes]
    return math.fsum(math.exp(ln_s + ln_p) * -ln_p
                     for ln_s, ln_p in terms) / math.log(2.0)


class UniverseSignature(Record):
    """Size of the describable world: predicate and entity counts.

    Immutable, and equal (and hashed) by its two counts.
    """

    __slots__ = ("n_pred", "n_ent")

    def __init__(self, n_pred: int, n_ent: int):
        if n_pred < 0 or n_ent < 0:
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "n_pred", n_pred)
        object.__setattr__(self, "n_ent", n_ent)

    @property
    def volume_exponent(self) -> int:
        """Bits of raw state space, never expanded to 2**exponent directly."""
        return self.n_pred * self.n_ent

    def as_json(self) -> dict:
        return {"p": self.n_pred, "e": self.n_ent,
                "volume_exponent": self.volume_exponent}


class MessagePartition:
    """Disjoint, exhaustive messages with their confirmation weights.

    The sender's side of a lossy channel.  ``ln_probs`` carries the
    natural-log weight per member, supplied by builders that know the
    posterior in log space; left out, it is computed from the weights.
    Equal only to itself.
    """

    __slots__ = ("members", "probs", "ln_probs")

    def __init__(self, members: tuple[Sentence, ...], probs: tuple[float, ...],
                 ln_probs: tuple[float, ...] | None = None):
        if members and len(members) != len(probs):
            raise ValueError("one weight per member")
        if any(p < 0 or p > 1 for p in probs):
            raise ValueError("weights must lie in [0, 1]")
        if abs(math.fsum(probs) - 1.0) > _NORM_TOL:
            raise ValueError("weights must sum to one")
        if ln_probs is not None and len(ln_probs) != len(probs):
            raise ValueError("log weights must align with the weights")
        covered: set = set()
        for member in members:
            if not covered.isdisjoint(member.constituents):
                raise ValueError("partition members must be disjoint")
            covered.update(member.constituents)
        self.members = members
        self.probs = probs
        self.ln_probs = ln_probs if ln_probs is not None else tuple(
            -math.inf if x == 0.0 else math.log(x) for x in probs)

    @classmethod
    def from_model(cls, model: InductiveModel) -> "MessagePartition":
        """The hypotheses the evidence leaves possible, as the sender's messages.

        Only hypotheses holding every observed kind carry posterior
        weight, so only they are members, in enumeration order, each
        weighted by the posterior of its width class.  With c of the K
        kinds observed there are 2^(K-c) of them.
        """
        sl = model.sublang
        need = set(range(model.summary.c))
        by_width: dict[int, tuple[float, float]] = {}
        members = []
        columns = []
        for constituent in enumerate_constituents(sl):
            if need <= constituent:
                w = len(constituent)
                if w not in by_width:
                    ln_p = model.ln_probability({w: 1})
                    by_width[w] = (math.exp(ln_p), ln_p)
                members.append(Sentence(sl.token, frozenset((constituent,))))
                columns.append(by_width[w])
        probs, lns = zip(*columns)
        return cls(tuple(members), probs, lns)


class ContEntropy(NamedTuple):
    """Volume-scaled and normalized expected content of a source."""

    raw: ExtremeReal
    normalized: ExtremeReal
    members: int

    def as_json(self) -> dict:
        return {
            "raw": self.raw.as_json(),
            "normalized": self.normalized.as_json(),
            "normalized_float": self.normalized.to_float(),
            "members": self.members,
        }


def cont_entropy(model: InductiveModel,
                 sig: UniverseSignature) -> ContEntropy:
    """Expected content sum p_i * (1 - p_i), raw copy scaled by 2^(p x e).

    The normalized value lies in [0, 1 - 1/M]; both it and the raw value are
    returned as ExtremeReal because real sources push the sum far below the
    smallest positive float.
    """
    terms = []
    for cl in model.width_classes:
        ln_p = model.ln_probability({cl.width: 1})
        if ln_p < _LN_HALF:
            ln_c = math.log1p(-math.exp(ln_p))
        else:  # two hypotheses at most, since p <= 1 / size
            ln_c = model.ln_probability(
                model.complement_width_counts({cl.width: 1}))
        if ln_c != -math.inf:
            terms.append(ExtremeReal.from_ln(math.log(cl.size) + ln_p + ln_c))
    normalized = xsum(terms)
    raw = normalized * ExtremeReal.from_log2(float(sig.volume_exponent))
    return ContEntropy(raw=raw, normalized=normalized,
                       members=2 ** model.big_k - 1)


def scale_entropies(values: Sequence[ExtremeReal]) -> dict:
    """Each value divided by the column minimum and maximum, in log space."""
    if not values:
        raise ValueError("need at least one value to scale")
    if any(v.is_zero or v.sign < 0 for v in values):
        raise ValueError("scaling needs strictly positive values")
    lo = min(values)
    hi = max(values)
    return {
        "min_scaled": [v / lo for v in values],
        "max_scaled": [v / hi for v in values],
    }


def cont_sentence(s: Sentence, model: InductiveModel) -> float:
    """Content of a sentence: the weight of everything it excludes."""
    return cont_width_counts(model.member_width_counts(s), model)


def cont_width_counts(counts: dict[int, int], model: InductiveModel) -> float:
    """Content of a sentence given its member hypotheses as width -> count."""
    return math.fsum(model.probability_terms(
        model.complement_width_counts(counts)))


def _rejected_width_counts(s2: Sentence, s1: Sentence,
                           model: InductiveModel) -> dict[int, int]:
    # s1's compatible hypotheses that s2 rejects, as width -> count
    have = model.member_width_counts(s1)
    keep = model.member_width_counts(s1 & s2)
    return {w: have[w] - keep.get(w, 0) for w in have}


def cond_cont(s2: Sentence, s1: Sentence, model: InductiveModel) -> float:
    """Content s2 adds on top of s1: weight of s1's cells that s2 rejects."""
    return math.fsum(model.probability_terms(
        _rejected_width_counts(s2, s1, model)))


def transcont(s2: Sentence, s1: Sentence, model: InductiveModel) -> float:
    """Content shared by the two sentences: weight excluded by both."""
    return cont_sentence(s1 | s2, model)


def cond_cont_extreme(s2: Sentence, s1: Sentence,
                      model: InductiveModel) -> ExtremeReal:
    return ExtremeReal.from_ln(model.ln_probability(
        _rejected_width_counts(s2, s1, model)))


def transcont_extreme(s2: Sentence, s1: Sentence,
                      model: InductiveModel) -> ExtremeReal:
    return model.complement_probability_extreme(s1 | s2)


class JointMessageDistribution:
    """Joint weights over sent and reconstructed messages.

    The joint matrix is supplied by the caller (typically a compressor's
    transition choice); the model prices the two conditional measures per
    pair.  Equal only to itself.
    """

    __slots__ = ("row_messages", "col_messages", "joint", "model")

    def __init__(self, row_messages: tuple[Sentence, ...],
                 col_messages: tuple[Sentence, ...],
                 joint: tuple[tuple[float, ...], ...], model: InductiveModel):
        rows, cols = len(row_messages), len(col_messages)
        if len(joint) != rows or any(len(r) != cols for r in joint):
            raise ValueError("joint matrix shape must match the messages")
        flat = [x for row in joint for x in row]
        if any(x < 0 for x in flat):
            raise ValueError("joint weights must be nonnegative")
        if abs(math.fsum(flat) - 1.0) > _NORM_TOL:
            raise ValueError("joint weights must sum to one")
        self.row_messages = row_messages
        self.col_messages = col_messages
        self.joint = joint
        self.model = model


def _expected_pair_content(joint: JointMessageDistribution,
                           sig: UniverseSignature, content) -> ExtremeReal:
    # joint-weighted sum of content(row, column, model), volume-scaled
    terms = []
    for i, s in enumerate(joint.row_messages):
        for j, r in enumerate(joint.col_messages):
            p = joint.joint[i][j]
            if p == 0.0:
                continue
            contrib = content(s, r, joint.model)
            if not contrib.is_zero:
                terms.append(ExtremeReal.from_float(p) * contrib)
    total = xsum(terms)
    return total * ExtremeReal.from_log2(float(sig.volume_exponent))


def cond_cont_entropy(joint: JointMessageDistribution,
                      sig: UniverseSignature) -> ExtremeReal:
    """Expected volume-scaled content the receiver still lacks per pair."""
    return _expected_pair_content(joint, sig, cond_cont_extreme)


def mutual_cont_information(joint: JointMessageDistribution,
                            sig: UniverseSignature) -> ExtremeReal:
    """Expected volume-scaled content shared between the matched messages."""
    return _expected_pair_content(joint, sig, transcont_extreme)


def is_l_exclusive(m1: Sentence, m2: Sentence) -> bool:
    """True when the sentences share no hypothesis (no common world)."""
    if m1.sublang_token != m2.sublang_token:
        raise DomainMismatchError("sentences belong to different sub-languages")
    return not (m1.constituents & m2.constituents)


def is_inductively_independent(m1: Sentence, m2: Sentence, model) -> bool:
    """True when the joint weight factorizes over the two sentences."""
    p1 = model.sentence_probability(m1)
    p2 = model.sentence_probability(m2)
    p12 = model.sentence_probability(m1 & m2)
    return abs(p12 - p1 * p2) <= _NORM_TOL
