"""Posterior engine over existential-kind hypotheses.

Everything here prices hypotheses of the form "exactly these kinds of
individual exist" against an exchangeable evidence summary.  Hypotheses that
assert the same number of kinds share one probability, so the engine works
with width classes rather than the full lattice of 2^K - 1 hypotheses, and
it carries mass in natural-log space so that posteriors within 10^-15000 of
0 or 1 stay distinguishable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DomainMismatchError,
    InconsistentEvidenceError,
    UnsupportedConfigError,
)
from .sublang import Constituent, EvidenceSummary, Sentence, SubLanguage
from .xreal import ExtremeReal, lse

PROPORTIONAL = "proportional"
CONSTANT = "constant"
_LN_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True, slots=True)
class InductiveParams:
    """Smoothing configuration for the whole engine.

    ``lambda_policy`` picks how much prior weight competes with the data:
    "proportional" ties the weight to the width of the hypothesis being
    priced (weight w for a w-kind hypothesis), "constant" uses the fixed
    ``lambda_value`` everywhere.  ``math.inf`` is a legal constant value and
    gives the dogmatic endpoint where every next-case probability collapses
    to 1/k and observations stop mattering.

    ``alpha`` is the prior sample-size weight; 0 gives the uniform prior over
    the 2^K - 1 non-empty hypotheses.  ``force_single_lambda`` makes the
    prior factor reuse the per-width weight instead of the whole-language
    one (they differ only under the proportional policy with alpha > 0).
    """

    lambda_policy: str = PROPORTIONAL
    lambda_value: float | None = None
    alpha: float = 0.0
    force_single_lambda: bool = False

    def __post_init__(self):
        if self.lambda_policy not in (PROPORTIONAL, CONSTANT):
            raise ValueError(f"unknown lambda policy {self.lambda_policy!r}")
        if self.lambda_policy == CONSTANT:
            if self.lambda_value is None:
                raise ValueError("constant policy requires lambda_value")
            if not self.lambda_value > 0:  # also rejects nan
                raise ValueError("lambda_value must be positive")
        elif self.lambda_value is not None:
            raise ValueError("lambda_value applies to the constant policy only")
        if not self.alpha >= 0 or math.isinf(self.alpha):
            raise ValueError("alpha must be finite and >= 0")

    @property
    def dogmatic(self) -> bool:
        """True when smoothing weight is infinite and data are ignored."""
        return self.lambda_policy == CONSTANT and math.isinf(self.lambda_value)

    def lambda_of(self, width: int) -> float:
        if self.lambda_policy == PROPORTIONAL:
            return float(width)
        return self.lambda_value

    def as_json(self) -> dict:
        lam = self.lambda_value
        if lam is not None and math.isinf(lam):
            lam = "inf"
        return {
            "lambda_policy": self.lambda_policy,
            "lambda_value": lam,
            "alpha": self.alpha,
            "force_single_lambda": self.force_single_lambda,
        }


def _ln_rising(a: float, x: float) -> float:
    # log of the rising factorial x * (x+1) * ... over a steps,
    # Gamma(x + a) / Gamma(x); empty product is 1, and a > 0 at x = 0 is 0
    if a == 0.0:
        return 0.0
    if x == 0.0:
        return -math.inf
    return math.lgamma(x + a) - math.lgamma(x)


def _ln_prior_factor(width: int, big_k: int, params: InductiveParams) -> float:
    # Unnormalized log prior weight of one width-w hypothesis.  In the
    # dogmatic limit the common alpha*log(lambda) part cancels against the
    # normalizer and is dropped before taking the limit.
    if params.dogmatic:
        return params.alpha * math.log(width / big_k)
    lam = params.lambda_of(width if params.force_single_lambda else big_k)
    return _ln_rising(params.alpha, width * lam / big_k)


def _ln_prior_normalizer(big_k: int, params: InductiveParams) -> float:
    return lse(
        math.log(math.comb(big_k, i)) + _ln_prior_factor(i, big_k, params)
        for i in range(1, big_k + 1))


def constituent_prior(width: int, big_k: int,
                      params: InductiveParams | None = None) -> ExtremeReal:
    """Prior probability of one specific hypothesis of the given width."""
    params = params or InductiveParams()
    if not 1 <= width <= big_k:
        raise ValueError(f"width must lie in 1..{big_k}")
    ln = _ln_prior_factor(width, big_k, params) - _ln_prior_normalizer(big_k, params)
    return ExtremeReal.from_ln(ln)


def _ln_likelihood_width(width: int, n: int, counts: Sequence[int],
                         params: InductiveParams) -> float | None:
    # Closed form of the sequential next-case product for a compatible
    # width-w hypothesis; None encodes exact probability zero.
    if width < len(counts):
        return None
    if n == 0:
        return 0.0
    if params.dogmatic:
        return -n * math.log(width)
    lam = params.lambda_of(width)
    per_cell = lam / width
    acc = math.lgamma(lam) - math.lgamma(n + lam)
    for n_j in counts:
        acc += math.lgamma(n_j + per_cell) - math.lgamma(per_cell)
    return acc


def constituent_likelihood(constituent: Constituent, summary: EvidenceSummary,
                           params: InductiveParams | None = None) -> ExtremeReal:
    """Probability of the evidence sequence under one fixed hypothesis.

    Exemplified kinds occupy cells 0..c-1 by construction; a hypothesis that
    omits any of them assigns the evidence probability exactly zero.
    """
    params = params or InductiveParams()
    if any(not 0 <= k < summary.big_k for k in constituent.kinds):
        raise DomainMismatchError("hypothesis mentions cells outside the language")
    if not set(range(summary.c)) <= constituent.kinds:
        return ExtremeReal.zero()
    ln = _ln_likelihood_width(constituent.width, summary.n, summary.counts, params)
    if ln is None:
        return ExtremeReal.zero()
    return ExtremeReal.from_ln(ln)


@dataclass(frozen=True, slots=True)
class WidthClass:
    """One equivalence class of hypotheses sharing a width."""

    width: int
    size: int                 # number of compatible hypotheses of this width
    ln_each: float            # log unnormalized mass of any single one
    posterior_each: float
    posterior_class: float


class _WidthTable:
    """Log-domain mass bookkeeping shared by posterior and predictive code."""

    __slots__ = ("big_k", "n", "c", "classes", "ln_z", "_by_width")

    def __init__(self, n: int, c: int, counts: Sequence[int], big_k: int,
                 params: InductiveParams):
        rows = []
        for w in range(max(c, 1), big_k + 1):
            ln_lik = _ln_likelihood_width(w, n, counts, params)
            if ln_lik is None:
                continue
            ln_each = _ln_prior_factor(w, big_k, params) + ln_lik
            if ln_each == -math.inf:
                continue
            size = math.comb(big_k - c, w - c)
            rows.append((w, size, math.log(size), ln_each))
        if not rows:
            raise InconsistentEvidenceError(
                f"no hypothesis is compatible with the evidence (c={c}, "
                f"K={big_k}); the posterior normalizer is zero")
        self.big_k = big_k
        self.n = n
        self.c = c
        self.ln_z = lse(ln_each + ln_size for _, _, ln_size, ln_each in rows)
        classes = []
        for w, size, ln_size, ln_each in rows:
            # class mass stays in log space: size can exceed any float
            classes.append(WidthClass(w, size, ln_each,
                                      math.exp(ln_each - self.ln_z),
                                      math.exp(ln_each + ln_size - self.ln_z)))
        self.classes = tuple(classes)
        self._by_width = {cl.width: cl for cl in classes}

    def get(self, width: int) -> WidthClass | None:
        return self._by_width.get(width)

    def ln_mass(self, width_counts: dict[int, int]) -> float:
        """Log total mass of a bag of hypotheses given as width -> count."""
        terms = [self._by_width[w].ln_each + math.log(m)
                 for w, m in width_counts.items() if m > 0 and w in self._by_width]
        if not terms:
            return -math.inf
        return lse(terms)


class InductiveModel:
    """Posterior engine bound to one sub-language and one evidence summary.

    The summary may be overridden (for example by a rescaled evidence
    volume); it must describe the same cell structure as the sub-language,
    or be the empty summary (c = 0), which makes the posterior the prior.
    """

    def __init__(self, sublang: SubLanguage,
                 params: InductiveParams | None = None,
                 summary: EvidenceSummary | None = None):
        summary = summary or sublang.summary
        if summary.big_k != sublang.big_k or summary.c not in (0, sublang.summary.c):
            raise DomainMismatchError(
                "evidence summary does not match the sub-language shape")
        self.sublang = sublang
        self.params = params or InductiveParams()
        self.summary = summary
        self._table = _WidthTable(summary.n, summary.c, summary.counts,
                                  summary.big_k, self.params)

    # -- width-class views ------------------------------------------------

    @property
    def big_k(self) -> int:
        return self.summary.big_k

    @property
    def ln_normalizer(self) -> float:
        return self._table.ln_z

    def width_classes(self) -> tuple[WidthClass, ...]:
        return self._table.classes

    def unit_posterior(self, width: int) -> float:
        """Posterior of any single compatible hypothesis of that width."""
        cl = self._table.get(width)
        return 0.0 if cl is None else cl.posterior_each

    # -- single hypotheses ------------------------------------------------

    def _compatible(self, constituent: Constituent) -> bool:
        if any(not 0 <= k < self.big_k for k in constituent.kinds):
            raise DomainMismatchError(
                "hypothesis mentions cells outside the language")
        return set(range(self.summary.c)) <= constituent.kinds

    def constituent_posterior(self, constituent: Constituent) -> ExtremeReal:
        if not self._compatible(constituent):
            return ExtremeReal.zero()
        cl = self._table.get(constituent.width)
        if cl is None:
            return ExtremeReal.zero()
        return ExtremeReal.from_ln(cl.ln_each - self._table.ln_z)

    # -- sentences --------------------------------------------------------

    def _own(self, sentence: Sentence) -> None:
        if sentence.sublang_token != self.sublang.token:
            raise DomainMismatchError("sentence belongs to a different sub-language")

    def member_width_counts(self, sentence: Sentence) -> dict[int, int]:
        """How many compatible member hypotheses the sentence holds, by width."""
        self._own(sentence)
        need = set(range(self.summary.c))
        counts: dict[int, int] = {}
        for member in sentence.constituents:
            if need <= member.kinds:
                counts[member.width] = counts.get(member.width, 0) + 1
        return counts

    def complement_width_counts(self, counts: dict[int, int]) -> dict[int, int]:
        """Member counts of the negation, given member counts of a sentence."""
        out = {}
        for cl in self._table.classes:
            missing = cl.size - counts.get(cl.width, 0)
            if missing < 0:
                raise ValueError("width count exceeds the class size")
            if missing:
                out[cl.width] = missing
        return out

    def probability_terms(self, counts: dict[int, int]) -> list[float]:
        """Per-class posterior contributions for a width -> count bag."""
        terms = []
        for w, m in sorted(counts.items()):
            cl = self._table.get(w)
            if cl is not None and m > 0:
                terms.append(m * cl.posterior_each)
        return terms

    def sentence_probability(self, sentence: Sentence) -> float:
        return math.fsum(self.probability_terms(self.member_width_counts(sentence)))

    def complement_probability_extreme(self, sentence: Sentence) -> ExtremeReal:
        """Posterior mass of everything outside the sentence, summed directly.

        Never evaluates 1 - p, so it stays meaningful when p is within
        10^-15000 of one.
        """
        counts = self.complement_width_counts(self.member_width_counts(sentence))
        ln = self._table.ln_mass(counts)
        if ln == -math.inf:
            return ExtremeReal.zero()
        return ExtremeReal.from_ln(ln - self._table.ln_z)

    def ln_unit_complement(self, width: int) -> float:
        """Log posterior mass of everything except one width-w hypothesis."""
        cl = self._table.get(width)
        if cl is None:
            return 0.0  # the hypothesis has mass zero, the rest has it all
        terms = []
        for other in self._table.classes:
            size = other.size - 1 if other.width == width else other.size
            if size > 0:
                terms.append(other.ln_each + math.log(size))
        if not terms:
            return -math.inf
        return lse(terms) - self._table.ln_z

    def report(self) -> dict:
        widths = [cl.width for cl in self._table.classes]
        return {
            "params": self.params.as_json(),
            "widths": widths,
            "posterior_by_width": [cl.posterior_class for cl in self._table.classes],
            "c": self.summary.c,
            "n": self.summary.n,
        }


def constituent_posterior(constituent: Constituent, summary: EvidenceSummary,
                          params: InductiveParams | None = None) -> ExtremeReal:
    """Posterior of one hypothesis given an evidence summary."""
    params = params or InductiveParams()
    if any(not 0 <= k < summary.big_k for k in constituent.kinds):
        raise DomainMismatchError("hypothesis mentions cells outside the language")
    table = _WidthTable(summary.n, summary.c, summary.counts, summary.big_k, params)
    if not set(range(summary.c)) <= constituent.kinds:
        return ExtremeReal.zero()
    cl = table.get(constituent.width)
    if cl is None:
        return ExtremeReal.zero()
    return ExtremeReal.from_ln(cl.ln_each - table.ln_z)


# -- predictive probabilities ---------------------------------------------


def _ln_marginal(n: int, c: int, counts: Sequence[int], big_k: int) -> float:
    # Log marginal likelihood of the evidence under the proportional policy
    # with alpha = 0 (the uniform prior normalizer is dropped; it cancels in
    # every ratio this feeds).
    terms = []
    for w in range(max(c, 1), big_k + 1):
        terms.append(math.log(math.comb(big_k - c, w - c))
                     + math.lgamma(w) - math.lgamma(n + w))
    base = lse(terms)
    return base + math.fsum(math.lgamma(n_j + 1) for n_j in counts)


def predictive_probability(model: InductiveModel, kind: int) -> float:
    """Closed-form next-case probability of a kind, as a marginal ratio.

    Implemented for the proportional policy with alpha = 0, where the ratio
    of marginal evidence likelihoods closes in terms of factorials; other
    configurations raise UnsupportedConfigError.
    """
    params = model.params
    if params.lambda_policy != PROPORTIONAL or params.alpha != 0.0:
        raise UnsupportedConfigError(
            "closed-form predictive probability covers the proportional "
            "policy with alpha=0 only")
    s = model.summary
    if not 0 <= kind < s.big_k:
        raise ValueError(f"kind must lie in 0..{s.big_k - 1}")
    if kind < s.c:
        ext = list(s.counts)
        ext[kind] += 1
        ln_num = _ln_marginal(s.n + 1, s.c, ext, s.big_k)
    else:
        ln_num = _ln_marginal(s.n + 1, s.c + 1, list(s.counts) + [1], s.big_k)
    return math.exp(ln_num - _ln_marginal(s.n, s.c, s.counts, s.big_k))


# -- sample-complexity bounds ---------------------------------------------


def pac_error(k: int, n: float, alpha: float = 0.0,
              c: int | None = None) -> float:
    """Upper bound on the posterior odds against the exact-evidence hypothesis.

    With ``c`` given, the bound conditions on that many exemplified kinds:
    sum over i >= 1 of C(k-c, i) * (c / (c+i))^(n-alpha).  Without ``c`` the
    worst case over c = 0..k-1 is returned.  Requires n > alpha.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not n > alpha:
        raise ValueError("the bound needs n > alpha")
    if c is None:
        return max(pac_error(k, n, alpha, c=cc) for cc in range(k))
    if not 0 <= c <= k:
        raise ValueError(f"c must lie in 0..{k}")
    expo = n - alpha
    try:
        return math.fsum(math.comb(k - c, i) * (c / (c + i)) ** expo
                         for i in range(1, k - c + 1))
    except OverflowError:  # a binomial or the sum leaves the float range
        pass
    if c == 0:
        return 0.0
    ln_odds = lse(math.log(math.comb(k - c, i)) + expo * math.log(c / (c + i))
                  for i in range(1, k - c + 1))
    return math.exp(ln_odds) if ln_odds < _LN_FLOAT_MAX else math.inf


def pac_sample_bound(k: int, alpha: float, epsilon: float) -> int:
    """Least n with the worst-case posterior error guaranteed below epsilon.

    The posterior error 1 - p is below epsilon as soon as the odds bound of
    :func:`pac_error` falls below epsilon / (1 - epsilon); this searches for
    that n by doubling then bisection.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    eps_odds = epsilon / (1.0 - epsilon)
    lo = math.floor(alpha) + 1
    if pac_error(k, lo, alpha) <= eps_odds:
        return lo
    hi = 2 * lo
    while pac_error(k, hi, alpha) > eps_odds:
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pac_error(k, mid, alpha) <= eps_odds:
            hi = mid
        else:
            lo = mid
    return hi


# -- convergence traces ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class ConvergencePoint:
    n: int
    c_seen: int
    posterior: float


@dataclass(frozen=True, slots=True)
class ConvergenceReport:
    """Posterior trace of the exact-evidence hypothesis along a stream."""

    big_k: int
    threshold: float
    points: tuple[ConvergencePoint, ...]
    reached_at: int | None
    eventually_monotone: bool
    pac_consistent: bool
    final_posterior: float

    def as_json(self) -> dict:
        return {
            "big_k": self.big_k,
            "threshold": self.threshold,
            "reached_at": self.reached_at,
            "eventually_monotone": self.eventually_monotone,
            "pac_consistent": self.pac_consistent,
            "final_posterior": self.final_posterior,
            "trace": [{"n": p.n, "c": p.c_seen, "posterior": p.posterior}
                      for p in self.points],
        }


def check_convergence(kinds: Iterable[int], big_k: int,
                      params: InductiveParams | None = None,
                      threshold: float = 0.99) -> ConvergenceReport:
    """Track the exact-evidence hypothesis across every prefix of a stream.

    ``kinds`` is the observation sequence as cell ids.  The report records
    the posterior after each prefix, whether the trace is nondecreasing once
    the last new kind has appeared, and whether the final value is
    consistent with the odds bound of :func:`pac_error` evaluated at the
    final (n, c).
    """
    params = params or InductiveParams()
    seq = list(kinds)
    if not seq:
        raise ValueError("need at least one observation")
    if any(not 0 <= k < big_k for k in seq):
        raise ValueError(f"kind ids must lie in 0..{big_k - 1}")

    counts: dict[int, int] = {}
    points: list[ConvergencePoint] = []
    last_growth = 1
    for t, kind in enumerate(seq, start=1):
        if kind not in counts:
            counts[kind] = 0
            last_growth = t
        counts[kind] += 1
        c = len(counts)
        table = _WidthTable(t, c, tuple(counts.values()), big_k, params)
        cl = table.get(c)
        points.append(ConvergencePoint(t, c, cl.posterior_each))

    reached_at = next((p.n for p in points if p.posterior >= threshold), None)
    tail = [p.posterior for p in points[last_growth - 1:]]
    monotone = all(b >= a - 1e-12 for a, b in zip(tail, tail[1:]))

    final = points[-1]
    pac_ok = False
    if final.n > params.alpha:
        bound = pac_error(big_k, final.n, params.alpha, c=final.c_seen)
        limit = bound / (1.0 + bound) if bound < math.inf else 1.0
        pac_ok = (1.0 - final.posterior) <= limit * (1.0 + 1e-9) + 1e-15
    return ConvergenceReport(
        big_k=big_k,
        threshold=threshold,
        points=tuple(points),
        reached_at=reached_at,
        eventually_monotone=monotone,
        pac_consistent=pac_ok,
        final_posterior=final.posterior,
    )
