"""Posterior engine over existential-kind hypotheses.

Everything here prices hypotheses of the form "exactly these kinds of
individual exist" against an exchangeable evidence summary.  Hypotheses
claiming the same number of kinds share one probability, so the engine works
with width classes rather than the full lattice of 2^K - 1 hypotheses, and
it carries mass in natural-log space so that posteriors within 10^-15000 of
0 or 1 stay distinguishable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainMismatchError, InconsistentEvidenceError
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
    the 2^K - 1 non-empty hypotheses.
    """

    lambda_policy: str = PROPORTIONAL
    lambda_value: float | None = None
    alpha: float = 0.0

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
    lam = params.lambda_of(big_k)
    return _ln_rising(params.alpha, width * lam / big_k)


def constituent_prior(width: int, big_k: int,
                      params: InductiveParams | None = None) -> ExtremeReal:
    """Prior probability of one specific hypothesis of the given width."""
    params = params or InductiveParams()
    if not 1 <= width <= big_k:
        raise ValueError(f"width must lie in 1..{big_k}")
    return _WidthTable(0, 0, (), big_k, params).unit(width)


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


def _holds_evidence(constituent: Constituent, summary: EvidenceSummary) -> bool:
    # exemplified kinds occupy cells 0..c-1 by construction
    if any(not 0 <= k < summary.big_k for k in constituent.kinds):
        raise DomainMismatchError("hypothesis mentions cells outside the language")
    return set(range(summary.c)) <= constituent.kinds


def constituent_likelihood(constituent: Constituent, summary: EvidenceSummary,
                           params: InductiveParams | None = None) -> ExtremeReal:
    """Probability of the evidence sequence under one fixed hypothesis.

    A hypothesis that omits any exemplified kind assigns the evidence
    probability exactly zero.
    """
    params = params or InductiveParams()
    if not _holds_evidence(constituent, summary):
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
    """The one place that sums hypothesis mass, in log space.

    Prior, posterior, predictive and every content measure read their mass
    from a table: the prior is the table of the empty evidence, and a
    predictive probability is the ratio of two tables' normalizers.
    """

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

    def unit(self, width: int) -> ExtremeReal:
        """Posterior of any single compatible hypothesis of that width."""
        cl = self._by_width.get(width)
        if cl is None:
            return ExtremeReal.zero()
        return ExtremeReal.from_ln(cl.ln_each - self.ln_z)

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

    # -- single hypotheses ------------------------------------------------

    def constituent_posterior(self, constituent: Constituent) -> ExtremeReal:
        if not _holds_evidence(constituent, self.summary):
            return ExtremeReal.zero()
        return self._table.unit(constituent.width)

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

    def ln_probability(self, counts: dict[int, int]) -> float:
        """Log posterior mass of a width -> count bag; -inf when it is empty."""
        return self._table.ln_mass(counts) - self._table.ln_z

    def sentence_probability(self, sentence: Sentence) -> float:
        return math.fsum(self.probability_terms(self.member_width_counts(sentence)))

    def complement_probability_extreme(self, sentence: Sentence) -> ExtremeReal:
        """Posterior mass of everything outside the sentence, summed directly.

        Never evaluates 1 - p, so it stays meaningful when p is within
        10^-15000 of one.
        """
        counts = self.complement_width_counts(self.member_width_counts(sentence))
        return ExtremeReal.from_ln(self.ln_probability(counts))

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
    holds = _holds_evidence(constituent, summary)
    table = _WidthTable(summary.n, summary.c, summary.counts, summary.big_k, params)
    return table.unit(constituent.width) if holds else ExtremeReal.zero()


# -- predictive probabilities ---------------------------------------------


def predictive_probability(model: InductiveModel, kind: int) -> float:
    """Next-case probability of a kind, as a ratio of evidence marginals.

    The numerator is the normalizer of the width table with the next case
    appended to the evidence; an unseen kind takes the next free cell.
    Exact under every smoothing configuration.
    """
    s = model.summary
    if not 0 <= kind < s.big_k:
        raise ValueError(f"kind must lie in 0..{s.big_k - 1}")
    counts = list(s.counts)
    if kind < s.c:
        counts[kind] += 1
    else:
        counts.append(1)
    table = _WidthTable(s.n + 1, len(counts), counts, s.big_k, model.params)
    return math.exp(table.ln_z - model.ln_normalizer)


# -- sample-complexity bounds ---------------------------------------------


def pac_error(k: int, n: float, alpha: float = 0.0,
              c: int | None = None) -> float:
    """Upper bound on the posterior odds against the exact-evidence hypothesis.

    With ``c`` given, the bound conditions on that many exemplified kinds:
    sum over i >= 1 of C(k-c, i) * (c / (c+i))^(n-alpha).  Without ``c`` the
    worst case over c = 0..k-1 is returned.  Requires a finite alpha >= 0
    and n > alpha.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and >= 0")
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
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and >= 0")
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
