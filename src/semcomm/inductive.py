"""Posterior engine over existential-kind hypotheses.

Everything here prices hypotheses of the form "exactly these kinds of
individual exist" against an exchangeable evidence summary.  Hypotheses
claiming the same number of kinds share one probability, so the engine works
with width classes rather than the full lattice of 2^K - 1 hypotheses, and
it carries mass in natural-log space so that posteriors within 10^-15000 of
0 or 1 stay distinguishable.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import sub
from typing import Iterable, NamedTuple, Sequence

from .errors import (CapacityError, DomainMismatchError,
                     InconsistentEvidenceError, clip)
from .sublang import Constituent, EvidenceSummary, Sentence, SubLanguage
from .xreal import ExtremeReal, lse

_LN_FLOAT_MAX = math.log(sys.float_info.max)
_LN_FLOAT_MIN = math.log(sys.float_info.min)  # the least normal float


@dataclass(frozen=True, slots=True)
class InductiveParams:
    """Smoothing configuration for the whole engine.

    ``lambda_value`` is how much prior weight competes with the data: None,
    the default, ties it to the width of the hypothesis being priced
    (weight w for a w-kind hypothesis); a positive number is one constant
    weight everywhere.  ``math.inf`` is a legal constant and gives the
    dogmatic endpoint where every next-case probability collapses to 1/k
    and observations stop mattering.

    ``alpha`` is the prior sample-size weight; 0 gives the uniform prior over
    the 2^K - 1 non-empty hypotheses.
    """

    lambda_value: float | None = None
    alpha: float = 0.0

    def __post_init__(self):
        if self.lambda_value is not None and not self.lambda_value > 0:  # or nan
            raise ValueError("lambda_value must be None or positive")
        if not self.alpha >= 0 or math.isinf(self.alpha):
            raise ValueError("alpha must be finite and >= 0")

    @property
    def dogmatic(self) -> bool:
        """True when smoothing weight is infinite and data are ignored."""
        return self.lambda_value == math.inf

    def lambda_of(self, width: int) -> float:
        if self.lambda_value is None:
            return float(width)
        return self.lambda_value


_STIRLING_MIN = 32.0
# lambda/K, the least share of a cell any width gives, must reach this: a
# subnormal below 2^-1044 keeps under 30 bits, and its log errs past 1e-9
_MIN_SHARE = math.ldexp(1.0, -1044)


def _ln_rising(a: float, x: float) -> float:
    # log of the rising factorial x * (x+1) * ... over a steps,
    # Gamma(x + a) / Gamma(x); empty product is 1, and a > 0 at x = 0 is 0
    if a == 0.0:
        return 0.0
    if x == 0.0:
        return -math.inf
    if x < _STIRLING_MIN:
        return math.lgamma(x + a) - math.lgamma(x)
    # For large x the two lgammas cancel (at x = 1e300 both read the same
    # float), so take their difference from Stirling's series, whose
    # omitted terms are below 1e-16 from x = 32 on.
    y = x + a
    out = ((x - 0.5) * math.log1p(a / x) + a * math.log(y) - a
           + _stirling_tail(y) - _stirling_tail(x))
    if out == math.inf:
        raise OverflowError("rising factorial past the float range")
    return out


def _stirling_tail(z: float) -> float:
    # lgamma(z) - (z - 1/2) ln z + z - ln(2 pi) / 2, four terms, z >= 32
    r = 1.0 / z
    r2 = r * r
    return r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 / 1680)))


def _ln_prior_factor(width: int, big_k: int, params: InductiveParams) -> float:
    # Unnormalized log prior weight of one width-w hypothesis.  In the
    # dogmatic limit the common alpha*log(lambda) part cancels against the
    # normalizer and is dropped before taking the limit.
    if params.dogmatic:
        return params.alpha * math.log(width / big_k)
    lam = params.lambda_of(big_k)
    if lam / big_k < _MIN_SHARE:
        raise CapacityError(f"lambda={lam!r} is too small to price: lambda/K "
                            "is below the float precision")
    try:
        return _ln_rising(params.alpha, width * lam / big_k)
    except OverflowError:
        raise CapacityError(f"alpha={params.alpha!r} is past the float range "
                            "of the prior") from None


def constituent_prior(width: int, big_k: int,
                      params: InductiveParams | None = None) -> ExtremeReal:
    """Prior probability of one specific hypothesis of the given width."""
    params = params or InductiveParams()
    if not 1 <= width <= big_k:
        raise ValueError(f"width must lie in 1..{big_k}")
    return _WidthTable(0, 0, (), big_k, params).unit(width)


def ln_likelihood_width(width: int, n: int, counts: Iterable[int],
                        params: InductiveParams) -> float:
    """Log probability of n observations with the given kind counts under
    a compatible width-w hypothesis, one that holds every one of the
    len(counts) kinds: the closed form of the sequential next-case
    product.  At lambda(w) = w that next-case rule is the add-one price
    (n_j + 1) / (t + w), so ``lossless`` prices its sections here too.
    The cells are summed in ascending order of count, so the value is one
    float whatever order the kinds were first seen in."""
    if n == 0:
        return 0.0
    lam = params.lambda_of(width)
    if not params.dogmatic:
        return _ln_likelihood_cells(n, lam, _cell_terms(n, counts, lam / width))
    try:
        return -n * math.log(width)
    except OverflowError:  # an int count that no float holds
        raise _range_error(n) from None


def _cell_terms(n: int, counts: Iterable[int], per_cell: float) -> list[float]:
    # one rising factorial per cell, in ascending order of count
    try:
        return [_ln_rising(n_j, per_cell) for n_j in sorted(counts)]
    except OverflowError:
        raise _range_error(n) from None


def _ln_likelihood_cells(n: int, lam: float, cells: list[float]) -> float:
    # the rising factorial for the total count, then the cells in order
    try:
        acc = -_ln_rising(n, lam)
    except OverflowError:
        raise _range_error(n) from None
    for term in cells:
        acc += term
    return acc


def _range_error(n: int) -> CapacityError:
    return CapacityError(f"{clip(str(n))} observations are past the float "
                         "range of the likelihood")


def _holds_evidence(constituent: Constituent, summary: EvidenceSummary) -> bool:
    # exemplified kinds occupy cells 0..c-1 by construction
    if any(not 0 <= k < summary.big_k for k in constituent):
        raise DomainMismatchError("hypothesis mentions cells outside the language")
    return set(range(summary.c)) <= constituent


def constituent_likelihood(constituent: Constituent, summary: EvidenceSummary,
                           params: InductiveParams | None = None) -> ExtremeReal:
    """Probability of the evidence sequence under one fixed hypothesis.

    A hypothesis that omits any exemplified kind assigns the evidence
    probability exactly zero.
    """
    params = params or InductiveParams()
    if not _holds_evidence(constituent, summary):
        return ExtremeReal.zero()
    return ExtremeReal.from_ln(
        ln_likelihood_width(len(constituent), summary.n, summary.counts, params))


@dataclass(frozen=True, slots=True)
class WidthClass:
    """One equivalence class of hypotheses sharing a width."""

    width: int
    size: int                 # number of compatible hypotheses of this width
    ln_each: float            # log unnormalized mass of any single one
    posterior_each: float


def _precision_error(total: float, n: int, alpha: float) -> CapacityError:
    # the log masses grow as alpha ln alpha and n ln n: blame the larger
    what = (f"alpha={alpha!r} is" if alpha > n
            else f"{clip(str(n))} observations are")
    return CapacityError(f"{what} past the float precision of the "
                         f"posterior: it sums to {total:.3g}")


class _WidthTable:
    """The one place that sums hypothesis mass, in log space.

    Prior, posterior, predictive and every content measure read their mass
    from a table: the prior is the table of the empty evidence, and a
    predictive probability is the ratio of two tables' normalizers.
    """

    __slots__ = ("classes", "ln_z", "_by_width")

    def __init__(self, n: int, c: int, counts: Sequence[int], big_k: int,
                 params: InductiveParams):
        rows = []
        # under lambda(w) = w every cell's term is the same at every width,
        # so it is computed once and added in ln_likelihood_width's order
        shared = (_cell_terms(n, counts, 1.0)
                  if n and params.lambda_value is None else None)
        for w in range(max(c, 1), big_k + 1):
            ln_lik = (ln_likelihood_width(w, n, counts, params) if shared is None
                      else _ln_likelihood_cells(n, float(w), shared))
            ln_each = _ln_prior_factor(w, big_k, params) + ln_lik
            # the dogmatic prior alpha ln(w/K) overflows to -inf for a huge
            # alpha: such a width holds no mass, and its 0 * ln 0 would be nan
            if ln_each == -math.inf:
                continue
            size = math.comb(big_k - c, w - c)
            rows.append((w, size, ln_each))
        if not rows:
            raise InconsistentEvidenceError(
                f"no hypothesis is compatible with the evidence (c={c}, "
                f"K={big_k}); the posterior normalizer is zero")
        # class mass stays in log space: size can exceed any float
        ln_masses = [ln_each + math.log(size) for _, size, ln_each in rows]
        self.ln_z = lse(ln_masses)
        # every posterior carries the rounding of ln z, |ln z| * 2^-52:
        # 5e-9 on story1 at 10^8 observations, all of it from about 10^20
        total = math.fsum(math.exp(v - self.ln_z) for v in ln_masses)
        if abs(total - 1.0) > 1e-6:
            raise _precision_error(total, n, params.alpha)
        self.classes = tuple(WidthClass(w, size, ln_each,
                                        math.exp(ln_each - self.ln_z))
                             for w, size, ln_each in rows)
        self._by_width = {cl.width: cl for cl in self.classes}

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

    @property
    def width_classes(self) -> tuple[WidthClass, ...]:
        return self._table.classes

    # -- sentences --------------------------------------------------------

    def _own(self, sentence: Sentence) -> None:
        if sentence.sublang_token != self.sublang.token:
            raise DomainMismatchError("sentence belongs to a different sub-language")

    def member_width_counts(self, sentence: Sentence) -> dict[int, int]:
        """How many compatible member hypotheses the sentence holds, by width."""
        self._own(sentence)
        need = set(range(self.summary.c))
        return Counter(len(m) for m in sentence.constituents if need <= m)

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


def constituent_posterior(constituent: Constituent, summary: EvidenceSummary,
                          params: InductiveParams | None = None) -> ExtremeReal:
    """Posterior of one hypothesis given an evidence summary."""
    params = params or InductiveParams()
    holds = _holds_evidence(constituent, summary)
    table = _WidthTable(summary.n, summary.c, summary.counts, summary.big_k, params)
    return table.unit(len(constituent)) if holds else ExtremeReal.zero()


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


_TAIL = 2.0 ** -60  # a c-sum stops once its tail is below this share of it
# pac_error sums every c in full up to this many cells.  Past it the search
# over c stops each sum at its 2^-60 tail, so moving the limit would change
# output bits, and that alone keeps it at 15.  When it was set, timed on
# the pac command's table (epsilon 1e-3, alternating in-process runs, 2-core
# Xeon), a bisection over c per row was 1.9-2.5x slower than the full sums
# at K = 3-5, 1.2-1.3x slower at 8-9, even at 10-11, 17-23% faster at
# 12-14, 1.5-2x faster at 15-16 and 12x at 80.  The search now starts at
# c = 1, or in a table at the row before's peak, at about three scans and
# one exact sum a row.
_DIRECT_MAX_K = 15


@functools.lru_cache(maxsize=4)
def _ln_tables(k: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # ln i! and ln i for i <= k, with ln 0 (never read) as 0
    return (tuple(math.lgamma(i + 1) for i in range(k + 1)),
            (0.0,) + tuple(math.log(i) for i in range(1, k + 1)))


def _pac_scan(m: int, c: int, expo: float) -> tuple[int, float]:
    # Walks the terms T_i = C(m, i) * (c / (c+i))^expo of one c-sum, scaled
    # by the largest so far, and returns how many to keep and the log of
    # their sum.  From term i + 1 on, the term ratio is at most
    # R = (m-i-1)/(i+2) * ((c+m-1)/(c+m))^expo, so once R < 1 the tail is at
    # most T_{i+1} / (1 - R); the sum stops when that is below 2^-60 of the
    # part summed, far under half an ulp of the result.
    lf, ln_int = _ln_tables(m + c)
    rho = math.exp(expo * math.log1p(-1 / (c + m)))
    ln_top = lf[m] + expo * ln_int[c]
    ln_ref = ln_top - lf[m - 1] - expo * ln_int[c + 1]
    part, nxt = 0.0, 1.0
    # R >= 1 before term i0, so no tail test can pass there
    i0 = max(1, min(m, math.ceil((m * rho - rho - 2) / (1 + rho))))
    for i in range(1, m):
        part += nxt
        ln_next = ln_top - lf[i + 1] - lf[m - i - 1] - expo * ln_int[c + i + 1]
        if ln_next > ln_ref:
            part *= math.exp(ln_ref - ln_next)
            ln_ref = ln_next
        nxt = math.exp(ln_next - ln_ref)
        if i < i0:
            continue
        ratio = (m - i - 1) / (i + 2) * rho
        if ratio < 1.0:
            tail = nxt / (1.0 - ratio)
            if tail < part * _TAIL:
                return i, ln_ref + math.log(part)
    return m, ln_ref + math.log(part + nxt)


def _pac_sum(m: int, c: int, expo: float, terms: int) -> float:
    # the first `terms` terms, with exact binomials, as the float route of
    # fsum; the log route takes sums past the float range, and sums whose
    # last and least power (c/(c+terms))^expo is subnormal, which keeps no
    # relative precision
    binoms, binom = [], 1
    for i in range(1, terms + 1):
        binom = binom * (m - i + 1) // i
        binoms.append(binom)
    if (c / (c + terms)) ** expo >= sys.float_info.min:
        try:
            return math.fsum(b * (c / (c + i)) ** expo
                             for i, b in enumerate(binoms, start=1))
        except OverflowError:  # a binomial or the sum leaves the float range
            pass
    ln_odds = lse(math.log(b) + expo * math.log(c / (c + i))
                  for i, b in enumerate(binoms, start=1))
    return math.exp(ln_odds) if ln_odds < _LN_FLOAT_MAX else math.inf


def _check_pac(k: int, alpha: float) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and >= 0")


def _exponent(n: float, alpha: float) -> float:
    if not n > alpha:
        raise ValueError("the bound needs n > alpha")
    # n - alpha in one float rounds once n passes 2^53; the integer parts
    # cancel exactly first
    whole = math.floor(alpha)
    return (n - whole) - (alpha - whole)


def _worst_error(k: int, expo: float,
                 hint: int | None = 1) -> tuple[float, int | None]:
    # The worst case over c of the odds bound, and the c where the search
    # over c stopped, which seeds the search at the next exponent (None on
    # the direct route; a None hint counts as 1).  c = 0 contributes
    # nothing.  Up to _DIRECT_MAX_K every sum is taken in full (see there
    # why).
    if k <= _DIRECT_MAX_K:
        return max((_pac_sum(k - cc, cc, expo, k - cc) for cc in range(1, k)),
                   default=0.0), None
    # Beyond it, S(c) = sum_{i=1..k-c} C(k-c, i) (c/(c+i))^x, x = expo > 0,
    # is unimodal in c, so a search on its slope finds the largest.
    # Proof:
    # 1. A ratio of two Laplace transforms.  Put
    #    (1 + i/c)^-x = Gamma(x)^-1 int_0^inf t^(x-1) e^(-t(1 + i/c)) dt
    #    into S(c) + 1, sum over i by the binomial theorem, then substitute
    #    t = cs and u = ln(1 + e^s).  That gives S(c) + 1 = F(c), where
    #    F(c) = L[g](c) / L[h](c) is defined for every real c > 0, L is the
    #    Laplace transform, h(u) = u^(x-1), and
    #    g(u) = ln(e^u - 1)^(x-1) (e^u/(e^u - 1))^(k+1) for u > ln 2, and
    #    g(u) = 0 below ln 2.
    # 2. r = g/h rises at most once, then falls, on (ln 2, inf).  With
    #    v = e^u - 1 > 1, d ln r/du = (x-1) A(v) - (k+1)/v, where
    #    A(v) = (1+v)/(v ln v) - 1/ln(1+v) > 0, and v A(v) strictly
    #    decreases: with a = ln v < b = ln(1+v), its derivative is
    #    (1/a - 1/b)(1 - 1/a - 1/b) - 1/(v a^2) - 1/((1+v) b^2), which is
    #    negative because 0 < 1/a - 1/b < 1/(v a b) < 1/(v a^2), as
    #    b - a = ln(1 + 1/v) < 1/v.  So r rises then falls when x > 1, and
    #    only falls when x <= 1.
    # 3. Every superlevel set of F is an interval.  For each lambda > 0,
    #    g - lambda h is -lambda h < 0 below ln 2 and h (r - lambda) above,
    #    so it has the sign pattern -,+,- or a part of it.  The
    #    kernel e^(-cu) is totally positive in (c, -u), so by the
    #    variation-diminishing property (Karlin, Total Positivity, 1968)
    #    F(c) - lambda changes sign in c at most as often as g - lambda h,
    #    in the same order; -,+,- reads the same both ways.
    # F is analytic and not constant (F(k) = 1, and F -> 0 as c -> inf), so
    # it strictly rises, then strictly falls, either part possibly empty.
    # So S does on c = 1..k-1, and comparing two neighbours tells on which
    # side of them the largest is.  The search compares the sums' logs.
    scans: dict[int, tuple[int, float]] = {}

    def scan(cc: int) -> tuple[int, float]:
        got = scans.get(cc)
        if got is None:
            got = scans[cc] = _pac_scan(k - cc, cc, expo)
        return got

    def falls(cc: int) -> bool:
        # S(cc) >= S(cc + 1): false below the peak, true from it on, so a
        # search from any hint finds the same first true c; S(0) = 0 rises
        if cc < 1:
            return False
        return cc >= k - 1 or scan(cc)[1] >= scan(cc + 1)[1]

    # Exponential search (Bentley and Yao 1976): step away from the hint by
    # 1, 2, 4, ... until falls() turns, then bisect the last step for the
    # first true c.  A peak that stayed put costs three scans, and one at c*
    # costs O(log c*) scans from the default hint of 1.
    lo = hi = min(max(hint or 1, 1), k - 1)
    step = 1
    if falls(hi):
        lo = max(hi - step, 0)
        while falls(lo):
            hi, step = lo, 2 * step
            lo = max(hi - step, 0)
    else:
        hi = min(lo + step, k - 1)
        while not falls(hi):
            lo, step = hi, 2 * step
            hi = min(lo + step, k - 1)
    lo += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if falls(mid):
            hi = mid
        else:
            lo = mid + 1
    # Neighbours of the peak can tie within their rounding, so the exact
    # sums of c* - 1..c* + 1 decide, but only those whose scan log L lies
    # within delta of the top one's can hold the largest.  L and the log of
    # the exact sum S cover the same terms and differ only by rounding.
    # With u = 2^-53, x = expo and every kept power (c/(c+i))^x a normal
    # float, each is within 64 u (1 + x ln(2K) + ln K!) of the true log:
    # a term's log sums table entries of at most ln K! and x ln K, each to
    # a few u of its size; a rounded base c/(c+i) moves its power by x u;
    # the scan's rescalings lose u per step and per unit of log they climb,
    # at most K + ln K! + x ln K in all, and K <= ln K! from K = 8; the
    # binomials' conversion, the products and fsum add a few u; and the log
    # route, taken below the float max only once a binomial passes it
    # (K > 1,000, ln K! > 5,900), loses u (ln K! + x ln(2K)) in its logs and
    # 710 u in its exp.  delta = 2^-40 (1 + x ln(2K) + ln K!) is 64 times
    # both errors together, so a neighbour whose L lies more than delta
    # under the top holds a smaller S, and max() returns the same float
    # without it.  A sum that keeps a power under 2^-1022 may itself fall
    # below 2^-1022, where no float keeps relative precision, and a top L
    # within delta of ln(float max) may stand for an infinite sum, so then
    # all three sums are taken.
    near = [(cc, *scan(cc))
            for cc in range(max(lo - 1, 1), min(lo + 1, k - 1) + 1)]
    lf, ln_int = _ln_tables(k)
    delta = 2.0 ** -40 * (1.0 + expo * math.log(2 * k) + lf[k])
    top = max(ln_sum for _, _, ln_sum in near)
    if top < _LN_FLOAT_MAX - delta and all(
            expo * (ln_int[cc] - ln_int[cc + terms]) > _LN_FLOAT_MIN + delta
            for cc, terms, _ in near):
        near = [row for row in near if row[2] >= top - delta]
    return max(_pac_sum(k - cc, cc, expo, terms)
               for cc, terms, _ in near), lo


def pac_error(k: int, n: float, alpha: float = 0.0,
              c: int | None = None) -> float:
    """Upper bound on the posterior odds against the exact-evidence hypothesis.

    With ``c`` given, the bound conditions on that many exemplified kinds:
    sum over i >= 1 of C(k-c, i) * (c / (c+i))^(n-alpha).  Without ``c`` the
    worst case over c = 0..k-1 is returned.  Requires a finite alpha >= 0
    and n > alpha.

    A sum stops once its tail is certified below 2^-60 of it.  The sums
    are unimodal in c, so past 15 cells the worst case is an exponential
    search up from c = 1 on the slope of their log-space scans, and only
    the peak's neighbours whose scans lie within rounding of the largest
    are summed exactly; up to 15 every sum is taken in full.
    """
    _check_pac(k, alpha)
    expo = _exponent(n, alpha)
    if c is None:
        return _worst_error(k, expo)[0]
    if not 0 <= c <= k:
        raise ValueError(f"c must lie in 0..{k}")
    if c in (0, k):
        return 0.0
    terms, _ = _pac_scan(k - c, c, expo)
    return _pac_sum(k - c, c, expo, terms)


def pac_errors(k: int, ns: Iterable[float], alpha: float = 0.0) -> list[float]:
    """The worst-case :func:`pac_error` at each n in turn, bit for bit.

    Each n's search over c starts from the worst c of the n before it, where
    :func:`pac_error` starts from c = 1.  That c moves by a step or two
    between neighbouring n, so an increasing run of n costs about three
    scans and one exact sum per n.
    """
    _check_pac(k, alpha)
    bounds, hint = [], None
    for n in ns:
        bound, hint = _worst_error(k, _exponent(n, alpha), hint)
        bounds.append(bound)
    return bounds


def pac_sample_bound(k: int, alpha: float, epsilon: float) -> int:
    """Least n with the worst-case posterior error guaranteed below epsilon.

    The posterior error 1 - p is below epsilon as soon as the odds bound of
    :func:`pac_error` falls below epsilon / (1 - epsilon); this searches for
    that n by doubling then bisection, each probe's search over c starting
    from the worst c of the probe before it.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    _check_pac(k, alpha)
    eps_odds = epsilon / (1.0 - epsilon)
    hint = None

    def within(n: int) -> bool:
        nonlocal hint
        bound, hint = _worst_error(k, _exponent(n, alpha), hint)
        return bound <= eps_odds

    lo = math.floor(alpha) + 1
    if within(lo):
        return lo
    hi = 2 * lo
    while not within(hi):
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if within(mid):
            hi = mid
        else:
            lo = mid
    return hi


# -- convergence traces ---------------------------------------------------


class ConvergencePoint(NamedTuple):
    n: int
    c_seen: int
    posterior: float


@dataclass(frozen=True, slots=True)
class ConvergenceReport:
    """Posterior trace of the exact-evidence hypothesis along a stream."""

    points: tuple[ConvergencePoint, ...]
    reached_at: int | None
    eventually_monotone: bool
    final_posterior: float


def check_convergence(kinds: Iterable[int], big_k: int,
                      params: InductiveParams | None = None,
                      threshold: float = 0.99) -> ConvergenceReport:
    """Track the exact-evidence hypothesis across every prefix of a stream.

    ``kinds`` is the observation sequence as cell ids.  The report records
    the posterior after each prefix, and whether the trace is nondecreasing
    once the last new kind has appeared.  Each observation costs O(K - c): no width is dropped,
    because one negligible against c kinds can dominate once a new kind
    appears.  Every log-gamma is read from one table of ln i! for i up to
    n + K, so a run makes O(n + K) ``lgamma`` calls, not one per width and
    observation.
    """
    params = params or InductiveParams()
    seq = list(kinds)
    if not seq:
        raise ValueError("need at least one observation")
    if any(not 0 <= k < big_k for k in seq):
        raise ValueError(f"kind ids must lie in 0..{big_k - 1}")

    # Log mass of one width-w hypothesis plus ln C(K-c, w-c), carried across
    # prefixes, up to terms every width shares (they cancel from the
    # posterior): ln (K-c)!, the per-cell lgamma sum of lam = w, and
    # lgamma(lam) - lgamma(n + lam) and n ln lam of a constant lam.  There a
    # count m -> m + 1 adds ln(m + lam/w), which is
    # ln lam - ln w + ln((lam + m w) / s) + ln(s / lam) for s = max(lam, 1);
    # the shared ln lam and ln(s / lam) are left out, which keeps the sums
    # accurate for a large lam, finite for a tiny one, and makes lam = inf the
    # dogmatic -n ln w.  ln i! and ln i come from one shared table: a
    # proportional lam needs lgamma(t + w) = ln (t + w - 1)!, so its table
    # runs to n + K
    proportional = params.lambda_value is None
    ln_fact, ln_int = _ln_tables(big_k + len(seq) if proportional else big_k)
    fixed = [0.0] + [_ln_prior_factor(w, big_k, params) - ln_fact[big_k - w]
                     + (ln_fact[w - 1] if proportional else 0.0)
                     for w in range(1, big_k + 1)]
    if not proportional:
        scale = max(params.lambda_value, 1.0)
        shift = min(params.lambda_value, 1.0) - 1.0  # lam / s - 1
        inv_cell = [0.0] + [w / scale for w in range(1, big_k + 1)]
        cell_sums = [0.0] * (big_k + 1)  # one per width c..K, c = 0 here

    counts: dict[int, int] = {}
    points: list[ConvergencePoint] = []
    last_growth = 1
    c = 0
    # Every width w = c..K is priced at every observation.  Each list below
    # runs over the widths in order with the operations of a per-width
    # loop, so the bits are that loop's; a table slice stands in for each
    # lgamma(t + w)
    for t, kind in enumerate(seq, start=1):
        m = counts.get(kind, 0)
        counts[kind] = m + 1
        if m == 0:
            c += 1
            last_growth = t
            base = list(map(sub, fixed[c:], ln_fact[:big_k - c + 1]))
            if not proportional:
                del cell_sums[0]
                inv = inv_cell[c:]
                ln_width = ln_int[c:big_k + 1]
        if proportional:
            terms = list(map(sub, base, ln_fact[t + c - 1:t + big_k]))
        else:
            # zip comprehensions: for these two-operation lines, chains of
            # operator maps measured slower on CPython 3.11
            if m and not params.dogmatic:
                cell_sums = [s + math.log1p(shift + m * x)
                             for s, x in zip(cell_sums, inv)]
            terms = [b + s - t * lw
                     for b, s, lw in zip(base, cell_sums, ln_width)]
        top = max(terms)  # lse(terms) inlined for speed; no term is -inf
        total = math.fsum(map(math.exp, map(sub, terms, repeat(top))))
        ln_z = top + math.log(total)
        # _WidthTable's sum check in O(1): the posteriors exp(v - ln_z) sum
        # to total * exp(top - ln_z), which strays from 1 once ln z is so
        # large that its rounding swallows ln total
        total *= math.exp(top - ln_z)
        if abs(total - 1.0) > 1e-6:
            raise _precision_error(total, t, params.alpha)
        points.append(tuple.__new__(
            ConvergencePoint, (t, c, math.exp(terms[0] - ln_z))))

    reached_at = next((p.n for p in points if p.posterior >= threshold), None)
    tail = [p.posterior for p in points[last_growth - 1:]]
    monotone = all(b >= a - 1e-12 for a, b in zip(tail, tail[1:]))
    return ConvergenceReport(
        points=tuple(points),
        reached_at=reached_at,
        eventually_monotone=monotone,
        final_posterior=points[-1].posterior,
    )
