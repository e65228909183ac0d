"""Posterior engine against independent oracles.

The load-bearing check prices every hypothesis two ways: the width-class
closed form under test, and a literal Bayes computation that walks the
observation sequence and multiplies smoothed next-case probabilities.
"""

import functools
import io
import math
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcomm import inductive
from semcomm.errors import DomainMismatchError, InconsistentEvidenceError
from semcomm.fol import parse_evidence
from semcomm.inductive import (InductiveModel, InductiveParams, _WidthTable,
                               _ln_prior_factor, _precision_error,
                               _worst_error, check_convergence,
                               constituent_likelihood, constituent_posterior,
                               constituent_prior, pac_error, pac_errors,
                               pac_sample_bound, predictive_probability)
from semcomm.measures import UniverseSignature, cont_entropy, inf_entropy
from semcomm.sublang import (Constituent, EvidenceSummary, SubLanguageConfig,
                             build_sublanguage, enumerate_constituents)
from semcomm.xreal import xsum

from conftest import random_model


def _all_constituents(big_k):
    for w in range(1, big_k + 1):
        for kinds in combinations(range(big_k), w):
            yield Constituent(frozenset(kinds))


def _lambda_of(width, params):
    if params.lambda_value is None:
        return float(width)
    return params.lambda_value


def _oracle_likelihood(kinds, counts, params):
    """Walk a sequence realizing the counts, multiplying next-case rules."""
    w = len(kinds)
    lam = _lambda_of(w, params)
    seen = {k: 0 for k in kinds}
    like = 1.0
    n = 0
    for kind, total in zip(range(len(counts)), counts):
        for _ in range(total):
            if kind not in seen:
                return 0.0
            if math.isinf(lam):
                like *= 1.0 / w
            else:
                like *= (seen[kind] + lam / w) / (n + lam)
            seen[kind] += 1
            n += 1
    return like


def _oracle_posteriors(summary, params):
    """Brute-force Bayes over every hypothesis of the language."""
    weights = {}
    for con in _all_constituents(summary.big_k):
        prior = constituent_prior(len(con), summary.big_k, params).to_float()
        like = _oracle_likelihood(con, summary.counts, params)
        weights[con] = prior * like
    total = math.fsum(weights.values())
    return {con: w / total for con, w in weights.items()}


def _random_summary(rnd, max_k=6, max_n=30):
    big_k = rnd.randint(1, max_k)
    c = rnd.randint(1, big_k)
    n = rnd.randint(c, max_n)
    cuts = sorted(rnd.sample(range(1, n), c - 1)) if c > 1 else []
    counts = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    return EvidenceSummary(n=n, c=c, counts=counts, big_k=big_k)


@pytest.mark.parametrize("params", [
    InductiveParams(),
    InductiveParams(lambda_value=1.0),
    InductiveParams(lambda_value=math.inf),
    InductiveParams(alpha=1.0),
])
def test_posterior_matches_brute_force(params):
    rnd = random.Random(42)
    for _ in range(40):
        summary = _random_summary(rnd)
        want = _oracle_posteriors(summary, params)
        for con, expected in want.items():
            got = constituent_posterior(con, summary, params).to_float()
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-300)


def test_likelihood_matches_sequential_product():
    rnd = random.Random(43)
    params = InductiveParams()
    for _ in range(60):
        summary = _random_summary(rnd)
        for con in _all_constituents(summary.big_k):
            want = _oracle_likelihood(con, summary.counts, params)
            if not set(range(summary.c)) <= con:
                continue  # library rejects incompatible hypotheses up front
            got = constituent_likelihood(con, summary, params).to_float()
            assert got == pytest.approx(want, rel=1e-9)


def test_prior_uniform_at_alpha_zero():
    for big_k in (1, 2, 4, 6):
        want = 1.0 / (2 ** big_k - 1)
        for w in range(1, big_k + 1):
            got = constituent_prior(w, big_k).to_float()
            assert got == pytest.approx(want, rel=1e-12)


def test_prior_normalizes():
    for params in (InductiveParams(), InductiveParams(alpha=2.0)):
        for big_k in (2, 3, 5):
            total = xsum(constituent_prior(len(c), big_k, params)
                         for c in _all_constituents(big_k))
            assert total.to_float() == pytest.approx(1.0, rel=1e-12)
            for width in (0, big_k + 1):
                with pytest.raises(ValueError, match="width must lie"):
                    constituent_prior(width, big_k, params)


def test_posterior_normalizes():
    rnd = random.Random(44)
    for _ in range(20):
        summary = _random_summary(rnd)
        total = xsum(constituent_posterior(c, summary)
                     for c in _all_constituents(summary.big_k))
        assert total.to_float() == pytest.approx(1.0, rel=1e-9)


def test_incompatible_posterior_is_exact_zero():
    summary = EvidenceSummary(n=4, c=2, counts=(2, 2), big_k=4)
    for con in _all_constituents(4):
        if not {0, 1} <= con:
            assert constituent_posterior(con, summary).is_zero
    # a cell past K is an error, not a hypothesis of zero weight
    for price in (constituent_posterior, constituent_likelihood):
        with pytest.raises(DomainMismatchError, match="outside the language"):
            price(Constituent({0, 1, 4}), summary)
    # a hand-built language of no cells has no hypothesis to normalize
    with pytest.raises(InconsistentEvidenceError, match="normalizer is zero"):
        constituent_posterior(Constituent(), EvidenceSummary(0, 0, (), 0))


def test_model_summary_must_match_or_be_empty(rng):
    model = random_model(rng, slack=1)
    sl = model.sublang
    big_k, c = sl.big_k, sl.summary.c
    # no evidence: the posterior is the prior
    empty = InductiveModel(sl, model.params, EvidenceSummary(0, 0, (), big_k))
    for con in enumerate_constituents(sl):
        got = constituent_posterior(con, empty.summary, empty.params).to_float()
        assert got == pytest.approx(
            constituent_prior(len(con), big_k, model.params).to_float(), rel=1e-12)
    with pytest.raises(DomainMismatchError):
        InductiveModel(sl, summary=EvidenceSummary(0, 0, (), big_k + 1))
    with pytest.raises(DomainMismatchError):  # slack leaves room for c + 1
        InductiveModel(sl, summary=EvidenceSummary(c + 1, c + 1,
                                                   (1,) * (c + 1), big_k))
    # a sentence of another sub-language, even one of the same shape
    other = build_sublanguage(parse_evidence(io.StringIO("Barks(Rex)\n")),
                              SubLanguageConfig(slack=1))
    with pytest.raises(DomainMismatchError, match="different sub-language"):
        model.member_width_counts(other.upset(()))
    # a bag cannot hold more hypotheses of a width than the class has
    top = model.width_classes[-1]
    with pytest.raises(ValueError, match="exceeds the class size"):
        model.complement_width_counts({top.width: top.size + 1})


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, -math.inf])
def test_params_reject_a_lambda_that_is_not_positive(lam):
    with pytest.raises(ValueError):
        InductiveParams(lambda_value=lam)


def test_params_lambda_value():
    assert InductiveParams().lambda_of(3) == 3.0
    assert not InductiveParams().dogmatic
    assert InductiveParams(lambda_value=2.0).lambda_of(3) == 2.0
    assert not InductiveParams(lambda_value=2.0).dogmatic
    assert InductiveParams(lambda_value=math.inf).dogmatic


def test_dogmatic_likelihood_closed_form():
    params = InductiveParams(lambda_value=math.inf)
    summary = EvidenceSummary(n=12, c=2, counts=(5, 7), big_k=4)
    for w in (2, 3, 4):
        con = Constituent(frozenset(range(w)))
        got = constituent_likelihood(con, summary, params).to_float()
        assert got == pytest.approx((1.0 / w) ** 12, rel=1e-12)


def test_dogmatic_prior_past_the_float_range_holds_no_mass():
    # alpha ln(w/K) passes -1.8e308 for w <= 16 at alpha = 1e308, K = 100:
    # those widths leave the table, and the entropy stays 0 rather than nan
    ev = parse_evidence(io.StringIO("Barks(Rex)\n"))
    sl = build_sublanguage(ev, SubLanguageConfig(slack=99))
    model = InductiveModel(sl, InductiveParams(lambda_value=math.inf, alpha=1e308))
    widths = [cl.width for cl in model.width_classes]
    assert widths == list(range(17, 101))
    assert all(math.isfinite(cl.ln_each) for cl in model.width_classes)
    assert inf_entropy(model) == 0.0


def test_predictive_probability_mixture(rng):
    # prediction for a seen kind exceeds the one for a slack kind
    model = random_model(rng, slack=2)
    for kind in (-1, model.summary.big_k):
        with pytest.raises(ValueError, match="kind must lie"):
            predictive_probability(model, kind)
    if model.summary.c == 0:
        return
    seen = predictive_probability(model, 0)
    fresh = predictive_probability(model, model.summary.big_k - 1)
    assert 0.0 < fresh < seen < 1.0
    total = math.fsum(predictive_probability(model, j)
                      for j in range(model.summary.big_k))
    assert total == pytest.approx(1.0, rel=1e-9)


def _oracle_next(kinds, counts, kind, params):
    """Next-case rule of one hypothesis after the observed counts."""
    if kind not in kinds:
        return 0.0
    w = len(kinds)
    lam = _lambda_of(w, params)
    if math.isinf(lam):
        return 1.0 / w
    seen = counts[kind] if kind < len(counts) else 0
    return (seen + lam / w) / (sum(counts) + lam)


@pytest.mark.parametrize("params", [
    InductiveParams(),
    InductiveParams(lambda_value=1.0),
    InductiveParams(lambda_value=math.inf),
    InductiveParams(alpha=1.0),
])
def test_predictive_matches_brute_force(params):
    # posterior-weighted next-case rules, summed hypothesis by hypothesis
    rnd = random.Random(46)
    checked = 0
    while checked < 12:
        model = random_model(rnd, params=params)
        s = model.summary
        if s.big_k > 7:
            continue
        checked += 1
        post = _oracle_posteriors(s, params)
        for kind in range(s.big_k):
            want = math.fsum(p * _oracle_next(con, s.counts, kind, params)
                             for con, p in post.items())
            got = predictive_probability(model, kind)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_pac_error_formula():
    # direct finite sum, written out independently
    for k, c, n in ((4, 2, 7), (6, 3, 11), (5, 5, 9)):
        want = math.fsum(
            math.comb(k - c, i) * (c / (c + i)) ** n
            for i in range(1, k - c + 1))
        assert pac_error(k, n, 0.0, c=c) == pytest.approx(want, rel=1e-12)


def test_pac_error_pinned_value():
    assert pac_error(2, 10, 0.0) == 2.0 ** -10


def test_pac_sample_bound_pins():
    assert pac_sample_bound(2, 0.0, 1e-3) == 10
    assert pac_sample_bound(1, 0.0, 1e-3) == 1


def test_pac_sample_bound_minimal():
    for k, alpha, eps in ((3, 0.0, 1e-2), (5, 1.0, 1e-4), (8, 0.0, 1e-6)):
        n0 = pac_sample_bound(k, alpha, eps)
        eps_prime = eps / (1.0 - eps)
        assert pac_error(k, n0, alpha) <= eps_prime
        if n0 > max(1, int(alpha) + 1):
            assert pac_error(k, n0 - 1, alpha) > eps_prime


def test_pac_exponent_exact_past_two_to_53():
    # n - alpha in one float would round n to a multiple of 256 here
    assert pac_error(5, 2**60 + 3, 2.0**60) == pac_error(5, 3, 0.0)
    assert (pac_sample_bound(3, 2.0**60, 1e-3) - 2**60
            == pac_sample_bound(3, 0.0, 1e-3))


@pytest.mark.parametrize("alpha", [-1.0, -0.5, math.nan, math.inf])
def test_pac_sample_bound_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        pac_sample_bound(5, alpha, 1e-3)


@pytest.mark.parametrize("alpha", [-1.0, -math.inf, math.nan, math.inf])
def test_pac_error_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="finite and >= 0"):
        pac_error(5, 3, alpha)
    with pytest.raises(ValueError, match="finite and >= 0"):
        pac_error(5, 3, alpha, c=2)


def test_pac_rejects_bad_k_n_c_and_epsilon():
    with pytest.raises(ValueError, match="k must be >= 1"):
        pac_error(0, 3)
    for n, alpha in ((2, 2.0), (1, 3.5)):
        with pytest.raises(ValueError, match="needs n > alpha"):
            pac_error(5, n, alpha)
    for c in (-1, 6):
        with pytest.raises(ValueError, match="c must lie"):
            pac_error(5, 3, c=c)
    for epsilon in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            pac_sample_bound(5, 0.0, epsilon)


def test_check_convergence_rejects_bad_kinds():
    with pytest.raises(ValueError, match="at least one observation"):
        check_convergence([], big_k=3)
    for kind in (-1, 3):
        with pytest.raises(ValueError, match="kind ids must lie"):
            check_convergence([0, kind], big_k=3)


def test_check_convergence_identifies():
    kinds = [0, 1, 2] * 200
    report = check_convergence(kinds, big_k=4, threshold=0.99)
    assert report.reached_at is not None
    assert report.final_posterior >= 0.99
    assert report.eventually_monotone
    assert [p.c_seen for p in report.points[:3]] == [1, 2, 3]


def test_check_convergence_dogmatic_meets_bound():
    # the sample-size bound is tight only at the no-smoothing endpoint
    params = InductiveParams(lambda_value=math.inf)
    kinds = [0, 1, 2] * 20
    report = check_convergence(kinds, big_k=4, params=params, threshold=0.99)
    assert report.reached_at is not None
    final = report.points[-1]
    bound = pac_error(4, final.n, params.alpha, c=final.c_seen)
    limit = bound / (1.0 + bound)
    assert 1.0 - final.posterior <= limit * (1.0 + 1e-9) + 1e-15


def test_check_convergence_posterior_trace_matches_direct():
    kinds = [0, 1, 0, 1, 1, 0]
    report = check_convergence(kinds, big_k=3)
    counts = {}
    for i, k in enumerate(kinds, start=1):
        counts[k] = counts.get(k, 0) + 1
        summary = EvidenceSummary(n=i, c=len(counts),
                                  counts=tuple(counts[j] for j in sorted(counts)),
                                  big_k=3)
        con = Constituent(frozenset(counts))
        want = constituent_posterior(con, summary).to_float()
        assert report.points[i - 1].posterior == pytest.approx(want, rel=1e-12)


def test_large_k_class_mass_stays_finite():
    # C(K - c, w - c) passes the float range near K = 1030; class masses
    # and the odds bound must still come out as floats
    report = check_convergence([0, 1, 0], 1100)
    assert [p.c_seen for p in report.points] == [1, 2, 2]
    assert all(0.0 <= p.posterior <= 1.0 for p in report.points)
    assert pac_error(1100, 3, c=2) == math.inf
    assert pac_error(1100, 3, c=0) == 0.0
    ev = parse_evidence(io.StringIO("Barks(Ada)\nHums(Bo)\nBarks(Cyr)\n"))
    sl = build_sublanguage(ev, SubLanguageConfig(slack=1098))
    assert sl.big_k == 1100
    model = InductiveModel(sl)
    by_width = [math.exp(model.ln_probability({cl.width: cl.size}))
                for cl in model.width_classes]
    assert len(by_width) == 1099
    assert math.fsum(by_width) == pytest.approx(1.0, abs=1e-12)
    # and so do the entropies over the 2^1100 - 1 hypotheses
    ce = cont_entropy(model, UniverseSignature(2, 3))
    assert not ce.normalized.is_zero and ce.normalized.ln_mag < 1e-12
    assert math.isfinite(ce.raw.ln_mag)
    assert 0.0 < inf_entropy(model) < 1100.0


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=60, deadline=None)
def test_posterior_width_monotone_in_prefix(big_k, data):
    # once all kinds are in, more evidence can only help the tight hypothesis
    c = data.draw(st.integers(min_value=1, max_value=big_k))
    reps = data.draw(st.integers(min_value=2, max_value=30))
    kinds = list(range(c)) * reps
    report = check_convergence(kinds, big_k=big_k)
    tail = [p.posterior for p in report.points if p.c_seen == c]
    assert all(b >= a - 1e-12 for a, b in zip(tail, tail[1:]))


# -- the incremental trace and the pruned bound against the direct routes --


def _oracle_pac_error(k, n, alpha=0.0, c=None):
    """The literal bignum sum, maximised over every c when c is None."""
    if c is None:
        return max(_oracle_pac_error(k, n, alpha, cc) for cc in range(k))
    expo = n - alpha
    try:
        return math.fsum(math.comb(k - c, i) * (c / (c + i)) ** expo
                         for i in range(1, k - c + 1))
    except OverflowError:
        return math.inf


def _oracle_convergence(kinds, big_k, params, threshold):
    """Rebuild the width table for every prefix, as the definition reads."""
    counts = {}
    posts = []
    last_growth = 1
    for t, kind in enumerate(kinds, start=1):
        if kind not in counts:
            counts[kind] = 0
            last_growth = t
        counts[kind] += 1
        table = _WidthTable(t, len(counts), tuple(counts.values()), big_k,
                            params)
        posts.append(table.get(len(counts)).posterior_each)
    # both sides of a posterior within 1e-12 of the threshold are right
    reached = {next((t for t, p in enumerate(posts, start=1)
                     if p >= threshold + shift), None)
               for shift in (-1e-12, 1e-12)}
    tail = posts[last_growth - 1:]
    monotone = all(b >= a - 1e-12 for a, b in zip(tail, tail[1:]))
    return posts, reached, monotone


@pytest.mark.parametrize("params", [
    InductiveParams(),
    InductiveParams(alpha=1.5),
    InductiveParams(lambda_value=2.0),
    InductiveParams(lambda_value=1e6, alpha=0.5),
    InductiveParams(lambda_value=1e300),
    InductiveParams(lambda_value=math.inf),
    InductiveParams(lambda_value=0.5, alpha=0.5),
    # w / lam overflows here; each repeat's term must stay finite
    InductiveParams(lambda_value=1e-300),
    InductiveParams(lambda_value=1e-308),
], ids=["w", "w-alpha", "const2", "const1e6", "const1e300", "dogmatic",
        "const0.5", "const1e-300", "const1e-308"])
def test_convergence_trace_matches_per_prefix_tables(params):
    rnd = random.Random(17)
    for case in range(40):
        big_k = rnd.randint(1, 12)
        used = rnd.randint(1, big_k)
        # a few streams front-load the kinds so the tail is long
        kinds = [rnd.randrange(used) for _ in range(rnd.randint(1, 90))]
        if case % 4 == 0:
            kinds = list(range(used)) + kinds
        threshold = rnd.choice([0.5, 0.9, 0.99])  # 0.9 ties exact posteriors
        report = check_convergence(kinds, big_k, params, threshold)
        posts, reached, monotone = _oracle_convergence(
            kinds, big_k, params, threshold)
        got = [p.posterior for p in report.points]
        assert max(abs(a - b) for a, b in zip(got, posts)) <= 1e-12
        assert report.reached_at in reached
        assert report.eventually_monotone == monotone


def test_large_constant_lambda_tends_to_the_dogmatic_limit():
    # lgamma(n + lam) - lgamma(lam) cancels to nothing at lam = 1e300; the
    # table must still see the evidence, as the convergence trace does
    summary = EvidenceSummary(big_k=4, n=40, c=2, counts=(20, 20))
    tight = Constituent(frozenset({0, 1}))
    limit = constituent_posterior(tight, summary, InductiveParams(
        lambda_value=math.inf)).to_float()
    assert limit == pytest.approx(1.0 - 1.8e-7, abs=1e-8)
    for lam in (1e15, 1e300):
        params = InductiveParams(lambda_value=lam)
        got = constituent_posterior(tight, summary, params).to_float()
        assert got == pytest.approx(limit, abs=1e-12)
        trace = check_convergence([0, 1] * 20, 4, params)
        assert trace.final_posterior == pytest.approx(got, abs=1e-12)
    # Stirling's series is what runs past x = 32; past the float range it
    # raises rather than return inf
    with pytest.raises(OverflowError, match="past the float range"):
        inductive._ln_rising(1e308, 100.0)


def _reference_points(kinds, big_k, params):
    """The trace as a per-width Python loop with one lgamma per width and
    observation: the same floating-point operations in the same order."""
    ln_fact = [math.lgamma(i + 1) for i in range(big_k + 1)]
    proportional = params.lambda_value is None
    fixed = [0.0] + [_ln_prior_factor(w, big_k, params) - ln_fact[big_k - w]
                     + (math.lgamma(w) if proportional else 0.0)
                     for w in range(1, big_k + 1)]
    if not proportional:
        ln_width = [0.0] + [math.log(w) for w in range(1, big_k + 1)]
        scale = max(params.lambda_value, 1.0)
        shift = min(params.lambda_value, 1.0) - 1.0
        inv_cell = [0.0] + [w / scale for w in range(1, big_k + 1)]
        cell_sums = [0.0] * (big_k + 1)
    counts = {}
    points = []
    c = 0
    for t, kind in enumerate(kinds, start=1):
        m = counts.get(kind, 0)
        counts[kind] = m + 1
        if m == 0:
            c += 1
            widths = range(c, big_k + 1)
            base = [fixed[w] - ln_fact[w - c] for w in widths]
        if proportional:
            terms = [b - math.lgamma(t + w) for b, w in zip(base, widths)]
        else:
            if m and not params.dogmatic:
                for w in widths:
                    cell_sums[w] += math.log1p(shift + m * inv_cell[w])
            terms = [b + cell_sums[w] - t * ln_width[w]
                     for b, w in zip(base, widths)]
        top = max(terms)
        total = math.fsum([math.exp(v - top) for v in terms])
        ln_z = top + math.log(total)
        total *= math.exp(top - ln_z)
        if abs(total - 1.0) > 1e-6:
            raise _precision_error(total, t, params.alpha)
        points.append((t, c, math.exp(terms[0] - ln_z)))
    return points


@pytest.mark.parametrize("alpha", [0.0, 2.5])
@pytest.mark.parametrize("lam", [None, 0.5, 3.0, 1e6, math.inf],
                         ids=["w", "const0.5", "const3", "const1e6", "inf"])
@pytest.mark.parametrize("big_k", [1, 2, 5, 17, 80, 200])
def test_convergence_trace_equals_per_width_loop(big_k, lam, alpha):
    # bit for bit, on every point
    params = InductiveParams(lambda_value=lam, alpha=alpha)
    rnd = random.Random(big_k)
    for case in range(3):
        used = rnd.randint(1, big_k)
        kinds = [rnd.randrange(used) for _ in range(rnd.randint(1, 150))]
        if case == 0:
            kinds = rnd.sample(range(used), used) + kinds
        report = check_convergence(kinds, big_k, params)
        assert report.points == tuple(_reference_points(kinds, big_k, params))


@pytest.mark.parametrize("lam", [None, 2.5], ids=["w", "const2.5"])
def test_convergence_lgamma_calls_are_linear(monkeypatch, lam):
    # one table of ln i! for i <= n + K serves every observation, where a
    # per-width pass made an lgamma call per width and observation (about
    # 21,000 here)
    calls = 0
    lgamma = math.lgamma

    def counted(x):
        nonlocal calls
        calls += 1
        return lgamma(x)

    n, big_k = 1000, 80
    rnd = random.Random(3)
    kinds = list(range(64)) + [rnd.randrange(64) for _ in range(n - 64)]
    inductive._ln_tables.cache_clear()
    monkeypatch.setattr(math, "lgamma", counted)
    check_convergence(kinds, big_k, InductiveParams(lambda_value=lam))
    assert 0 < calls <= n + 3 * big_k


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_pac_error_matches_bignum_sum(alpha):
    for k in (1, 2, 3, 5, 8, 13, 16, 17, 21, 34, 60, 100, 200):  # both sides of _DIRECT_MAX_K
        for n in (1, 2, 5, 20, 100, 1000):
            want = _oracle_pac_error(k, n, alpha)
            assert pac_error(k, n, alpha) == pytest.approx(want, rel=1e-12)
            for c in range(k + 1):
                want = _oracle_pac_error(k, n, alpha, c)
                got = pac_error(k, n, alpha, c=c)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_pac_error_keeps_precision_in_subnormal_sums():
    # at K = 200, c = 1 the kept powers (1/(1+i))^x fall below 2^-1022,
    # where a product with its binomial keeps no relative precision, so the
    # sum takes the log route
    want = math.exp(_ln_pac_sums(200, 1076 - 2.5)[0])
    assert 0.0 < want < sys.float_info.min
    assert pac_error(200, 1076, 2.5, c=1) == pytest.approx(want, rel=0.01, abs=0.0)


def _ln_pac_sums(k, x):
    """ln of every c-sum for c = 1..k-1, from log-binomials and one fsum each."""
    lf = [math.lgamma(i + 1) for i in range(k + 1)]
    out = []
    for c in range(1, k):
        m = k - c
        ln_c = math.log(c)
        terms = [lf[m] - lf[i] - lf[m - i] + x * (ln_c - math.log(c + i))
                 for i in range(1, m + 1)]
        top = max(terms)
        out.append(top + math.log(math.fsum([math.exp(t - top) for t in terms])))
    return out


_UNIMODAL_NS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987,
                1597, 4181)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_pac_sums_unimodal_in_c(alpha):
    # pac_error's search over c rests on the c-sums rising, then falling;
    # its comment proves that, and this checks it on the floats, with two
    # n per K that together walk the whole n grid
    for k in range(2, 201):
        for n in (_UNIMODAL_NS[k % 17], _UNIMODAL_NS[(5 * k + 3) % 17]):
            ln_sums = _ln_pac_sums(k, n - alpha)
            peak = ln_sums.index(max(ln_sums))
            rise, fall = ln_sums[:peak + 1], ln_sums[peak:]
            assert all(a <= b for a, b in zip(rise, rise[1:])), (k, n)
            assert all(a >= b for a, b in zip(fall, fall[1:])), (k, n)


@pytest.mark.parametrize("alpha", [0.0, 2.5])
def test_pac_errors_equal_each_pac_error(alpha):
    # the table seeds each row's search over c with the previous row's peak;
    # that must find the same bits as a bisection per row
    for k in (16, 17, 21, 34, 60, 100, 200):
        ns = range(math.floor(alpha) + 1, pac_sample_bound(k, alpha, 1e-3) + 5)
        assert pac_errors(k, ns, alpha) == [pac_error(k, n, alpha) for n in ns]


@pytest.mark.parametrize("k", [16, 17, 60, 200])
def test_pac_search_from_any_hint(k):
    # a hint at either end of 1..K-1 or outside it is clamped, and the
    # search finds the same peak and bound as from no hint
    for n in (1, 3, 20, 200, 2000):
        want = _worst_error(k, float(n))
        assert want[0] == pac_error(k, n)
        for hint in (-3, 0, 1, 2, k // 2, k - 2, k - 1, k, k + 7):
            assert _worst_error(k, float(n), hint) == want, (n, hint)


# the scans are pure, so the reference and the route under test share them
_memo_scan = functools.cache(inductive._pac_scan)


@functools.cache
def _three_sum_worst_error(k, expo, hint=None):
    """The search over c with the exact sums of all of c* - 1..c* + 1.

    The route `_worst_error` took before the scans' logs ruled neighbours
    out; it also returns each neighbour's (c, terms, scan log, exact sum).
    """
    def scan(cc):
        return _memo_scan(k - cc, cc, expo)

    def falls(cc):
        if cc < 1:
            return False
        return cc >= k - 1 or scan(cc)[1] >= scan(cc + 1)[1]

    if hint is None:
        lo, hi = 1, k - 1
    else:
        lo = hi = min(max(hint, 1), k - 1)
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
        lo, hi = (lo, mid) if falls(mid) else (mid + 1, hi)
    near = [(cc, *scan(cc), inductive._pac_sum(k - cc, cc, expo, scan(cc)[0]))
            for cc in range(max(lo - 1, 1), min(lo + 1, k - 1) + 1)]
    return max(row[3] for row in near), lo, near


_REF_KS = (16, 17, 21, 34, 60, 100, 200, 1000)
_REF_ALPHAS = (0.0, 0.5, 2.5)


@functools.cache
def _three_sum_table(k, alpha):
    """(expo, hint, reference result) along the pac table of K and alpha,
    each hint the c before, then at n = 10^5 and 10^7, where the worst
    sums are subnormal and zero.  Alpha 0.5 and 2.5 share every exponent
    of the table, and so their reference rows."""
    ns = range(math.floor(alpha) + 1, pac_sample_bound(k, alpha, 1e-3) + 5)
    rows, hint = [], None
    for n in [*ns, 10**5, 10**7]:
        expo = inductive._exponent(n, alpha)
        ref = _three_sum_worst_error(k, expo, hint)
        rows.append((expo, hint, ref))
        hint = ref[1]
    return rows


def _scan_slack(k, expo):
    """The margin `_worst_error` lets the top scan log rule a neighbour
    out by."""
    return 2.0 ** -40 * (1.0 + expo * math.log(2 * k) + math.lgamma(k + 1))


@pytest.mark.parametrize("k", _REF_KS)
def test_worst_error_one_sum_matches_three(k, monkeypatch):
    # the scans' logs leave one exact sum a row in the normal range and
    # must give the bits the three sums gave, with hints and without
    sums = 0
    pac_sum = inductive._pac_sum

    def counted(*args):
        nonlocal sums
        sums += 1
        return pac_sum(*args)

    monkeypatch.setattr(inductive, "_pac_scan", _memo_scan)
    for alpha in _REF_ALPHAS:
        rows = _three_sum_table(k, alpha)
        monkeypatch.setattr(inductive, "_pac_sum", counted)
        sums = 0
        for expo, hint, (bound, lo, _) in rows:
            assert _worst_error(k, expo, hint) == (bound, lo), (alpha, expo)
        # the near-ties at K = 1000 and the subnormal rows take the rest
        assert sums <= len(rows) + 12, (alpha, sums)
        monkeypatch.setattr(inductive, "_pac_sum", pac_sum)
        # a search from scratch costs about 2 log2 K scans a row
        for expo, _, (bound, lo, _) in rows[::1 + len(rows) // 200]:
            assert _worst_error(k, expo) == (bound, lo), (alpha, expo)
    _memo_scan.cache_clear()


@pytest.mark.parametrize("k", _REF_KS)
def test_scan_logs_within_slack_of_exact_sums(k):
    # the premise of the shortcut: where an exact sum is a normal float,
    # its log and its scan's log differ by far less than the margin
    for alpha in _REF_ALPHAS:
        for expo, _, (_, _, near) in _three_sum_table(k, alpha):
            slack = _scan_slack(k, expo)
            for cc, _, ln_scan, exact in near:
                if sys.float_info.min <= exact < math.inf:
                    gap = abs(ln_scan - math.log(exact))
                    assert gap < slack / 64, (alpha, expo, cc)


def test_worst_error_takes_both_near_tied_sums(monkeypatch):
    # at K = 1000, n = 8914, alpha = 0.5 the scans of c = 907 and 908 lie
    # 1e-9 apart, inside the margin, so both exact sums are taken
    k, expo = 1000, inductive._exponent(8914, 0.5)
    bound, lo, near = _three_sum_worst_error(k, expo)
    ln_scans = sorted(row[2] for row in near)
    assert ln_scans[-1] - ln_scans[-2] < _scan_slack(k, expo) < (
        ln_scans[-1] - ln_scans[-3])
    calls = []
    pac_sum = inductive._pac_sum

    def counted(m, c, expo, terms):
        calls.append(c)
        return pac_sum(m, c, expo, terms)

    monkeypatch.setattr(inductive, "_pac_sum", counted)
    assert _worst_error(k, expo) == (bound, lo)
    assert sorted(calls) == [907, 908]


@pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
def test_pac_sample_bound_matches_bignum_search(epsilon):
    odds = epsilon / (1.0 - epsilon)
    for k in range(1, 31):
        # the odds bound falls in n, so bisect on the bignum route
        lo, hi = 0, 1
        while _oracle_pac_error(k, hi) > odds:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _oracle_pac_error(k, mid) <= odds else (mid, hi)
        assert pac_sample_bound(k, 0.0, epsilon) == hi
