"""Posterior engine against independent oracles.

The load-bearing check prices every hypothesis two ways: the width-class
closed form under test, and a literal Bayes computation that walks the
observation sequence and multiplies smoothed next-case probabilities.
"""

import io
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcomm.errors import DomainMismatchError
from semcomm.fol import parse_evidence
from semcomm.inductive import (InductiveModel, InductiveParams,
                               check_convergence, constituent_likelihood,
                               constituent_posterior, constituent_prior,
                               pac_error, pac_sample_bound,
                               predictive_probability)
from semcomm.sublang import (Constituent, EvidenceSummary, SubLanguageConfig,
                             build_sublanguage)
from semcomm.xreal import xsum

from conftest import random_model


def _all_constituents(big_k):
    for w in range(1, big_k + 1):
        for kinds in combinations(range(big_k), w):
            yield Constituent(frozenset(kinds))


def _lambda_of(width, params):
    if params.lambda_policy == "proportional":
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
        prior = constituent_prior(con.width, summary.big_k, params).to_float()
        like = _oracle_likelihood(con.kinds, summary.counts, params)
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
    InductiveParams(lambda_policy="constant", lambda_value=1.0),
    InductiveParams(lambda_policy="constant", lambda_value=math.inf),
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
            want = _oracle_likelihood(con.kinds, summary.counts, params)
            if not set(range(summary.c)) <= con.kinds:
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
            total = xsum(constituent_prior(c.width, big_k, params)
                         for c in _all_constituents(big_k))
            assert total.to_float() == pytest.approx(1.0, rel=1e-12)


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
        if not {0, 1} <= con.kinds:
            assert constituent_posterior(con, summary).is_zero


def test_model_summary_must_match_or_be_empty(rng):
    model = random_model(rng, slack=1)
    sl = model.sublang
    big_k, c = sl.big_k, sl.summary.c
    # no evidence: the posterior is the prior
    empty = InductiveModel(sl, model.params, EvidenceSummary(0, 0, (), big_k))
    for con in sl.all_constituents():
        assert empty.constituent_posterior(con).to_float() == pytest.approx(
            constituent_prior(con.width, big_k, model.params).to_float(),
            rel=1e-12)
    with pytest.raises(DomainMismatchError):
        InductiveModel(sl, summary=EvidenceSummary(0, 0, (), big_k + 1))
    with pytest.raises(DomainMismatchError):  # slack leaves room for c + 1
        InductiveModel(sl, summary=EvidenceSummary(c + 1, c + 1,
                                                   (1,) * (c + 1), big_k))


def test_dogmatic_likelihood_closed_form():
    params = InductiveParams(lambda_policy="constant", lambda_value=math.inf)
    summary = EvidenceSummary(n=12, c=2, counts=(5, 7), big_k=4)
    for w in (2, 3, 4):
        con = Constituent(frozenset(range(w)))
        got = constituent_likelihood(con, summary, params).to_float()
        assert got == pytest.approx((1.0 / w) ** 12, rel=1e-12)


def test_predictive_probability_mixture(rng):
    # prediction for a seen kind exceeds the one for a slack kind
    model = random_model(rng, slack=2)
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
    InductiveParams(lambda_policy="constant", lambda_value=1.0),
    InductiveParams(lambda_policy="constant", lambda_value=math.inf),
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
            want = math.fsum(p * _oracle_next(con.kinds, s.counts, kind, params)
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


def test_check_convergence_identifies():
    kinds = [0, 1, 2] * 200
    report = check_convergence(kinds, big_k=4, threshold=0.99)
    assert report.reached_at is not None
    assert report.final_posterior >= 0.99
    assert report.eventually_monotone
    assert [p.c_seen for p in report.points[:3]] == [1, 2, 3]


def test_check_convergence_dogmatic_meets_bound():
    # the sample-size bound is tight only at the no-smoothing endpoint
    params = InductiveParams(lambda_policy="constant", lambda_value=math.inf)
    kinds = [0, 1, 2] * 20
    report = check_convergence(kinds, big_k=4, params=params, threshold=0.99)
    assert report.reached_at is not None
    assert report.pac_consistent


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
    assert report.pac_consistent  # the bound is vacuous (inf) at n = 3
    assert pac_error(1100, 3, c=2) == math.inf
    assert pac_error(1100, 3, c=0) == 0.0
    ev = parse_evidence(io.StringIO("Barks(Ada)\nHums(Bo)\nBarks(Cyr)\n"))
    sl = build_sublanguage(ev, SubLanguageConfig(slack=1098))
    assert sl.big_k == 1100
    by_width = InductiveModel(sl).report()["posterior_by_width"]
    assert len(by_width) == 1099
    assert math.fsum(by_width) == pytest.approx(1.0, abs=1e-12)


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
