"""End-to-end acceptance gate.

One test per top-level guarantee, in dependency order, each printing a
single pass/fail line under ``pytest -v``.  Every numeric claim is
checked against an oracle computed by an independent route inside this
file: literal Bayes sums, channel-space grid searches, front-loaded
synthetic streams, and the bundled story corpus driven through the real
command line.
"""

import hashlib
import json
import math
import random
import time
from itertools import combinations

import numpy as np
from click.testing import CliRunner

from semcomm import coder
from semcomm.cli import main
from semcomm.fol import parse_evidence
from semcomm.inductive import (InductiveModel, InductiveParams,
                               constituent_posterior, constituent_prior,
                               pac_error, pac_sample_bound)
from semcomm.lossy import (LossyConfig, _ba_point, _lump,
                           candidate_reconstructions, rd_sweep, receiver_prior)
from semcomm.measures import (JointMessageDistribution, MessagePartition,
                              UniverseSignature, cond_cont, cont_entropy,
                              cont_sentence, mutual_cont_information,
                              transcont)
from semcomm.sublang import (Constituent, EvidenceSummary, SubLanguageConfig,
                             build_sublanguage, enumerate_constituents)
from semcomm.xreal import ExtremeReal, lse

from conftest import DATA_DIR, random_model
from test_coder import _ideal_bits_reference
from test_lossless import _GOLDEN_CONTAINERS

_DOGMATIC = InductiveParams(lambda_value=math.inf)


# --- 1. hypothesis pricing against literal Bayes ------------------------


def _walk_likelihood(kinds, counts, params):
    """Multiply smoothed next-case probabilities along one realization."""
    w = len(kinds)
    lam = float(w) if params.lambda_value is None else params.lambda_value
    seen = dict.fromkeys(kinds, 0)
    value, n = 1.0, 0
    for kind, reps in enumerate(counts):
        if reps and kind not in seen:
            return 0.0
        for _ in range(reps):
            value *= (1.0 / w) if math.isinf(lam) else (seen[kind] + lam / w) / (n + lam)
            seen[kind] += 1
            n += 1
    return value


def _bayes_posteriors(summary, params):
    weights = {}
    for width in range(1, summary.big_k + 1):
        for kinds in combinations(range(summary.big_k), width):
            con = Constituent(frozenset(kinds))
            prior = constituent_prior(width, summary.big_k, params).to_float()
            weights[con] = prior * _walk_likelihood(con, summary.counts,
                                                    params)
    total = math.fsum(weights.values())
    return {con: v / total for con, v in weights.items()}


def test_posterior_width_route_matches_brute_force():
    rnd = random.Random(0xA11CE)
    params = InductiveParams()
    start = time.monotonic()
    for _ in range(500):
        big_k = rnd.randint(1, 6)
        c = rnd.randint(1, big_k)
        n = rnd.randint(c, 30)
        cuts = sorted(rnd.sample(range(1, n), c - 1)) if c > 1 else []
        counts = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        summary = EvidenceSummary(n=n, c=c, counts=counts, big_k=big_k)
        oracle = _bayes_posteriors(summary, params)
        for con, want in oracle.items():
            got = constituent_posterior(con, summary, params).to_float()
            assert abs(got - want) <= 1e-9 * max(want, 1e-300), (summary, con)
    assert time.monotonic() - start < 10.0


# --- 2. identification along growing streams ---------------------------


def _prefix_summary(n, c, big_k):
    """Front-loaded stream: kinds 0..c-1 first, then kind 0 repeats."""
    if n <= c:
        return EvidenceSummary(n=n, c=n, counts=(1,) * n, big_k=big_k)
    counts = (n - c + 1,) + (1,) * (c - 1)
    return EvidenceSummary(n=n, c=c, counts=counts, big_k=big_k)


def test_stream_identification_convergence():
    params = InductiveParams()
    for big_k in range(1, 9):
        for c in range(1, big_k + 1):
            minimal = Constituent(frozenset(range(c)))

            def top(n):
                return constituent_posterior(
                    minimal, _prefix_summary(n, c, big_k), params).to_float()

            n = c
            while top(n) < 0.99:
                n *= 2
                assert n < 1 << 22, f"no convergence for K={big_k} c={c}"
            assert top(n) >= 0.99

            # narrower hypotheses carry exactly zero mass at every prefix
            for prefix in range(1, n + 1):
                summary = _prefix_summary(prefix, c, big_k)
                for w in range(1, summary.c):
                    narrow = Constituent(frozenset(range(w)))
                    assert constituent_posterior(narrow, summary,
                                                 params).is_zero
            final = _prefix_summary(n, c, big_k)
            for w in range(1, c):
                for kinds in combinations(range(big_k), w):
                    got = constituent_posterior(Constituent(frozenset(kinds)),
                                                final, params)
                    assert got.is_zero


# --- 3. sample bound against observed error ----------------------------


def _observed_error(summary, params):
    """Posterior mass on every hypothesis wider than the evidence.

    Same-width competitors share one posterior value here (equal priors,
    width-only likelihoods under these parameters), so the sum groups by
    width; the grouping itself is cross-checked against full enumeration
    below.
    """
    c, big_k = summary.c, summary.big_k
    total = 0.0
    for i in range(1, big_k - c + 1):
        rep = Constituent(frozenset(range(c + i)))
        p = constituent_posterior(rep, summary, params).to_float()
        total += math.comb(big_k - c, i) * p
    return total


def test_sample_bound_caps_posterior_error():
    assert pac_error(2, 10, 0.0) == 2.0 ** -10  # exact pinned value
    assert pac_sample_bound(2, 0.0, 1e-3) == 10
    assert pac_sample_bound(1, 0.0, 1e-3) == 1

    # grouped error equals the full enumeration wherever both are priced
    spot = EvidenceSummary(n=17, c=2, counts=(9, 8), big_k=6)
    full = math.fsum(
        constituent_posterior(Constituent(frozenset(kinds)), spot,
                              _DOGMATIC).to_float()
        for w in range(1, 7) for kinds in combinations(range(6), w)
        if frozenset(kinds) != frozenset(range(2)))
    assert abs(full - _observed_error(spot, _DOGMATIC)) <= 1e-12

    alpha = 0.0
    for big_k in range(2, 9):
        for c in range(1, big_k):
            for n in range(c, 61):
                if not n > alpha:
                    continue
                summary = _prefix_summary(n, c, big_k)
                if summary.c != c:
                    continue
                error = _observed_error(summary, _DOGMATIC)
                bound = pac_error(big_k, n, alpha, c=c)
                assert error <= bound * (1.0 + 1e-9), (big_k, c, n)


# --- 4. content measure identities -------------------------------------


def test_content_measure_chain_identity():
    rnd = random.Random(0xBEEF)
    pairs = 0
    while pairs < 10_000:
        model = random_model(rnd)
        cons = list(enumerate_constituents(model.sublang))
        for _ in range(250):
            s1 = model.sublang.sentence(rnd.sample(cons, rnd.randint(1, len(cons))))
            s2 = model.sublang.sentence(rnd.sample(cons, rnd.randint(1, len(cons))))
            lhs = cont_sentence(s2, model)
            rhs = cond_cont(s2, s1, model) + transcont(s2, s1, model)
            # both routes accumulate the same partitioned float terms,
            # so they may differ only in the final rounding
            assert abs(lhs - rhs) <= 5e-16
            pairs += 1

    # matched send/receive per cell collapses shared content to entropy
    for seed in range(8):
        model = random_model(random.Random(seed))
        part = MessagePartition.from_model(model)
        sig = UniverseSignature(3, 5)
        m = len(part.members)
        joint = [[part.probs[i] if i == j else 0.0 for j in range(m)]
                 for i in range(m)]
        jd = JointMessageDistribution(
            part.members, part.members, tuple(map(tuple, joint)), model)
        mi = mutual_cont_information(jd, sig)
        ce = cont_entropy(model, sig)
        assert mi.sign == ce.raw.sign
        if not ce.raw.is_zero:
            assert math.isclose(mi.ln_mag, ce.raw.ln_mag,
                                rel_tol=1e-9, abs_tol=1e-9)


# --- 5. story corpus: entropy ordering and magnitudes ------------------

_TABLE_NORMALIZED = {
    "story1": (1.18, -563),
    "story2": (1.31, -14725),
    "story3": (4.34, -9459),
    "story4": (1.08, -867),
    "story5": (2.54, -12274),
    "story6": (1.20, -619),
    "story7": (1.02, -2802),
}


def _read_reports(outdir):
    return {sid: json.loads((outdir / f"{sid}.json").read_text())
            for sid in _TABLE_NORMALIZED}


def test_dataset_entropy_ordering_and_magnitudes(tmp_path):
    start = time.monotonic()
    runner = CliRunner()

    res = runner.invoke(main, ["analyze", str(DATA_DIR),
                               "--out", str(tmp_path / "defaults")])
    assert res.exit_code == 0, res.output
    records = _read_reports(tmp_path / "defaults")
    norm = {sid: rec["cont_entropy"]["normalized"]["log10_mag"]
            for sid, rec in records.items()}
    assert max(norm, key=norm.get) == "story1"
    assert min(norm, key=norm.get) == "story2"
    story2 = records["story2"]["scaled"]["min_scaled"]
    assert story2["sign"] == 1 and story2["log10_mag"] == 0.0

    # magnitude pins hold at the no-smoothing endpoint the table assumes
    res = runner.invoke(main, ["analyze", str(DATA_DIR),
                               "--lam", "const:inf", "--slack", "1",
                               "--out", str(tmp_path / "table")])
    assert res.exit_code == 0, res.output
    table = _read_reports(tmp_path / "table")
    for sid, (mant, expo) in _TABLE_NORMALIZED.items():
        got = table[sid]["cont_entropy"]["normalized"]["log10_mag"]
        want = math.log10(mant) + expo
        assert abs(got - want) <= 2.0, (sid, got, want)
    assert time.monotonic() - start < 60.0


# --- 6. story corpus: compression windows ------------------------------

_SEMANTIC_BITS = (840, 1006, 892, 899, 1015, 888, 856)
_SHANNON_BITS = (11018, 13116, 13862, 11713, 8462, 12269, 11686)


def test_dataset_compression_windows(tmp_path):
    runner = CliRunner()
    out = tmp_path / "packed"
    res = runner.invoke(main, ["compress", str(DATA_DIR), "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "compression.csv").read_text().strip().splitlines()
    assert lines[0] == "story,semantic_bits,shannon_bits,ratio"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [f"story{i}" for i in range(1, 8)]
    for row, sem_pin, sh_pin in zip(rows, _SEMANTIC_BITS, _SHANNON_BITS):
        semantic, shannon = int(row[1]), int(row[2])
        assert semantic < shannon
        assert 0.8 * sem_pin <= semantic <= 1.2 * sem_pin, row
        assert 0.8 * sh_pin <= shannon <= 1.2 * sh_pin, row
        assert shannon / semantic >= 0.8 * 8.35, row


# the exact byte-level baseline of each story: the length of a Shannon
# code for its narrative, the ceiling of its ideal length under the add-one
# byte model; a drift of even one bit shows here
_SHANNON_BITS_EXACT = (11838, 12768, 13106, 12612, 9014, 12015, 12320)


def test_dataset_shannon_bits_exact(tmp_path):
    out = tmp_path / "packed"
    res = CliRunner().invoke(main, ["compress", str(DATA_DIR), "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "compression.csv").read_text().strip().splitlines()
    assert tuple(int(line.split(",")[2]) for line in lines[1:]) == _SHANNON_BITS_EXACT


# each story's .report.json breakdown, recorded while the per-symbol loop
# priced the sections, and its shannon_bits, as above; gzip_bits is left
# out, since it depends on the zlib build.  The containers the command
# writes must match the library's golden digests.
_REPORT_FIELDS = ("semantic_bits", "header_bits", "coded_block_bits",
                  "dictionary_bits_ideal", "payload_bits_ideal",
                  "n_statements", "alphabet_size", "shannon_bits")
_REPORT_GOLDEN = {
    "story1": (928, 112, 816, 698.62, 116.32, 27, 16, 11838),
    "story2": (1056, 112, 944, 792.0, 149.45, 33, 19, 12768),
    "story3": (992, 112, 880, 768.13, 105.0, 24, 16, 13106),
    "story4": (1000, 112, 888, 770.96, 109.32, 25, 16, 12612),
    "story5": (1096, 112, 984, 829.74, 149.45, 33, 19, 9014),
    "story6": (1000, 112, 888, 756.44, 124.96, 28, 17, 12015),
    "story7": (880, 112, 768, 669.37, 96.56, 23, 14, 12320),
}


def test_dataset_reports_golden(tmp_path):
    out = tmp_path / "packed"
    res = CliRunner().invoke(main, ["compress", str(DATA_DIR), "--out", str(out)])
    assert res.exit_code == 0, res.output
    for story, row in _REPORT_GOLDEN.items():
        report = json.loads((out / f"{story}.report.json").read_text())
        assert report["breakdown"] == dict(zip(_REPORT_FIELDS[:-1], row[:-1]))
        assert report["shannon_bits"] == row[-1]
        container = (out / f"{story}.semc").read_bytes()
        assert hashlib.sha256(container).hexdigest() == _GOLDEN_CONTAINERS[story]


# --- 7. codec round trips ----------------------------------------------


def test_codec_round_trip_and_ideal_length():
    rnd = random.Random(0xC0DE)
    for case in range(1000):
        k = rnd.randint(1, 64)
        if case % 10 == 0:
            symbols = [rnd.randrange(k)] * rnd.randint(1, 120)  # duplicates
        elif case % 10 == 1:
            symbols = [rnd.randrange(k)]  # single symbol
        else:
            symbols = [rnd.randrange(k) for _ in range(rnd.randint(0, 200))]
        enc = coder.RangeEncoder()
        coder.encode_block_adaptive(symbols, k, enc)
        blob = enc.finish()
        dec = coder.RangeDecoder(blob)
        assert coder.decode_block_adaptive(len(symbols), k, dec) == symbols
        assert 8 * len(blob) <= _ideal_bits_reference(symbols, k) * 1.005 + 64


# --- 8. lossy solver against grid search -------------------------------


def _channel_stats_2x2(p, payoff, a, b):
    """Rate and payoff of every channel [[a,1-a],[b,1-b]] at once."""
    w = np.stack([np.stack([a, 1.0 - a]), np.stack([b, 1.0 - b])])
    q = np.einsum("i,ijg->jg", p, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.log2(w / q[None, :, :])
        terms = np.where(w > 0.0, w * gain, 0.0)
    rate = np.einsum("i,ijg->g", p, terms)
    mean = np.einsum("i,ijg,ij->g", p, w, payoff)
    return rate, mean


def test_lossy_matches_grid_and_frontier():
    # exhaustive channel grid on the 2x2 problem, 401 steps per row
    p = np.array([0.35, 0.65])
    payoff = np.array([[1.0, 0.2], [0.1, 0.8]])
    steps = np.linspace(0.0, 1.0, 401)
    a, b = [g.ravel() for g in np.meshgrid(steps, steps)]
    rate, mean = _channel_stats_2x2(p, payoff, a, b)
    for beta in (0.0, 0.5, 1.0, 2.0, 4.0):
        best = float((rate - beta * mean).min())
        point = _ba_point(_lump(np.log(p), payoff), beta, 3000, 1e-13)
        got = point.rate_bits - beta * point.cont_info
        assert abs(got - best) <= 1e-3, beta

    # 3x3: grid over the output marginal; for a fixed marginal the best
    # channel tilts each row in closed form, so scanning the marginal
    # simplex is an exhaustive search over all channels
    p3 = np.array([0.5, 0.3, 0.2])
    payoff3 = np.random.default_rng(17).uniform(0.0, 1.0, (3, 3))
    qs = []
    m = 30
    for i in range(m + 1):
        for j in range(m + 1 - i):
            qs.append((i / m, j / m, (m - i - j) / m))
    q = np.array(qs)
    for beta in (0.0, 1.0, 2.0, 3.0):
        inner = q @ np.exp2(beta * payoff3).T
        best = float((-(p3[None, :] * np.log2(inner)).sum(axis=1)).min())
        point = _ba_point(_lump(np.log(p3), payoff3), beta, 4000, 1e-13)
        got = point.rate_bits - beta * point.cont_info
        assert abs(got - best) <= 1e-3, beta

    # the solved trade-off curve per story: monotone and non-dominated
    params = InductiveParams()
    for story in ("story1", "story4"):
        ev = parse_evidence(DATA_DIR / f"{story}.fol")
        sl = build_sublanguage(ev, SubLanguageConfig(slack=1))
        model = InductiveModel(sl, params)
        source = MessagePartition.from_model(model)
        receiver = receiver_prior(sl, params)
        alphabet = candidate_reconstructions(model)
        points = rd_sweep(source, alphabet, LossyConfig(), receiver)
        assert len(points) >= 2
        for lo, hi in zip(points, points[1:]):
            assert hi.rate_bits >= lo.rate_bits - 1e-12
            assert hi.cont_info > lo.cont_info
        assert points[0].rate_bits <= 1e-9


# --- 9. extreme-magnitude arithmetic -----------------------------------


def test_extreme_arithmetic_accuracy():
    rnd = random.Random(0xF00D)
    for _ in range(60_000):
        a = ExtremeReal.from_ln(rnd.uniform(-15000.0, 15000.0) * math.log(10.0),
                                sign=rnd.choice((1, -1)))
        b = ExtremeReal.from_ln(rnd.uniform(-15000.0, 15000.0) * math.log(10.0),
                                sign=rnd.choice((1, -1)))
        got = (a * b) / b
        assert got.sign == a.sign
        assert math.isclose(got.ln_mag, a.ln_mag, rel_tol=1e-12, abs_tol=1e-12)
    for _ in range(40_000):
        x = rnd.uniform(-34000.0, 34000.0)
        gap = rnd.uniform(0.0, 60.0)
        got = lse([x, x - gap])
        want = x + math.log1p(math.exp(-gap))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
