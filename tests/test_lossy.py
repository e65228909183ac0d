"""Rate against transmitted content: solver vs grid search, frontier shape."""

import functools
import io
import itertools
import logging
import math
import random
import runpy
import tracemalloc

import numpy as np
import pytest

from semcomm import lossy
from semcomm.errors import DomainMismatchError, InfeasibleTargetError
from semcomm.fol import parse_evidence
from semcomm.inductive import InductiveModel, InductiveParams, constituent_prior
from semcomm.lossy import (LossyConfig, RDPoint, _argmax_point, _ba_grid,
                           _lump, candidate_reconstructions, content_cap,
                           lossy_optimize, payoff_matrix, rd_sweep,
                           receiver_prior, relative_informativeness)
from semcomm.measures import MessagePartition, cont_sentence
from semcomm.sublang import (Constituent, SubLanguageConfig, build_sublanguage,
                             enumerate_constituents)

from conftest import DATA_DIR, random_evidence_text, random_model

_LN2 = math.log(2.0)


def _ln_probs(probs):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(probs, dtype=float))


def _grid_min_2(probs, payoff, beta, steps=400):
    t = np.linspace(0.0, 1.0, steps + 1)
    q = np.stack([t, 1.0 - t], axis=1)
    inner = q @ np.exp2(beta * payoff).T
    vals = -(probs[None, :] * np.log2(inner)).sum(axis=1)
    return float(vals.min())


def _grid_min_3(probs, payoff, beta, steps=30):
    pts = []
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            pts.append((i / steps, j / steps, (steps - i - j) / steps))
    q = np.array(pts)
    inner = q @ np.exp2(beta * payoff).T
    vals = -(probs[None, :] * np.log2(inner)).sum(axis=1)
    return float(vals.min())


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, 4.0])
def test_solver_matches_grid_two_by_two(beta):
    probs = np.array([0.35, 0.65])
    payoff = np.array([[1.0, 0.2], [0.1, 0.8]])
    point = _ba_grid(_lump(_ln_probs(probs), payoff), (beta,), 2000, 1e-12)[0]
    got = point.rate_bits - beta * point.cont_info
    want = _grid_min_2(probs, payoff, beta)
    assert abs(got - want) <= 1e-3


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 3.0])
def test_solver_matches_grid_three_by_three(beta):
    rnd = np.random.default_rng(17)
    probs = np.array([0.5, 0.3, 0.2])
    payoff = rnd.uniform(0.0, 1.0, size=(3, 3))
    point = _ba_grid(_lump(_ln_probs(probs), payoff), (beta,), 4000, 1e-13)[0]
    got = point.rate_bits - beta * point.cont_info
    want = _grid_min_3(probs, payoff, beta)
    assert abs(got - want) <= 1e-3


def test_zero_beta_spends_no_rate():
    probs = np.array([0.25, 0.25, 0.5])
    payoff = np.random.default_rng(2).uniform(size=(3, 4))
    point = _ba_grid(_lump(_ln_probs(probs), payoff), (0.0,), 500, 1e-12)[0]
    assert point.rate_bits <= 1e-9


def test_rising_objective_is_an_error(monkeypatch):
    # the monotone-descent check must survive python -O
    calls = iter(range(1, 1000))
    monkeypatch.setattr(lossy, "_mutual_bits",
                        lambda ln_p, ln_cond, payoff, *split: (
                            np.full(len(ln_cond), float(next(calls))),
                            np.zeros(len(ln_cond)), ln_cond[:, :, 0]))
    probs = np.array([0.4, 0.6])
    payoff = np.array([[0.9, 0.3], [0.2, 0.7]])
    with pytest.raises(RuntimeError, match="objective increased"):
        _ba_grid(_lump(_ln_probs(probs), payoff), (1.0,), 50, 1e-12)


@pytest.mark.parametrize("rise, raises", [(1e-13, False), (1e-6, True)])
def test_objective_slack_scales_with_its_size(monkeypatch, rise, raises):
    # at beta = 1 with no rate the objective is minus the mean payoff; a
    # rise of 1e-13 of its size is rounding, one of 1e-6 is not
    big = 16037.249534374318
    payoffs = iter([big, big * (1 - rise)])
    monkeypatch.setattr(lossy, "_mutual_bits",
                        lambda ln_p, ln_cond, payoff, *split: (
                            np.zeros(len(ln_cond)),
                            np.full(len(ln_cond), next(payoffs)),
                            ln_cond[:, :, 0]))
    channel = _lump(_ln_probs(np.array([0.4, 0.6])), np.array([[0.9, 0.3], [0.2, 0.7]]))
    if raises:
        with pytest.raises(RuntimeError, match="objective increased"):
            _ba_grid(channel, (1.0,), 2, 1e-12)
    else:
        assert _ba_grid(channel, (1.0,), 2, 1e-12)[0].converged


def _dense_mutual_bits(ln_p, ln_cond, payoff):
    """Rate (bits) and expected payoff of a full channel (the oracle's own)."""
    ln_joint = ln_p[:, None] + ln_cond
    ln_q = np.logaddexp.reduce(ln_joint, axis=0)
    w = np.exp(ln_joint)
    with np.errstate(invalid="ignore"):
        gain = ln_cond - ln_q[None, :]
        terms = np.where(w > 0.0, w * gain, 0.0)
    rate = max(float(terms.sum()) / _LN2, 0.0)
    return rate, float((w * payoff).sum())


def _dense_ba(ln_p, payoff, beta, max_iters, tol):
    """Textbook alternating minimization on the full channel (the oracle)."""
    n, m = payoff.shape
    tilt = beta * _LN2 * payoff
    ln_cond = np.full((n, m), -math.log(m))
    prev_rate = math.inf
    for iterations in range(1, max_iters + 1):
        ln_q = np.logaddexp.reduce(ln_p[:, None] + ln_cond, axis=0)
        ln_cond = ln_q[None, :] + tilt
        ln_cond = ln_cond - np.logaddexp.reduce(ln_cond, axis=1)[:, None]
        rate, mean_payoff = _dense_mutual_bits(ln_p, ln_cond, payoff)
        converged = abs(rate - prev_rate) < tol
        if converged:
            break
        prev_rate = rate
    return rate, mean_payoff, iterations, converged


def _assert_matches_dense(ln_p, payoff, beta, max_iters=500, tol=1e-10):
    point = _ba_grid(_lump(ln_p, payoff), (beta,), max_iters, tol)[0]
    rate, info, iterations, converged = _dense_ba(ln_p, payoff, beta,
                                                  max_iters, tol)
    assert (point.iterations, point.converged) == (iterations, converged)
    assert abs(point.rate_bits - rate) <= 1e-12
    assert abs(point.cont_info - info) <= 1e-12
    assert point.objective == pytest.approx(rate - beta * info, abs=1e-12)


def _random_channel(seed):
    """Source weights and payoffs with zero-weight rows and columns equal
    on every weighted row, which is what the solver lumps; the zero-weight
    rows still tell those columns apart."""
    rnd = np.random.default_rng(seed)
    n = int(rnd.integers(2, 8))
    probs = rnd.dirichlet(np.ones(n))
    probs[rnd.permutation(n)[:int(rnd.integers(1, n))]] = 0.0
    probs /= probs.sum()
    base = rnd.uniform(0.0, 1.0, size=(n, int(rnd.integers(1, 5))))
    base[rnd.uniform(size=base.shape) < 0.3] = 0.0
    payoff = base[:, rnd.integers(0, base.shape[1], size=int(rnd.integers(2, 12)))]
    payoff[probs == 0.0] = rnd.uniform(0.0, 1.0, size=(int((probs == 0.0).sum()),
                                                       payoff.shape[1]))
    return probs, payoff


@pytest.mark.parametrize("seed", range(8))
def test_lumped_solver_matches_dense_on_random_channels(seed):
    probs, payoff = _random_channel(seed)
    for beta in (0.0, 0.5, 2.0, 8.0, 64.0):
        _assert_matches_dense(_ln_probs(probs), payoff, beta)
    # a pass budget too small to settle is reported, not hidden
    channel = _lump(_ln_probs(probs), payoff)
    assert not _ba_grid(channel, (64.0,), 1, 1e-10)[0].converged


def _story_payoff(story, slack):
    ev = parse_evidence(DATA_DIR / f"{story}.fol")
    sl = build_sublanguage(ev, SubLanguageConfig(slack=slack))
    assert sl.big_k <= 8
    model = InductiveModel(sl)
    source = MessagePartition.from_model(model)
    return source, payoff_matrix(source, candidate_reconstructions(model),
                                 receiver_prior(sl))


@pytest.mark.parametrize("story, slack", [("story1", 4), ("story3", 3),
                                          ("story5", 2), ("story7", 1)])
def test_lumped_solver_matches_dense_on_stories(story, slack):
    source, payoff = _story_payoff(story, slack)
    for beta in LossyConfig().beta_grid[::2]:  # 0, 2, 8, ..., 8192
        _assert_matches_dense(_ln_probs(source.probs), payoff, beta)


def _one_point_ba(channel, beta, max_iters, tol):
    """One multiplier solved alone on two-dimensional arrays, as sweeps
    ran before they stacked their grid (the reference for the stack's
    floats): the same folds, in the same orders, without the stack."""
    ln_p, ln_start, payoff, starts, lens, ln_share = channel
    tilt = beta * _LN2 * payoff
    ln_q = np.logaddexp.reduce(ln_p[:, None] + ln_start, axis=0)
    prev_rate = math.inf
    for iterations in range(1, max_iters + 1):
        ln_cond = ln_q[None, :] + tilt
        ln_cond = ln_cond - np.logaddexp.reduce(
            np.ascontiguousarray(ln_cond.T), axis=0)[:, None]
        ln_joint = ln_p[:, None] + ln_cond
        ln_q = np.logaddexp.reduce(ln_joint, axis=0)
        ln_q = np.repeat(np.logaddexp.reduceat(ln_q, starts), lens) + ln_share
        w = np.exp(ln_joint)
        rate = max(float((w * (ln_cond - ln_q)).sum()) / _LN2, 0.0)
        mean_payoff = float((w * payoff).sum())
        converged = abs(rate - prev_rate) < tol
        if converged:
            break
        prev_rate = rate
    return RDPoint(rate, mean_payoff, beta, iterations, converged,
                   rate - beta * mean_payoff)


def _assert_grid_is_its_points(channel, grid, max_iters, tol=1e-10):
    """Solving a grid in step gives each multiplier's own solve, field
    for field, and the reference's."""
    points = _ba_grid(channel, grid, max_iters, tol)
    assert points == [_ba_grid(channel, (beta,), max_iters, tol)[0]
                      for beta in grid]
    assert points == [_one_point_ba(channel, beta, max_iters, tol)
                      for beta in grid]
    return points


@pytest.mark.parametrize("seed", range(8))
def test_grid_solve_matches_one_point_solves_on_random_channels(seed):
    probs, payoff = _random_channel(seed)
    channel = _lump(_ln_probs(probs), payoff)
    for max_iters in (1, 2, 500):
        _assert_grid_is_its_points(channel, (0.0, 0.5, 2.0, 8.0, 64.0),
                                   max_iters)


@pytest.mark.parametrize("story, slack", [
    *((f"story{i}", 2) for i in range(1, 8)), ("story1", 4)])
def test_grid_solve_matches_one_point_solves_on_stories(story, slack):
    source, payoff = _story_payoff(story, slack)
    channel = _lump(_ln_probs(source.probs), payoff)
    grid = LossyConfig().beta_grid
    points = _assert_grid_is_its_points(channel, grid, 500)
    # story7's beta = 64 point at slack 2 and story1's at slack 4 stop at
    # the pass cap: the longest tail of the stack
    capped = [pt.beta for pt in points if not pt.converged]
    assert capped == ([64.0] if (story, slack) in {("story7", 2), ("story1", 4)}
                      else [])
    _assert_grid_is_its_points(channel, grid, 1)


def test_first_rise_in_grid_order_raises(monkeypatch, caplog):
    # the objective rises at grid index 4 on the second pass and at index
    # 2 on the third: index 2's error is raised, after the points before
    # it are logged, and nothing is logged for the points after it
    passes = iter([([0.0] * 6, [0.0] * 6),
                   ([0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
                    [0.0, 0.0, 1.0, 1.0, 0.0, 1.0]),
                   ([2.0, 2.0], [0.0, 2.0])])

    def stacked(ln_p, ln_cond, payoff, *split):
        rates, means = map(np.array, next(passes))
        assert len(rates) == len(ln_cond)
        return rates, means, ln_cond[:, :, 0]

    channel = _lump(_ln_probs(np.array([0.4, 0.6])),
                    np.array([[0.9, 0.3], [0.2, 0.7]]))
    monkeypatch.setattr(lossy, "_mutual_bits", stacked)
    caplog.set_level(logging.DEBUG, logger="semcomm.lossy")
    with pytest.raises(RuntimeError) as exc:
        _ba_grid(channel, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 50, 1e-12)
    assert str(exc.value) == "objective increased from -2.0 to 2.0 at beta=3"
    assert [r.getMessage() for r in caplog.records] == [
        f"beta={beta}: 2 iterations, converged=True, objective=0.0"
        for beta in (1, 2)]
    assert next(passes, None) is None


def _orbits(gens, size, act):
    """Number the orbits of the points of a grid under ``gens``."""
    label = {}
    for start in itertools.product(*map(range, size)):
        if start in label:
            continue
        label[start] = len(label)
        stack = [start]
        while stack:
            point = stack.pop()
            for gen in gens:
                image = act(gen, point)
                if image not in label:
                    label[image] = label[start]
                    stack.append(image)
    return np.array([label[p] for p in itertools.product(*map(range, size))])


def _symmetric_channel(rnd):
    """A random channel invariant under a group of simultaneous row and
    column permutations.  One generator swaps rows 0 and 1 together with
    columns 0 and 1; the others cycle random rows and columns past those.
    The payoff is positive at (0, 0) and zero at (0, 1), so columns 0
    and 1 share a class but differ on row 0."""
    n, m = int(rnd.integers(2, 8)), int(rnd.integers(2, 11))
    gens = [(np.r_[1, 0, 2:n], np.r_[1, 0, 2:m])]
    for _ in range(int(rnd.integers(1, 3))):
        sigma, tau = np.arange(n), np.arange(m)
        for perm in (sigma, tau):
            moved = 2 + rnd.permutation(len(perm) - 2)
            moved = moved[:int(rnd.integers(0, len(moved) + 1))]
            perm[moved] = np.roll(moved, 1)
        gens.append((sigma, tau))
    pairs = _orbits(gens, (n, m), lambda g, p: (g[0][p[0]], g[1][p[1]]))
    rows = _orbits(gens, (n,), lambda g, p: (g[0][p[0]],))
    level = rnd.uniform(0.0, 1.0, size=n * m)
    level[rnd.uniform(size=n * m) < 0.3] = 0.0
    level[pairs[0]], level[pairs[1]] = 0.5 + level[pairs[0]] / 2, 0.0
    weight = rnd.uniform(0.1, 1.0, size=n)
    if rnd.uniform() < 0.5:  # a row orbit, unless rows 0-1's, weighs nothing
        weight[rnd.choice(rows)] = 0.0
        weight[rows[0]] = 1.0
    probs = weight[rows]
    return probs / probs.sum(), level[pairs].reshape(n, m)


@pytest.mark.parametrize("seed", range(10))
def test_quotient_solver_matches_dense_on_symmetric_channels(seed):
    probs, payoff = _symmetric_channel(np.random.default_rng(seed))
    channel = _lump(_ln_probs(probs), payoff)
    assert len(channel.lens) < len(channel.ln_start)  # columns merge
    for beta in (0.0, 0.5, 2.0, 8.0, 64.0):
        _assert_matches_dense(_ln_probs(probs), payoff, beta)


def test_quotient_is_coarser_than_equal_columns():
    # no two columns are equal, but rows 0 and 1 weigh the same and swap
    # columns 0 and 1, so those columns form one class
    probs = np.array([0.3, 0.3, 0.4])
    payoff = np.array([[1.0, 0.0, 0.2],
                       [0.0, 1.0, 0.2],
                       [0.5, 0.5, 0.9]])
    channel = _lump(_ln_probs(probs), payoff)
    assert (len(channel.ln_p), len(channel.lens)) == (2, 2)
    for beta in (0.0, 1.0, 4.0, 32.0):
        _assert_matches_dense(_ln_probs(probs), payoff, beta)


@pytest.mark.parametrize("story", [f"story{i}" for i in range(1, 8)])
def test_quotient_classes_are_the_orbits(story):
    # with c observed kinds and m slack cells, Sym(c) x Sym(m) leaves the
    # m+1 hypothesis sizes and the (c+1)(m+1) ways a reconstruction meets
    # the observed and the slack cells; the refinement merges no further
    for slack in range(7):
        model = _bundled_story_model(story, slack)
        source = MessagePartition.from_model(model)
        payoff = payoff_matrix(source, candidate_reconstructions(model),
                               receiver_prior(model.sublang, model.params))
        channel = _lump(_ln_probs(source.probs), payoff)
        c, m = model.summary.c, model.big_k - model.summary.c
        assert (len(channel.ln_p), len(channel.lens)) == (
            m + 1, (c + 1) * (m + 1))


def test_argmax_point_attains_cap():
    probs = np.array([0.5, 0.5])
    payoff = np.array([[0.8, 0.1], [0.3, 0.9]])
    point = _argmax_point(probs, payoff)
    assert point.cont_info == pytest.approx(0.5 * 0.8 + 0.5 * 0.9, abs=1e-12)
    assert point.beta == math.inf
    assert (point.iterations, point.converged, point.objective) == (0, True, None)


def _dense_argmax(probs, payoff):
    """The deterministic channel spelled out as a full log-channel."""
    n, m = payoff.shape
    ln_cond = np.full((n, m), -np.inf)
    ln_cond[np.arange(n), payoff.argmax(axis=1)] = 0.0
    return _dense_mutual_bits(_ln_probs(probs), ln_cond, payoff)


@pytest.mark.parametrize("seed", range(12))
def test_argmax_point_matches_dense_channel(seed):
    # coarse payoff levels tie many row maxima; zero-weight rows and a
    # single weighted row are among the cases
    rnd = np.random.default_rng(seed)
    n, m = int(rnd.integers(1, 12)), int(rnd.integers(1, 9))
    probs = rnd.dirichlet(np.ones(n))
    if n > 1:
        probs[rnd.permutation(n)[:int(rnd.integers(0, n))]] = 0.0
        probs /= probs.sum()
    payoff = rnd.integers(0, 3, size=(n, m)) / 2.0
    rate, info = _dense_argmax(probs, payoff)
    point = _argmax_point(probs, payoff)
    assert abs(point.rate_bits - rate) <= 1e-12
    assert abs(point.cont_info - info) <= 1e-12


def test_argmax_point_allocates_no_channel():
    rnd = np.random.default_rng(3)
    payoff = rnd.uniform(size=(1023, 1024))
    probs = rnd.dirichlet(np.ones(1023))
    tracemalloc.start()
    try:
        _argmax_point(probs, payoff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < payoff.nbytes / 4


def _random_evidence_model(seed):
    rnd = random.Random(seed)
    ev = parse_evidence(io.StringIO(random_evidence_text(rnd, max_ents=5)))
    return InductiveModel(build_sublanguage(
        ev, SubLanguageConfig(slack=rnd.randint(0, 2))))


def _bundled_story_model(story, slack):
    ev = parse_evidence(DATA_DIR / f"{story}.fol")
    return InductiveModel(build_sublanguage(ev, SubLanguageConfig(slack=slack)))


def test_payoff_matrix_holds_only_weighted_rows():
    # story1 at K = 10 has c = 4 observed kinds: 2^6 weighted hypotheses
    # of 1,023, so the matrix is 64 x 1,024 (0.5 MB), not 1,023 x 1,024
    model = _bundled_story_model("story1", 6)
    assert (model.big_k, model.summary.c) == (10, 4)
    source = MessagePartition.from_model(model)
    alphabet = candidate_reconstructions(model)
    receiver = receiver_prior(model.sublang, model.params)
    tracemalloc.start()
    try:
        payoff = payoff_matrix(source, alphabet, receiver)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6
    assert payoff.shape == (64, 1024)


@functools.lru_cache(maxsize=4)
def _story_setup(seed=13, slack=1):
    rnd = random.Random(seed)
    model = random_model(rnd, slack=slack)
    source = MessagePartition.from_model(model)
    receiver = receiver_prior(model.sublang, model.params)
    alphabet = candidate_reconstructions(model)
    return model, source, receiver, alphabet


def test_payoff_entailment_mask():
    model, source, receiver, alphabet = _story_setup()
    payoff = payoff_matrix(source, alphabet, receiver)
    for i, msg in enumerate(source.members):
        for j, recon in enumerate(alphabet):
            if msg.constituents <= recon.constituents:
                want = cont_sentence(recon, receiver)
                assert payoff[i, j] == pytest.approx(want, abs=1e-12)
            else:
                assert payoff[i, j] == 0.0


def _subset_payoff(source, alphabet, model):
    """The payoff by its formula: one subset test per pair (the oracle)."""
    return np.array([[cont_sentence(recon, model)
                      if msg.constituents <= recon.constituents else 0.0
                      for recon in alphabet] for msg in source.members])


@pytest.mark.parametrize("seed", range(6))
def test_payoff_matrix_matches_subset_formula(seed):
    model = _random_evidence_model(seed)
    assert model.big_k <= 7
    source = MessagePartition.from_model(model)
    receiver = receiver_prior(model.sublang)
    alphabet = candidate_reconstructions(model)
    assert np.array_equal(payoff_matrix(source, alphabet, receiver),
                          _subset_payoff(source, alphabet, receiver))


def _zero_padded(model, source):
    """The sender's partition with every hypothesis the evidence rules out
    added back at weight zero, in enumeration order (the oracle)."""
    sl = model.sublang
    kept = {con: (p, ln) for msg, p, ln in zip(source.members, source.probs,
                                               source.ln_probs)
            for con in msg.constituents}
    cons = enumerate_constituents(sl)
    probs, lns = zip(*(kept.get(con, (0.0, -math.inf)) for con in cons))
    return MessagePartition(tuple(sl.sentence([con]) for con in cons),
                            probs, lns)


@pytest.mark.parametrize("model", [
    *(pytest.param(seed, id=f"seed{seed}") for seed in range(6)),
    *(pytest.param((f"story{i}", slack), id=f"story{i}-slack{slack}")
      for i in range(1, 8) for slack in (1, 2))])
def test_weighted_partition_matches_zero_padded(model):
    model = (_random_evidence_model(model) if isinstance(model, int)
             else _bundled_story_model(*model))
    source = MessagePartition.from_model(model)
    padded = _zero_padded(model, source)
    assert len(source.members) < len(padded.members)
    receiver = receiver_prior(model.sublang, model.params)
    alphabet = candidate_reconstructions(model)
    full = payoff_matrix(padded, alphabet, receiver)
    assert np.array_equal(payoff_matrix(source, alphabet, receiver),
                          full[np.array(padded.probs) > 0.0])
    cfg = LossyConfig()
    assert rd_sweep(source, alphabet, cfg, receiver) == \
        rd_sweep(padded, alphabet, cfg, receiver)
    cap = content_cap(source, alphabet, receiver)
    assert cap == content_cap(padded, alphabet, receiver)
    for floor in (0.0, 0.5 * cap.cont_info, cap.cont_info):
        cfg = LossyConfig(d_star=floor)
        assert lossy_optimize(source, alphabet, cfg, receiver) == \
            lossy_optimize(padded, alphabet, cfg, receiver)


def test_payoff_matrix_on_hand_built_partitions():
    # members holding no, one or several constituents, and reconstructions
    # built from equal but distinct constituent objects
    sl = build_sublanguage(parse_evidence(DATA_DIR / "story7.fol"),
                           SubLanguageConfig(slack=1))
    cons = enumerate_constituents(sl)
    assert len(cons) >= 15
    receiver = receiver_prior(sl)
    rnd = random.Random(5)
    alphabet = [sl.sentence([]), sl.upset(())]
    alphabet += [sl.upset(rnd.sample(range(sl.big_k), rnd.randint(0, 2)))
                 for _ in range(6)]
    alphabet += [sl.sentence(Constituent(sorted(c))
                             for c in rnd.sample(cons, rnd.randint(1, 12)))
                 for _ in range(30)]
    shuffled = rnd.sample(cons, len(cons))
    layouts = [[[], shuffled[:1], shuffled[1:4], shuffled[4:]],
               [shuffled[:3], [], shuffled[3:4], [], shuffled[4:9]],
               [[c] for c in shuffled]]
    for layout in layouts:
        members = tuple(sl.sentence(group) for group in layout)
        source = MessagePartition(members, (1.0 / len(members),) * len(members))
        assert np.array_equal(payoff_matrix(source, alphabet, receiver),
                              _subset_payoff(source, alphabet, receiver))
    with pytest.raises(ValueError, match="alphabet must be non-empty"):
        payoff_matrix(source, [], receiver)
    # a partition of weights alone, with no member sentences, builds (its
    # weights sum to one), and payoff_matrix refuses it
    with pytest.raises(ValueError, match="carries no message sentences"):
        payoff_matrix(MessagePartition((), (1.0,)), alphabet, receiver)


def _assert_subset_payoff(model):
    """The payoff matrix equals the oracle's, priced by the receiver and by
    the sender's own posterior (whose width counts skip the hypotheses
    without every observed kind), also with an empty member added."""
    sl = model.sublang
    source = MessagePartition.from_model(model)
    with_empty = MessagePartition(source.members + (sl.sentence([]),),
                                  source.probs + (0.0,))
    alphabet = candidate_reconstructions(model)
    for pricing in (receiver_prior(sl, model.params), model):
        for partition in (source, with_empty):
            assert np.array_equal(
                payoff_matrix(partition, alphabet, pricing),
                _subset_payoff(partition, alphabet, pricing))


@pytest.mark.parametrize("slack", [4, 5, 6])
def test_payoff_matrix_matches_subset_formula_on_story1(slack):
    model = _bundled_story_model("story1", slack)
    assert model.big_k == slack + 4
    _assert_subset_payoff(model)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_payoff_matrix_matches_subset_formula_on_generated_cells(seed):
    # the shape of the benchmark's hypothesis-space lossy input: 80
    # individuals of 4 kinds, with 4 slack cells (K = 8)
    gen = runpy.run_path(str(DATA_DIR.parent.parent / "perfbench" / "gen.py"))
    text = gen["generate"](gen["StreamSpec"](entities=80, kinds=4, facts=3,
                                             statements=480, predicates=6),
                           seed)
    ev = parse_evidence(io.StringIO(text.decode()))
    model = InductiveModel(build_sublanguage(ev, SubLanguageConfig(slack=4)))
    assert (model.big_k, model.summary.c) == (8, 4)
    _assert_subset_payoff(model)


def test_payoff_matrix_rejects_a_foreign_reconstruction():
    model = _bundled_story_model("story7", 1)
    source = MessagePartition.from_model(model)
    receiver = receiver_prior(model.sublang, model.params)
    # the same evidence and slack, but another sub-language
    twin = _bundled_story_model("story7", 1).sublang
    alphabet = candidate_reconstructions(model)
    for foreign in (twin.upset(()), twin.sentence([])):
        with pytest.raises(DomainMismatchError, match="different sub-language"):
            payoff_matrix(source, alphabet + [foreign], receiver)


@pytest.mark.parametrize("params", [
    InductiveParams(),
    InductiveParams(alpha=1.5),
    InductiveParams(lambda_value=2.0, alpha=0.5),
    InductiveParams(lambda_value=math.inf, alpha=1.0),
])
def test_receiver_route_matches_brute_force(params):
    # the receiver prices sentences by width class; the oracle sums the
    # prior of every excluded hypothesis one by one
    rnd = random.Random(29)
    for _ in range(6):
        ev = parse_evidence(io.StringIO(random_evidence_text(rnd, max_ents=4)))
        sl = build_sublanguage(ev, SubLanguageConfig(slack=rnd.randint(0, 2)))
        assert sl.big_k <= 6
        receiver = receiver_prior(sl, params)
        assert isinstance(receiver, InductiveModel)
        prior = {c: constituent_prior(len(c), sl.big_k, params).to_float()
                 for c in enumerate_constituents(sl)}

        def excluded(s):
            return math.fsum(w for c, w in prior.items()
                             if c not in s.constituents)

        cons = enumerate_constituents(sl)
        randoms = [sl.sentence(rnd.sample(cons, rnd.randint(0, len(cons))))
                   for _ in range(20)]
        for s in randoms:
            assert abs(cont_sentence(s, receiver) - excluded(s)) <= 1e-12

        model = InductiveModel(sl, params)
        source = MessagePartition.from_model(model)
        alphabet = candidate_reconstructions(model) + randoms
        payoff = payoff_matrix(source, alphabet, receiver)
        for i, msg in enumerate(source.members):
            for j, recon in enumerate(alphabet):
                want = (excluded(msg | recon)
                        if msg.constituents <= recon.constituents else 0.0)
                assert abs(payoff[i, j] - want) <= 1e-12


def test_candidate_alphabet_is_upset_family():
    model, _, _, alphabet = _story_setup()
    sl = model.sublang
    assert len(alphabet) == 2 ** model.big_k
    all_cons = frozenset(enumerate_constituents(sl))
    assert any(s.constituents == all_cons for s in alphabet)  # tautology
    for s in alphabet:
        for c in s.constituents:
            # upward closed: adding kinds never leaves the sentence
            for d in all_cons:
                if c <= d:
                    assert d in s.constituents
    # the claim of just the observed kinds is offered, and priced by the
    # receiver it carries most of what story1's evidence says; under the
    # sender's posterior every claim about observed kinds is worth 0
    ev = parse_evidence(DATA_DIR / "story1.fol")
    sl = build_sublanguage(ev, SubLanguageConfig(slack=3))
    model = InductiveModel(sl)
    source = MessagePartition.from_model(model)
    receiver = receiver_prior(sl)
    observed_upset = sl.upset(range(sl.summary.c))
    alphabet = candidate_reconstructions(model)
    assert observed_upset in alphabet
    observed = content_cap(source, [observed_upset], receiver)
    assert observed.cont_info > 0.9
    got = content_cap(source, alphabet, receiver)
    assert got.cont_info >= observed.cont_info - 1e-12


def test_receiver_prior_weights():
    model, _, receiver, _ = _story_setup()
    sl = model.sublang
    for c in enumerate_constituents(sl):
        want = constituent_prior(len(c), sl.big_k, model.params).to_float()
        got = receiver.sentence_probability(sl.sentence([c]))
        assert got == pytest.approx(want, rel=1e-12)


def test_sweep_frontier_monotone():
    model, source, receiver, alphabet = _story_setup()
    points = rd_sweep(source, alphabet, LossyConfig(), receiver)
    assert points
    rates = [pt.rate_bits for pt in points]
    infos = [pt.cont_info for pt in points]
    assert rates == sorted(rates)
    assert infos == sorted(infos)
    # non-dominated: every extra bit of rate buys strictly more content
    for a, b in zip(points, points[1:]):
        assert b.cont_info > a.cont_info
    assert points[0].rate_bits <= 1e-9


def test_sweep_capped_by_deterministic_channel():
    model, source, receiver, alphabet = _story_setup()
    cap = content_cap(source, alphabet, receiver)
    for pt in rd_sweep(source, alphabet, LossyConfig(), receiver):
        assert pt.cont_info <= cap.cont_info + 1e-9


def test_optimize_zero_floor_is_free():
    model, source, receiver, alphabet = _story_setup()
    point = lossy_optimize(source, alphabet, LossyConfig(d_star=0.0), receiver)
    assert point.rate_bits <= 1e-9


def test_optimize_meets_floor():
    model, source, receiver, alphabet = _story_setup()
    cap = content_cap(source, alphabet, receiver)
    floor = 0.5 * cap.cont_info
    point = lossy_optimize(source, alphabet, LossyConfig(d_star=floor), receiver)
    assert point.cont_info >= floor


def test_optimize_infeasible_floor():
    model, source, receiver, alphabet = _story_setup()
    cap = content_cap(source, alphabet, receiver)
    bad = cap.cont_info * 1.5 + 0.1
    with pytest.raises(InfeasibleTargetError) as exc:
        lossy_optimize(source, alphabet, LossyConfig(d_star=bad), receiver)
    assert exc.value.achievable == pytest.approx(cap.cont_info, rel=1e-12)


def test_relative_informativeness_tops_at_one():
    model, source, receiver, alphabet = _story_setup()
    cap = content_cap(source, alphabet, receiver)
    assert relative_informativeness(cap, cap.cont_info) == pytest.approx(1.0)
    assert relative_informativeness(cap, 0.0) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        LossyConfig(d_star=-1.0)
    with pytest.raises(ValueError):
        LossyConfig(beta_grid=())
    assert LossyConfig(beta_grid=(2.0, 1.0)).beta_grid == (1.0, 2.0)


def test_rd_point_json():
    pt = RDPoint(1.5, 0.25, 8.0)
    assert pt.as_json() == {"beta": 8.0, "rate_bits": 1.5, "cont_info": 0.25,
                            "iterations": 0, "converged": True,
                            "objective": None}
