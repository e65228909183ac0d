"""Lossy content-semantic compression by alternating minimization.

Trades channel rate against transmitted content: minimize the Shannon
mutual information between source messages and reconstructions while the
expected transmitted-content payoff stays above a floor.  The scalarized
objective rate - beta*payoff is minimized by the classic alternating
scheme: with the channel fixed, the best output marginal is the
induced one; with the marginal fixed, the best channel tilts each row
by 2^(beta*payoff) and renormalizes.  Both half-steps lower the
objective, which is checked on every pass.

The passes run on the lumped channel, which gives the same iterates as
the full one.  Source rows of zero weight add nothing to the marginal,
the rate or the payoff, so they are dropped; on the hypothesis partition
only hypotheses holding every observed kind keep weight.  Over the rows
that are left, reconstructions whose payoff columns are equal start
equal under the uniform start and stay equal under both half-steps, so
each class of m_J equal columns is carried as one column holding their
summed mass, starting at m_J/A for A reconstructions.  Within a class
every column has the same ratio of channel weight to marginal, so the
mutual information of the class-summed channel is the true rate.

A reconstruction only transmits content when the source message entails
it: weakening a true description keeps it true, while a reconstruction
that rules the source out misleads rather than informs, so its payoff is
zero.  For entailed pairs the transmitted content reduces to the content
of the reconstruction itself.  Payoffs are the normalized values; the
raw volume factor is a positive constant that rescales the floor without
moving any argmin, so the optimizer never materializes it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleTargetError
from .inductive import InductiveModel
from .measures import MessagePartition, cont_sentence
from .sublang import EvidenceSummary, Sentence

_LN2 = math.log(2.0)
_MONOTONE_SLACK = 1e-9
_MAX_ITERS = 500  # BA passes per multiplier
_TOL = 1e-10      # rate change (bits) that counts as converged
DEFAULT_CANDIDATE_CAP = 1 << 12


@dataclass(frozen=True, slots=True)
class LossyConfig:
    """Constraint floor and multiplier grid for the rate sweep."""

    d_star: float = 0.0
    beta_grid: tuple[float, ...] = (0.0,) + tuple(float(1 << i) for i in range(14))

    def __post_init__(self):
        if not math.isfinite(self.d_star) or self.d_star < 0.0:
            raise ValueError("d_star must be finite and nonnegative")
        grid = tuple(float(b) for b in self.beta_grid)
        if not grid:
            raise ValueError("beta_grid must be non-empty")
        if any(not math.isfinite(b) or b < 0.0 for b in grid):
            raise ValueError("beta values must be finite and nonnegative")
        if list(grid) != sorted(grid):
            raise ValueError("beta_grid must be sorted ascending")
        object.__setattr__(self, "beta_grid", grid)


@dataclass(frozen=True, slots=True)
class RDPoint:
    """One solved trade-off point on the rate curve."""

    rate_bits: float
    cont_info: float
    beta: float
    iterations: int = 0             # BA passes; 0 for the deterministic cap
    converged: bool = True          # rate settled within tol before max_iters
    objective: float | None = None  # final rate - beta*payoff; None at beta=inf

    def as_json(self) -> dict:
        return {
            "beta": self.beta,
            "rate_bits": self.rate_bits,
            "cont_info": self.cont_info,
            "iterations": self.iterations,
            "converged": self.converged,
            "objective": self.objective,
        }


def payoff_matrix(source: MessagePartition, alphabet: list[Sentence],
                  model: InductiveModel) -> np.ndarray:
    """Transmitted content between each source message and reconstruction.

    Entailed reconstructions earn their transmitted content, which is the
    content of the reconstruction itself; pairings the source rules out
    earn zero.
    """
    if not alphabet:
        raise ValueError("reconstruction alphabet must be non-empty")
    if not source.members:
        raise ValueError("source partition carries no message sentences")
    gains = [cont_sentence(recon, model) for recon in alphabet]
    return np.array([[gain if msg.constituents <= recon.constituents else 0.0
                      for recon, gain in zip(alphabet, gains)]
                     for msg in source.members])


def _mutual_bits(ln_p: np.ndarray, ln_cond: np.ndarray,
                 payoff: np.ndarray) -> tuple[float, float]:
    """True mutual information (bits) and expected payoff of a channel."""
    ln_joint = ln_p[:, None] + ln_cond
    ln_q = np.logaddexp.reduce(ln_joint, axis=0)
    w = np.exp(ln_joint)
    with np.errstate(invalid="ignore"):
        gain = ln_cond - ln_q[None, :]
        terms = np.where(w > 0.0, w * gain, 0.0)
    rate = max(float(terms.sum()) / _LN2, 0.0)
    return rate, float((w * payoff).sum())


def _ln_probs(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(p)


def _ba_point(ln_p: np.ndarray, payoff: np.ndarray, beta: float,
              max_iters: int, tol: float) -> RDPoint:
    # the lumped channel: weighted rows against the classes of equal
    # columns, each class starting with the uniform mass of its members
    keep = ln_p > -np.inf
    columns, mult = np.unique(payoff[keep].T, axis=0, return_counts=True)
    ln_pk = ln_p[keep]
    lumped = columns.T
    tilt = beta * _LN2 * lumped
    ln_cond = np.broadcast_to(np.log(mult) - math.log(payoff.shape[1]),
                              lumped.shape)
    prev_rate = math.inf
    prev_obj = math.inf
    converged = False
    for iterations in range(1, max_iters + 1):
        ln_q = np.logaddexp.reduce(ln_pk[:, None] + ln_cond, axis=0)
        ln_cond = ln_q[None, :] + tilt
        ln_cond = ln_cond - np.logaddexp.reduce(ln_cond, axis=1)[:, None]
        rate, mean_payoff = _mutual_bits(ln_pk, ln_cond, lumped)
        obj = rate - beta * mean_payoff
        if obj > prev_obj + _MONOTONE_SLACK:
            raise RuntimeError(f"objective increased from {prev_obj!r} to "
                               f"{obj!r} at beta={beta:g}")
        prev_obj = obj
        if abs(rate - prev_rate) < tol:
            converged = True
            break
        prev_rate = rate
    return RDPoint(rate, mean_payoff, beta, iterations, converged, obj)


def _argmax_point(ln_p: np.ndarray, payoff: np.ndarray) -> RDPoint:
    """Deterministic best-reconstruction channel; attains the payoff cap."""
    n, m = payoff.shape
    best = payoff.argmax(axis=1)
    ln_cond = np.full((n, m), -np.inf)
    ln_cond[np.arange(n), best] = 0.0
    rate, mean_payoff = _mutual_bits(ln_p, ln_cond, payoff)
    return RDPoint(rate, mean_payoff, math.inf)


def lossy_optimize(source: MessagePartition, reconstruction_alphabet: list[Sentence],
                   cfg: LossyConfig, model) -> RDPoint:
    """Cheapest channel whose transmitted content reaches cfg.d_star.

    d_star is in normalized content units (same scale as the payoff
    matrix).  The multiplier grid is scanned, a deterministic
    best-reconstruction channel is kept as the final candidate, and the
    smallest-rate point meeting the floor wins.  A floor above what even
    the deterministic channel transmits raises InfeasibleTargetError
    naming that maximum.
    """
    ln_p = _ln_probs(source.probs)
    payoff = payoff_matrix(source, reconstruction_alphabet, model)
    cap_point = _argmax_point(ln_p, payoff)
    if cfg.d_star > cap_point.cont_info:
        raise InfeasibleTargetError(cfg.d_star, cap_point.cont_info)
    candidates = [_ba_point(ln_p, payoff, beta, _MAX_ITERS, _TOL)
                  for beta in cfg.beta_grid]
    candidates.append(cap_point)
    feasible = [pt for pt in candidates if pt.cont_info >= cfg.d_star]
    return min(feasible, key=lambda pt: (pt.rate_bits, pt.beta))


def rd_sweep(source: MessagePartition, alphabet: list[Sentence],
             cfg: LossyConfig, model) -> list[RDPoint]:
    """One solved point per multiplier, pruned to the efficient frontier.

    Retained points are sorted by rate, no retained point spends more
    rate for less transmitted content than another, and exact duplicates
    collapse to the smallest multiplier that produced them.
    """
    ln_p = _ln_probs(source.probs)
    payoff = payoff_matrix(source, alphabet, model)
    points = [_ba_point(ln_p, payoff, beta, _MAX_ITERS, _TOL)
              for beta in cfg.beta_grid]
    points.sort(key=lambda pt: (pt.rate_bits, -pt.cont_info, pt.beta))
    frontier: list[RDPoint] = []
    best = -math.inf
    for pt in points:
        if pt.cont_info > best + 1e-12:
            frontier.append(pt)
            best = pt.cont_info
    return frontier


def candidate_reconstructions(model, cap: int = DEFAULT_CANDIDATE_CAP) -> list[Sentence]:
    """Reconstruction sentences: every way of weakening a source message.

    Dropping conjuncts from a maximally specific description leaves the
    claim that some subset of kinds is exemplified, whose sentence is the
    upward closure of that subset.  All kind subsets are offered, from the
    full-detail claims down to the empty one (the tautology, the free
    zero-content reconstruction).  When the subsets outnumber the cap, a
    greedy pass keeps the ones adding the most posterior-weighted
    transmitted content, priced like every payoff by the receiver prior.
    """
    if cap < 1:
        raise ValueError("candidate cap must be positive")
    sl = model.sublang
    big_k = model.big_k
    sentences = []
    for size in range(big_k, -1, -1):
        for kinds in itertools.combinations(range(big_k), size):
            sentences.append(sl.upset(kinds))
        if len(sentences) > 8 * cap:
            break
    if len(sentences) <= cap:
        return sentences

    source = MessagePartition.from_model(model)
    ln_p = _ln_probs(source.probs)
    p = np.exp(ln_p)
    payoff = payoff_matrix(source, sentences,
                           receiver_prior(sl, model.params))
    chosen: list[int] = []
    covered = np.zeros(len(source.members))
    remaining = set(range(len(sentences)))
    while len(chosen) < cap and remaining:
        gains = {j: float((p * np.maximum(covered, payoff[:, j])).sum())
                 for j in remaining}
        j_best = max(sorted(remaining), key=lambda j: gains[j])
        if chosen and gains[j_best] <= float((p * covered).sum()):
            break
        chosen.append(j_best)
        remaining.discard(j_best)
        covered = np.maximum(covered, payoff[:, j_best])
    return [sentences[j] for j in chosen]


def content_cap(source: MessagePartition, alphabet: list[Sentence],
                model) -> RDPoint:
    """Deterministic best-reconstruction channel: the payoff ceiling."""
    return _argmax_point(_ln_probs(source.probs),
                         payoff_matrix(source, alphabet, model))


def receiver_prior(sublang, params=None) -> InductiveModel:
    """The constituent prior: the posterior of a receiver with no evidence.

    Transmitted content is valued against this measure; under the
    sender's own posterior every evidence-entailed reconstruction is
    already certain and so transmits nothing.
    """
    empty = EvidenceSummary(0, 0, (), sublang.big_k)
    return InductiveModel(sublang, params, empty)


def relative_informativeness(point: RDPoint, cap: float) -> float:
    """Transmitted content as a fraction of the payoff ceiling ``cap``.

    ``cap`` is the content the best deterministic reconstruction channel
    transmits (:func:`content_cap`); a cap of zero gives 0.
    """
    if cap <= 0.0:
        return 0.0
    return point.cont_info / cap
