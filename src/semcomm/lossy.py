"""Lossy content-semantic compression by alternating minimization.

Trades channel rate against transmitted content: minimize the Shannon
mutual information between source messages and reconstructions while the
expected transmitted-content payoff stays above a floor.  The scalarized
objective rate - beta*payoff is minimized by the classic alternating
scheme: with the channel fixed, the best output marginal is the
induced one; with the marginal fixed, the best channel tilts each row
by 2^(beta*payoff) and renormalizes.  Both half-steps lower the
objective, which is checked on every pass.

The passes run on the exact symmetry quotient of the channel.  Source
rows of zero weight add nothing to the marginal, the rate or the payoff,
so they are dropped; the hypothesis partition has none, since it holds
only hypotheses with every observed kind, but a hand-built partition may.
The rows that are left and the reconstructions are then split into the
coarsest equitable partition of the weighted payoff matrix (Gatermann &
Parrilo 2004 on symmetry reduction).  Rows start split by exact weight
and columns in one class; two columns stay together only if every row
class holds the same multiset of payoffs in both, and two rows only if
they have the same weight and every column class holds the same multiset
of payoffs in both.  The split repeats until nothing splits.  For the
hypothesis partition, with c observed kinds and m slack cells, the
classes are the orbits of Sym(c) x Sym(m): the m+1 hypothesis sizes, and
the (c+1)(m+1) ways a reconstruction meets the observed and slack cells.

Why it is exact: the passes start from the uniform marginal, and by
induction on the passes the marginal stays constant on each column class
and the row normalizer on each row class.  Each row of a class then
sends the same masses as the class's first row, up to a permutation
within each column class, so the passes run on the first row of each
row class, weighted by the class's total, over the distinct columns;
the marginal a column class receives is split among its columns by
their shares of its reconstructions.  The first rows keep every column
rather than one per column class: at large beta a row's normalizer sums
terms near beta ln2 times the payoff, and any other grouping of those
terms rounds each row's mass differently, by about 1e-13, which beta
carries into the objective.

A sweep solves its whole multiplier grid in one loop.  The quotient is
stacked once per multiplier, and each pass of the loop advances every
multiplier still in the stack, which a multiplier leaves when its rate
settles, when its objective rises, or at the pass cap; so a sweep takes
as many passes as its slowest multiplier, not the sum of all of theirs.
Each multiplier gets the floats that a stack of it alone gives: every
step but the sums and the log-sum folds acts entry by entry.  Each
channel of the stack is held transposed and C-ordered, so its block of
memory is the column-major layout of the quotient's payoff, and each sum
reduces that block in memory order, as a sum over one channel does; the
log-sum folds run along one axis within each channel, in index order.
A multiplier that leaves is indexed out of the stack, not carried along.

A reconstruction only transmits content when the source message entails
it: weakening a true description keeps it true, while a reconstruction
that rules the source out misleads rather than informs, so its payoff is
zero.  For entailed pairs the transmitted content reduces to the content
of the reconstruction itself.  Payoffs are the normalized values; the
raw volume factor is a positive constant that rescales the floor without
moving any argmin, so the optimizer never materializes it.

The payoff matrix is built in one pass over the alphabet's constituents
(see ``payoff_matrix``).  A content depends on a sentence only through
its member hypotheses' width counts, and under the receiver prior the
candidate alphabet holds K + 1 distinct rows of them, one per size of
the kind set; each is priced once, by ``cont_sentence``'s route, rather
than by a closed form that would have to match its floats to the bit.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from ._record import Record
from .errors import InfeasibleTargetError
from .inductive import InductiveModel
from .measures import MessagePartition, cont_width_counts
from .sublang import EvidenceSummary, Sentence

log = logging.getLogger("semcomm.lossy")

_LN2 = math.log(2.0)
# a pass may raise the objective by rounding alone: by up to this much, or
# this share of the objective's size, whichever is larger (one near
# -16,037 has risen by 1.3e-9)
_MONOTONE_SLACK = 1e-9
_MONOTONE_REL = 1e-12
_MAX_ITERS = 500  # BA passes per multiplier
_TOL = 1e-10      # rate change (bits) that counts as converged
_CHUNK = 1 << 14  # scratch entries per run of the payoff build


class LossyConfig(Record):
    """Constraint floor and multiplier grid (kept ascending) for the rate sweep.

    Immutable, and equal (and hashed) by its two fields.
    """

    __slots__ = ("d_star", "beta_grid")

    def __init__(self, d_star: float = 0.0, beta_grid: tuple[float, ...] =
                 (0.0,) + tuple(float(1 << i) for i in range(14))):
        if not math.isfinite(d_star) or d_star < 0.0:
            raise ValueError("d_star must be finite and nonnegative")
        grid = tuple(sorted(float(b) for b in beta_grid))
        if not grid:
            raise ValueError("beta_grid must be non-empty")
        if any(not math.isfinite(b) or b < 0.0 for b in grid):
            raise ValueError("beta values must be finite and nonnegative")
        object.__setattr__(self, "d_star", d_star)
        object.__setattr__(self, "beta_grid", grid)


class RDPoint(NamedTuple):
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

    Built exactly for any sentences in one pass over the alphabet's
    constituents: each distinct one is read once, for its owning member
    and its width as a member hypothesis, and two histograms count per
    reconstruction the constituents it holds of each member and its
    member hypotheses by width.  A reconstruction entails a member once
    it holds all of the member's constituents, so a member with none is
    entailed by every one.  Each distinct row of width counts is priced
    once, by :func:`cont_sentence`'s route, so the payoffs are its floats.
    """
    if not alphabet:
        raise ValueError("reconstruction alphabet must be non-empty")
    if not source.members:
        raise ValueError("source partition carries no message sentences")
    for recon in alphabet:
        model._own(recon)
    n_members = len(source.members)
    # members are disjoint, so each constituent has at most one owner
    owner = {con: i for i, msg in enumerate(source.members)
             for con in msg.constituents}
    # sizes as floats: the entailment test then runs the float comparison
    # the solve loads anyway, where an integer one would map 128 kB more of
    # numpy's code into the process
    size = np.array([len(msg.constituents) for msg in source.members],
                    dtype=float)
    # one code per distinct constituent, and what it gives: its owner
    # (n_members for none) and its width where it holds the observed kinds,
    # as member_width_counts counts it (0 where it does not)
    distinct = list(set().union(*(recon.constituents for recon in alphabet)))
    code = {con: i for i, con in enumerate(distinct)}
    need = set(range(model.summary.c))
    owner_of = np.array([owner.get(con, n_members) for con in distinct],
                        dtype=np.intp)
    width_of = np.array([len(con) if need <= con else 0 for con in distinct],
                        dtype=np.intp)
    n_widths = int(width_of.max(initial=0)) + 1
    lens = [len(recon.constituents) for recon in alphabet]
    # runs of reconstructions whose scratch, one entry per constituent held
    # and one per member and width, stays near _CHUNK entries
    bounds, load = [0], 0
    for i, n in enumerate(lens, 1):
        load += n + n_members + 1 + n_widths
        if load >= _CHUNK or i == len(alphabet):
            bounds.append(i)
            load = 0
    out = np.zeros((n_members, len(alphabet)))
    priced: dict[bytes, float] = {}
    for start, stop in zip(bounds, bounds[1:]):
        codes = np.fromiter(
            map(code.__getitem__, itertools.chain.from_iterable(
                recon.constituents for recon in alphabet[start:stop])),
            dtype=np.intp, count=sum(lens[start:stop]))
        held = _tally(lens[start:stop], owner_of[codes], n_members + 1)
        widths = _tally(lens[start:stop], width_of[codes], n_widths)
        gains = []
        for row in widths[:, 1:]:
            tag = row.tobytes()
            gain = priced.get(tag)
            if gain is None:
                gain = priced[tag] = cont_width_counts(
                    {w: n for w, n in enumerate(row.tolist(), 1) if n}, model)
            gains.append(gain)
        out[:, start:stop] = np.where((held[:, :n_members] == size).T,
                                      gains, 0.0)
    return out


def _tally(lens: list[int], labels: np.ndarray, n_labels: int) -> np.ndarray:
    """How many entries of each label each run of ``lens`` entries holds,
    one row per run."""
    slot = np.repeat(np.arange(0, len(lens) * n_labels, n_labels), lens)
    slot += labels
    return np.bincount(slot, minlength=len(lens) * n_labels).reshape(
        len(lens), n_labels)


def _mutual_bits(ln_p: np.ndarray, ln_cond: np.ndarray, payoff: np.ndarray,
                 starts: np.ndarray, lens: np.ndarray, ln_share: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mutual information (bits), mean payoff and log output marginal of
    each channel of a stack.

    ``ln_cond`` holds one channel per multiplier, and ``payoff`` the
    quotient's, each transposed: one line per column, one entry per row.
    A rate may round to just below zero.  The marginal a column class
    receives, its ``lens`` columns from ``starts`` on, is split among them
    by their log shares ``ln_share``.
    A class of one column keeps its own marginal bit for bit: its sum is
    that one term, and its share is exactly 0.0.
    """
    ln_joint = ln_p + ln_cond
    # the marginal folds each column in row order, as a reduce along the
    # last axis does, but down the rows of a contiguous transpose, which
    # runs long inner loops in place of one short one per column
    ln_q = np.logaddexp.reduce(
        np.ascontiguousarray(ln_joint.transpose(0, 2, 1)), axis=1)
    ln_q = np.repeat(np.logaddexp.reduceat(ln_q, starts, axis=1), lens,
                     axis=1) + ln_share
    w = np.exp(ln_joint)
    # every log here is finite, since rows of zero weight are dropped
    rate = np.add.reduce(w * (ln_cond - ln_q[:, :, None]), axis=(1, 2)) / _LN2
    return rate, np.add.reduce(w * payoff, axis=(1, 2)), ln_q


class _Quotient(NamedTuple):
    """The channel a sweep solves on: one row per row class, one column
    per distinct column, the columns of each column class side by side."""

    ln_p: np.ndarray      # log weight of each row class
    ln_start: np.ndarray  # log share of the reconstructions in each column
    payoff: np.ndarray    # the first row of each row class
    starts: np.ndarray    # first column of each column class
    lens: np.ndarray      # columns in each column class
    ln_share: np.ndarray  # log share of each column in its class


def _classes(lines) -> list[int]:
    """Label equal lines alike, in order of first occurrence."""
    seen: dict[bytes, int] = {}
    return [seen.setdefault(line.tobytes(), len(seen)) for line in lines]


def _distinct_columns(weighted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns in lexicographic order, and how many share each.

    Columns are told apart and ordered by their big-endian bytes, which
    order nonnegative floats as their values do, in a fraction of the
    time and memory of sorting them field by field.  Any order is exact;
    this one keeps the iterates of a channel with no rows to merge.
    """
    count = Counter(col.tobytes()
                    for col in np.ascontiguousarray(weighted.T, dtype=">f8"))
    keys = sorted(count)
    atoms = np.frombuffer(b"".join(keys), dtype=">f8").reshape(len(keys), -1)
    return atoms.T.astype(float), np.array([count[key] for key in keys])


def _equitable(rows: list[int], ids: np.ndarray, mult: np.ndarray,
               n_values: int) -> tuple[list[int], list[int]]:
    """Row and column labels of the coarsest equitable partition.

    ``rows`` labels the rows by weight; ``ids`` numbers the payoffs of the
    distinct columns, and ``mult`` counts the reconstructions that share
    each.  A column's key counts its payoffs in each row class, and a
    row's counts its reconstructions' payoffs in each column class.
    """
    n, m = ids.shape
    held = np.broadcast_to(mult, ids.shape).ravel()
    while True:
        k = max(rows) + 1
        code = (np.arange(m) * k + np.array(rows)[:, None]) * n_values + ids
        cols = _classes(np.bincount(code.ravel(), minlength=m * k * n_values)
                        .reshape(m, -1))
        k = max(cols) + 1
        code = (np.arange(n)[:, None] * k + cols) * n_values + ids
        counts = np.bincount(code.ravel(), held, minlength=n * k * n_values)
        split = _classes(np.column_stack([rows, counts.reshape(n, -1)]))
        if max(split) == max(rows):
            return rows, cols
        rows = split


def _lump(ln_p: np.ndarray, payoff: np.ndarray) -> _Quotient:
    """The quotient channel that every multiplier of a sweep solves on.

    Rows of zero weight are dropped: ``MessagePartition.from_model`` makes
    none, but a hand-built partition may hold them.  The rest, and the
    reconstructions, are split into the coarsest equitable partition of
    the weighted payoff matrix, and the first row of each row class is
    kept (see the module docstring).
    """
    keep = ln_p > -np.inf
    ln_w = ln_p[keep]
    atoms, mult = _distinct_columns(payoff if keep.all() else payoff[keep])
    values: dict[float, int] = {}
    ids = np.array([[values.setdefault(v, len(values)) for v in row.tolist()]
                    for row in atoms])
    rows, cols = _equitable(_classes(ln_w[:, None]), ids, mult, len(values))
    reps = [rows.index(k) for k in range(max(rows) + 1)]
    ln_size = np.log(np.bincount(cols, weights=mult))
    order = sorted(range(len(cols)), key=cols.__getitem__)
    cols, mult = np.array(cols)[order], mult[order]
    lens = np.bincount(cols)
    starts = np.cumsum(lens) - lens
    # column-major: a pass's sums fold in memory order, and this order
    # keeps a channel with no rows to merge on the full channel's iterates
    first_rows = np.asfortranarray(atoms[reps][:, order])
    if log.isEnabledFor(logging.DEBUG):
        log.debug("quotient channel: %d weighted rows in %d classes, "
                  "%d reconstructions in %d classes, %d nonzero blocks",
                  len(ln_w), len(reps), payoff.shape[1], len(lens),
                  np.count_nonzero(np.maximum.reduceat(first_rows, starts,
                                                       axis=1)))
    ln_mult = np.log(mult)
    return _Quotient(ln_w[reps] + np.log(np.bincount(rows)),
                     ln_mult - math.log(payoff.shape[1]), first_rows, starts,
                     lens, ln_mult - ln_size[cols])


def _ba_grid(channel: _Quotient, betas: tuple[float, ...], max_iters: int,
             tol: float) -> list[RDPoint]:
    """One solved point per multiplier of ``betas``, in step on one stack.

    Each pass advances every multiplier still in the stack; one leaves it
    when its rate settles, when its objective rises, or at ``max_iters``
    passes (see the module docstring).  The points come back, and are
    logged, in grid order; a rising objective raises for the first
    multiplier in that order whose objective rose, after logging the
    points before it.
    """
    ln_p, ln_start, payoff, *split = channel
    payoff = payoff.T  # C-ordered: line j holds column j of every row
    todo = list(range(len(betas)))  # grid index of each channel in the stack
    tilt = (np.array(betas) * _LN2)[:, None, None] * payoff
    # each pass tilts the output marginal its predecessor measured the
    # rate on, so the marginal is reduced once per pass
    ln_q = np.logaddexp.reduce(ln_p[:, None] + ln_start, axis=0)[None, :]
    last = [(math.inf, math.inf)] * len(betas)  # rate and objective
    solved: dict[int, RDPoint | RuntimeError] = {}
    for iterations in range(1, max_iters + 1):
        ln_cond = ln_q[:, :, None] + tilt
        # the row normalizer folds each row in column order
        ln_cond -= np.logaddexp.reduce(ln_cond, axis=1)[:, None, :]
        rates, means, ln_q = _mutual_bits(ln_p, ln_cond, payoff, *split)
        # the checks run on Python floats: a stack near one channel costs
        # less that way than a dozen numpy calls a pass
        stay = []  # the stack stays in grid order
        for i, (g, rate, mean_payoff) in enumerate(
                zip(todo, rates.tolist(), means.tolist())):
            rate = max(rate, 0.0)  # rounding may take it below zero
            prev_rate, prev_obj = last[i]
            obj = rate - betas[g] * mean_payoff
            rise = obj - prev_obj
            settled = abs(rate - prev_rate) < tol
            if rise > _MONOTONE_SLACK and rise > _MONOTONE_REL * abs(prev_obj):
                solved[g] = RuntimeError(f"objective increased from "
                                         f"{prev_obj!r} to {obj!r} at "
                                         f"beta={betas[g]:g}")
                break  # no point after it in grid order is reported
            elif settled or iterations == max_iters:
                solved[g] = RDPoint(rate, mean_payoff, betas[g], iterations,
                                    settled, obj)
            else:
                stay.append(i)
                last[i] = rate, obj
        if len(stay) < len(todo):
            if not stay:
                break
            todo, last = [todo[i] for i in stay], [last[i] for i in stay]
            tilt, ln_q = tilt[stay], ln_q[stay]
    points = []
    for g in range(len(betas)):
        point = solved[g]
        if isinstance(point, RuntimeError):
            raise point
        log.debug("beta=%g: %d iterations, converged=%s, objective=%r",
                  point.beta, point.iterations, point.converged,
                  point.objective)
        if not point.converged:
            log.warning("beta=%g stopped after %d passes without converging",
                        point.beta, point.iterations)
        points.append(point)
    return points


def _argmax_point(p: np.ndarray, payoff: np.ndarray) -> RDPoint:
    """Deterministic best-reconstruction channel; attains the payoff cap."""
    # each row sends its first best column: the rate is the output entropy
    q = np.bincount(payoff.argmax(axis=1), weights=p)
    q = q[q > 0.0]
    rate = max(0.0, -float((q * np.log(q)).sum()) / _LN2)
    return RDPoint(rate, float((p * payoff.max(axis=1)).sum()), math.inf)


def _solve_grid(source: MessagePartition, payoff: np.ndarray,
                cfg: LossyConfig) -> list[RDPoint]:
    """One solved point per multiplier of the grid, all on one quotient."""
    return _ba_grid(_lump(np.array(source.ln_probs), payoff), cfg.beta_grid,
                    _MAX_ITERS, _TOL)


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
    payoff = payoff_matrix(source, reconstruction_alphabet, model)
    cap_point = _argmax_point(np.array(source.probs), payoff)
    if cfg.d_star > cap_point.cont_info:
        raise InfeasibleTargetError(cfg.d_star, cap_point.cont_info)
    feasible = [pt for pt in _solve_grid(source, payoff, cfg) + [cap_point]
                if pt.cont_info >= cfg.d_star]
    return min(feasible, key=lambda pt: (pt.rate_bits, pt.beta))


def rd_sweep(source: MessagePartition, alphabet: list[Sentence],
             cfg: LossyConfig, model) -> list[RDPoint]:
    """One solved point per multiplier, pruned to the efficient frontier.

    Retained points are sorted by rate, no retained point spends more
    rate for less transmitted content than another, and exact duplicates
    collapse to the smallest multiplier that produced them.
    """
    points = _solve_grid(source, payoff_matrix(source, alphabet, model), cfg)
    points.sort(key=lambda pt: (pt.rate_bits, -pt.cont_info, pt.beta))
    frontier: list[RDPoint] = []
    best = -math.inf
    for pt in points:
        if pt.cont_info > best + 1e-12:
            frontier.append(pt)
            best = pt.cont_info
    return frontier


def candidate_reconstructions(model) -> list[Sentence]:
    """Reconstruction sentences: every way of weakening a source message.

    Dropping conjuncts from a maximally specific description leaves the
    claim that some subset of kinds is exemplified, whose sentence is the
    upward closure of that subset.  All 2^K kind subsets are offered, from
    the claim that every kind is inhabited down to the empty one (the
    tautology, the free zero-content reconstruction).  The sub-language's
    constituent table bounds K: past its limit the first sentence raises
    CapacityError.
    """
    sl = model.sublang
    return [sl.upset(kinds) for size in range(model.big_k, -1, -1)
            for kinds in itertools.combinations(range(model.big_k), size)]


def content_cap(source: MessagePartition, alphabet: list[Sentence],
                model) -> RDPoint:
    """Deterministic best-reconstruction channel: the payoff ceiling."""
    return _argmax_point(np.array(source.probs),
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
