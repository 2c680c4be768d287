"""Latent-score models for ordinal feedback and their MAP fitting.

Four model families map latent item scores s (and a per-grader reliability
eta) to a likelihood of the observed rankings:

* pairwise logistic: P(i above j) = 1 / (1 + exp(-eta * (s_i - s_j)));
  tied pairs express no preference and contribute nothing,
* pairwise probit: P(i above j) = Phi(sqrt(eta) * (s_i - s_j)),
* listwise choice: sequential choice of each ranked item against the items
  at or below it, P proportional to exp(eta * s),
* score-weighted permutation model: probability proportional to
  exp(-eta * weighted inversion count), where each inverted pair costs the
  score gap between its items; a tie group stands for every total order
  consistent with it. The likelihood is a ratio of two permanents, each
  computed by a recursion over subsets of the grader's items (capped).

All fits are MAP under an independent normal prior on scores and (for the
"+g" variants) a gamma prior on reliabilities. Every model's objective and
its gradients are computed over every grader's feedback at once from
``Dataset.feedback_arrays``. A plain fit of the logistic, listwise and
score-weighted permutation models runs L-BFGS on the scores; the plain
probit model takes per-grader variance-reduced gradient steps (SVRG). Every
"+g" fit is one L-BFGS run over the scores and the log reliabilities
together, with each reliability kept in [1e-3, 1e3].
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .config import _ETA_BOUNDS, ReliabilityPrior, ScorePrior
from .data import Dataset, Estimate, FeedbackArrays
from .errors import EnumerationCapError, ValidationError
from .mallows import _check_eta
from .rankings import WeakRanking, ranking_from_scores

__all__ = [
    "SCORE_MODELS",
    "Objective",
    "pl_ranking_log_probability",
    "negative_log_posterior",
    "fit",
]

SCORE_MODELS = ("bt", "thur", "pl", "mals")

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Most items one grader may rank under the score-weighted permutation model.
# Its likelihood recurses over the 2^m subsets of a grader's m items, and a
# layer of that recursion holds up to about m * 2^(m-1) / 2 values per grader
# for all graders of a block at once, so the cap bounds time and memory.
ENUMERATION_CAP = 9


def pl_ranking_log_probability(
    order: WeakRanking | Sequence[str], scores: Mapping[str, float], eta: float = 1.0
) -> float:
    """Log probability of a total order under the sequential-choice model.

    Each position's item is chosen against all items at or below it with
    probability proportional to exp(eta * score).
    """
    _check_eta(eta)
    if isinstance(order, WeakRanking):
        seq = order.order()
    else:
        seq = tuple(order)
        if len(set(seq)) != len(seq):
            raise ValidationError("order contains duplicate items")
    missing = [x for x in seq if x not in scores]
    if missing:
        raise ValidationError(f"scores missing for items: {missing}")
    u = eta * np.array([scores[x] for x in seq], dtype=float)
    suffix_lse = np.logaddexp.accumulate(u[::-1])[::-1]
    return float((u - suffix_lse).sum())


# --- full-batch likelihoods: every grader's feedback at once ------------------


class _PairBatch:
    """Every grader's strict pairs under the logistic link or, with ``probit``,
    the probit link.

    A pair's probability is sigma(z) or Phi(z) at z = scale * (s_winner -
    s_loser), where the grader's link ``scale`` is eta or sqrt(eta).
    Grader g's pairs are ``pair_offsets[g]:pair_offsets[g + 1]`` and it
    ranked ``counts[g]`` items. ``evaluate`` returns each grader's negative
    log-likelihood, its gradient with respect to the scores (summed over
    graders) and, when asked, with respect to each grader's reliability.
    Only a probit batch imports ``scipy.special``, so that no other model
    pays for loading it.
    """

    def __init__(self, arrays: FeedbackArrays, n_items: int, probit: bool = False):
        self.winner = arrays.winner.astype(np.intp)
        self.loser = arrays.loser.astype(np.intp)
        self.grader = arrays.pair_grader.astype(np.intp)
        self.n_items = n_items
        self.n_graders = len(arrays.graders)
        self.pair_offsets = np.searchsorted(self.grader, np.arange(self.n_graders + 1)).tolist()
        self.counts = np.diff(arrays.offsets)
        self.probit = probit
        if probit:
            from scipy.special import log_ndtr

            self._log_ndtr = log_ndtr

    def scale(self, etas: np.ndarray) -> np.ndarray:
        return np.sqrt(etas) if self.probit else etas

    def _terms(self, z: np.ndarray, grads: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """Each pair's -log P(winner above loser) at ``z`` and, with ``grads``,
        q = minus its derivative in z."""
        if self.probit:
            log_term = -self._log_ndtr(z)
            # phi(z) / Phi(z), from the log Phi the nll already has.
            return log_term, (np.exp(log_term - 0.5 * z * z - _LOG_SQRT_2PI) if grads else None)
        # log(1 + exp(-z)) and expit(-z), both from e = exp(-|z|), which never overflows.
        e = np.exp(-np.abs(z))
        log_term = np.maximum(-z, 0.0) + np.log1p(e)
        return log_term, (np.where(z >= 0.0, e, 1.0) / (1.0 + e) if grads else None)

    def slopes(self, s: np.ndarray, scale: np.ndarray | float, pairs: slice = slice(None)) -> np.ndarray:
        """Minus the derivative of each pair's -log P in s_winner - s_loser, for
        the ``pairs`` given, at their link ``scale``."""
        dz = s[self.winner[pairs]] - s[self.loser[pairs]]
        return scale * self._terms(scale * dz, True)[1]

    def scatter(self, w: np.ndarray) -> np.ndarray:
        """The score gradient of pair slopes ``w`` (one per pair)."""
        grad_s = np.bincount(self.loser, weights=w, minlength=self.n_items)
        grad_s -= np.bincount(self.winner, weights=w, minlength=self.n_items)
        return grad_s

    def evaluate(
        self, s: np.ndarray, etas: np.ndarray, grads: bool = True, need_eta: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        dz = s[self.winner] - s[self.loser]
        scale = self.scale(etas)[self.grader]
        log_term, q = self._terms(scale * dz, grads)
        nll = np.bincount(self.grader, weights=log_term, minlength=self.n_graders)
        if not grads:
            return nll, None, None
        grad_s = self.scatter(scale * q)
        grad_eta = None
        if need_eta:
            # d scale / d eta is 1 for the logistic link, 1 / (2 sqrt(eta)) for the probit one.
            grad_eta = -np.bincount(self.grader, weights=dz * q, minlength=self.n_graders)
            if self.probit:
                grad_eta /= 2.0 * np.sqrt(etas)
        return nll, grad_s, grad_eta


class _ListBatch:
    """Every grader's total order under the sequential-choice model.

    Graders that rank equally many items share a block: ``blocks`` holds
    pairs (graders, items), where row r of ``items`` is grader
    ``graders[r]``'s items, best first. ``evaluate`` is as for ``_PairBatch``.
    """

    def __init__(self, blocks: list[tuple[np.ndarray, np.ndarray]], n_items: int, n_graders: int):
        self.blocks = blocks
        self.n_items = n_items
        self.n_graders = n_graders

    def evaluate(
        self, s: np.ndarray, etas: np.ndarray, grads: bool = True, need_eta: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        nll = np.zeros(self.n_graders)
        grad_s = np.zeros(self.n_items) if grads else None
        grad_eta = np.zeros(self.n_graders) if grads and need_eta else None
        for graders, items in self.blocks:
            s_ord = s[items]
            eta = etas[graders][:, None]
            u = eta * s_ord
            suffix_lse = np.logaddexp.accumulate(u[:, ::-1], axis=1)[:, ::-1]
            nll[graders] = (suffix_lse - u).sum(axis=1)
            if not grads:
                continue
            # d nll / d u_k = sum over choices i <= k of exp(u_k - suffix_lse_i), minus 1;
            # the exponent is at most log(k + 1), so nothing overflows.
            gu = np.exp(u + np.logaddexp.accumulate(-suffix_lse, axis=1)) - 1.0
            grad_s += np.bincount(items.ravel(), weights=(eta * gu).ravel(), minlength=self.n_items)
            if need_eta:
                grad_eta[graders] = (gu * s_ord).sum(axis=1)
        return nll, grad_s, grad_eta


def _subset_layers(m: int) -> list[tuple[np.ndarray, ...]]:
    """Gather tables of the subsets of m items, one entry per size r = 0..m.

    Layer r lists its subsets by increasing bitmask. Its entry is (members,
    down, outside, up, spread): column i of ``members`` (``outside``) holds
    the items in (not in) subset i, ascending, and ``down`` (``up``) the
    index in layer r - 1 (r + 1) of the subset with that item removed
    (added). ``spread`` is the 0/1 matrix whose product with a value per
    entry of ``members`` sums those values by item.
    """
    masks = np.arange(1 << m)
    bits = (masks[:, None] >> np.arange(m)) & 1 == 1
    size = bits.sum(axis=1)
    layer_of = [masks[size == r] for r in range(m + 1)]
    index = np.empty(1 << m, dtype=np.intp)
    for layer in layer_of:
        index[layer] = np.arange(len(layer))
    tables = []
    for r, layer in enumerate(layer_of):
        members = np.nonzero(bits[layer])[1].reshape(len(layer), r).T
        outside = np.nonzero(~bits[layer])[1].reshape(len(layer), m - r).T
        spread = (members.ravel() == np.arange(m)[:, None]).astype(float)
        tables.append((members, index[layer ^ (1 << members)], outside, index[layer | (1 << outside)], spread))
    return tables


# Log weight of a subset that may not fill the first positions of an order:
# finite, unlike -inf, so that shifting by a maximum never meets
# (-inf) - (-inf), yet any weight built on it comes out exactly 0 in exp.
_DROPPED = -1e300


def _logsumexp(t: np.ndarray) -> np.ndarray:
    """log of the sum of exp(t) over the first axis, shifted by its maximum."""
    top = t.max(axis=0)
    return top + np.log(np.exp(t - top).sum(axis=0))


def _log_permanent(
    u: np.ndarray, layers: list[tuple[np.ndarray, ...]], log_masks: list[np.ndarray], grads: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """log per(A) of A[x, k] = exp(u[x] * w[k]), w[k] = (m + 1 - 2k) / 2 for
    positions k = 1..m, for each column of ``u``.

    The recursion per(S) = sum over x in S of per(S - x) * A[x, |S|] runs up
    the subset ``layers``; ``log_masks[r]`` (0 or ``_DROPPED`` per subset
    and column) drops the subsets of size r that may not fill the first r
    positions. With ``grads`` it also returns E[w at x's position], the
    gradient of log per(A) with respect to u, from a backward pass that
    sums each subset's completions down the layers.
    """
    m, n_cols = u.shape
    w = (m + 1 - 2 * np.arange(1, m + 1)) / 2.0
    forward = [np.zeros((1, n_cols))]
    for r in range(1, m + 1):
        members, down = layers[r][:2]
        forward.append(_logsumexp(forward[-1][down] + u[members] * w[r - 1]) + log_masks[r])
    logz = forward[m][0]
    if not grads:
        return logz, None
    expected = np.zeros((m, n_cols))
    back = np.zeros((1, n_cols))
    for r in range(m, 0, -1):
        members, down, _, _, spread = layers[r]
        # P(x at position r) sums, over the subsets S of size r holding x,
        # the orders that fill S with x last and then complete S.
        log_p = forward[r - 1][down] + u[members] * w[r - 1] + (back - logz)
        expected += w[r - 1] * (spread @ np.exp(log_p).reshape(-1, n_cols))
        _, _, outside, up, _ = layers[r - 1]
        back = _logsumexp(back[up] + u[outside] * w[r - 1]) + log_masks[r - 1]
    return logz, expected


class _PermBatch:
    """Every grader's weak ranking under the score-weighted permutation model.

    Up to a constant shared by every order, an order of a grader's m items
    costs the sum over positions k = 1..m of s_k * (2k - m - 1) / 2, where
    s_k is the score of the item at position k. So the grader's likelihood
    is per(A over the orders its tie groups allow) / per(A), with
    A[x, k] = exp(-eta * s_x * (2k - m - 1) / 2), and ``_log_permanent``
    gives each permanent in O(2^m m) (the bound of Ryser 1963). Graders
    that rank equally many items share a block: ``blocks`` holds (graders,
    items, layers, log_masks), where column c of ``items`` is grader
    ``graders[c]``'s items, best first, and ``layers`` are the block's
    ``_subset_layers``. The block's G graders are recursed over twice in
    one call, as 2G columns: column c for the normaliser of grader c, and
    column G + c for its numerator, where ``log_masks[r]`` is 0 if a subset
    of r of its items may fill the first r positions (no item in it is
    ranked strictly below one outside it) and ``_DROPPED`` if not; the
    first G columns of every mask are 0. ``evaluate`` is as for
    ``_PairBatch``.
    """

    def __init__(self, arrays: FeedbackArrays, n_items: int):
        counts = np.diff(arrays.offsets)
        self.blocks = []
        for m in np.unique(counts).tolist():
            graders = np.flatnonzero(counts == m)
            entries = arrays.offsets[graders] + np.arange(m)[:, None]
            ranks = arrays.rank[entries]
            layers = _subset_layers(m)
            log_masks = []
            for members, _, outside, _, _ in layers:
                fits = ranks[members].max(axis=0, initial=0) <= ranks[outside].min(axis=0, initial=m)
                log_masks.append(np.hstack((np.zeros(fits.shape), np.where(fits, 0.0, _DROPPED))))
            self.blocks.append((graders, arrays.item[entries].astype(np.intp), layers, log_masks))
        self.n_items = n_items
        self.n_graders = len(counts)

    def evaluate(
        self, s: np.ndarray, etas: np.ndarray, grads: bool = True, need_eta: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        nll = np.zeros(self.n_graders)
        grad_s = np.zeros(self.n_items) if grads else None
        grad_eta = np.zeros(self.n_graders) if grads and need_eta else None
        for graders, items, layers, log_masks in self.blocks:
            s_items = s[items]
            eta = etas[graders]
            u = eta * s_items
            logz, expected = _log_permanent(np.hstack((u, u)), layers, log_masks, grads)
            g = len(graders)
            nll[graders] = logz[:g] - logz[g:]
            if not grads:
                continue
            gu = expected[:, :g] - expected[:, g:]
            grad_s += np.bincount(items.ravel(), weights=(eta * gu).ravel(), minlength=self.n_items)
            if need_eta:
                grad_eta[graders] = (gu * s_items).sum(axis=0)
        return nll, grad_s, grad_eta


# --- model preparation and objective ----------------------------------------


def _run_starts(arrays: FeedbackArrays) -> np.ndarray:
    """Entries that open a tie group: those whose rank is their 1-based place in their grader's slice."""
    counts = np.diff(arrays.offsets)
    entry_grader = np.repeat(np.arange(len(counts)), counts)
    return np.flatnonzero(arrays.rank == np.arange(len(arrays.rank)) - arrays.offsets[entry_grader] + 1)


def _list_batch(arrays: FeedbackArrays, n_items: int, rng: np.random.Generator) -> tuple[_ListBatch, bool]:
    """The listwise batch, and whether any tie had to be broken.

    A grader with a tie has every run of equal rank shuffled by ``rng``, one
    ``rng.permutation`` per run in entry order, single-item runs included.
    """
    offsets, counts = arrays.offsets, np.diff(arrays.offsets)
    order = arrays.item.astype(np.intp)
    run_start = _run_starts(arrays)
    run_grader = np.searchsorted(offsets, run_start, side="right") - 1
    tied = np.bincount(run_grader, minlength=len(counts)) < counts
    run_end = np.append(run_start[1:], len(order)).tolist()
    for r in np.flatnonzero(tied[run_grader]).tolist():
        a, b = int(run_start[r]), run_end[r]
        order[a:b] = order[a:b][rng.permutation(b - a)]
    blocks = []
    for m in np.unique(counts).tolist():
        graders = np.flatnonzero(counts == m)
        blocks.append((graders, order[offsets[graders][:, None] + np.arange(m)]))
    return _ListBatch(blocks, n_items, len(counts)), bool(tied.any())


def _prepare(
    model: str, data: Dataset, rng: np.random.Generator
) -> tuple[_PairBatch | _ListBatch | _PermBatch, dict[str, Any]]:
    """The model's likelihood over ``data``, one batch over every grader built
    from ``data.feedback_arrays`` (``rng`` breaks ties for the listwise one),
    and the metadata its fit reports."""
    if model not in SCORE_MODELS:
        raise ValidationError(f"unknown score model {model!r}; expected one of {SCORE_MODELS}")
    if not data.feedback:
        raise ValidationError("dataset has no feedback")
    fa = data.feedback_arrays
    n = len(data.items)
    if model in ("bt", "thur"):
        return _PairBatch(fa, n, probit=model == "thur"), {}
    if model == "pl":
        batch, tied = _list_batch(fa, n, rng)
        return batch, {"tie_break": "seeded"} if tied else {}
    counts = np.diff(fa.offsets)
    if counts.max() > ENUMERATION_CAP:
        g = int(np.argmax(counts > ENUMERATION_CAP))
        raise EnumerationCapError(
            f"grader {fa.graders[g]!r} graded {counts[g]} items, above the cap {ENUMERATION_CAP} "
            f"of the subset recursion; exclude this model"
        )
    return _PermBatch(fa, n), {}


@dataclass(frozen=True)
class Objective:
    """Negative log-posterior value with gradients at one parameter point."""

    value: float
    score_gradient: dict[str, float]
    reliability_gradient: dict[str, float] | None = None


def negative_log_posterior(
    model: str,
    data: Dataset,
    scores: Mapping[str, float],
    reliabilities: Mapping[str, float] | None = None,
    *,
    score_prior: ScorePrior | None = None,
    reliability_prior: ReliabilityPrior | None = None,
    seed: int = 0,
) -> Objective:
    """Negative log-posterior of a score model, with analytic gradients.

    With ``reliabilities`` omitted every grader has eta = 1 and the
    reliability prior and gradient are excluded. Additive constants are
    dropped throughout.
    """
    score_prior = score_prior or ScorePrior()
    rng = np.random.default_rng(seed)
    batch, _ = _prepare(model, data, rng)
    items, graders = data.items, data.feedback_arrays.graders
    missing = [x for x in items if x not in scores]
    if missing:
        raise ValidationError(f"scores missing for items: {missing}")
    s = np.array([float(scores[x]) for x in items])
    with_rel = reliabilities is not None
    if with_rel:
        absent = [g for g in graders if g not in reliabilities]
        if absent:
            raise ValidationError(f"reliabilities missing for graders: {absent}")
        etas = np.array([float(reliabilities[g]) for g in graders])
        if not (np.all(np.isfinite(etas)) and np.all(etas > 0)):
            raise ValidationError("reliabilities must be finite and > 0")
        rprior = reliability_prior or ReliabilityPrior()
    else:
        etas = np.ones(len(graders))
        rprior = None

    value = float(((s - score_prior.mean) ** 2).sum()) / (2.0 * score_prior.variance)
    nll, grad_s, grad_eta = batch.evaluate(s, etas, need_eta=with_rel)
    value += float(nll.sum())
    grad_s += (s - score_prior.mean) / score_prior.variance
    reliability_gradient = None
    if with_rel:
        value += float((etas / rprior.scale - (rprior.shape - 1.0) * np.log(etas)).sum())
        grad_eta += 1.0 / rprior.scale - (rprior.shape - 1.0) / etas
        reliability_gradient = {g: float(grad_eta[i]) for i, g in enumerate(graders)}
    return Objective(
        value=value,
        score_gradient={item: float(grad_s[i]) for i, item in enumerate(items)},
        reliability_gradient=reliability_gradient,
    )


# --- full-batch fitting -----------------------------------------------------

# Steps an L-BFGS fit remembers; the stopping tolerance of every fit on the
# largest absolute (projected) gradient entry; and the cap on L-BFGS
# iterations or SVRG epochs after which a fit is reported as not converged.
_LBFGS_MEMORY = 10
_GRAD_TOLERANCE = 1e-6
_MAX_STEPS = 1000


def _restricted(
    history: list[tuple[np.ndarray, np.ndarray, float]], free: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """The remembered L-BFGS steps with every entry outside ``free`` zeroed,
    keeping those of positive curvature on the ``free`` coordinates."""
    pairs = []
    for dx, dg, _ in history:
        dx, dg = dx * free, dg * free
        curvature = float(dx @ dg)
        if curvature > 0.0:
            pairs.append((dx, dg, 1.0 / curvature))
    return pairs


def _lbfgs(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, int, float, bool]:
    """Minimize a smooth ``fun`` (value and gradient) from ``x0``.

    Limited-memory BFGS (Liu & Nocedal 1989): two-loop recursion over the
    last ``_LBFGS_MEMORY`` steps and Armijo backtracking from the unit step;
    a step of non-positive curvature is not remembered, so ``fun`` need not
    be convex (a tied ``mals`` likelihood is a difference of log-sum-exps).
    With ``bounds`` (lower, upper), every trial point is clipped into that
    box, and a coordinate at a bound whose gradient points out of the box
    is held there: its gradient entry is zeroed (the projected gradient)
    and the step is taken from the remembered steps restricted to the other
    coordinates, the active-set idea of L-BFGS-B (Byrd, Lu, Nocedal & Zhu
    1995). Returns the point, the iterations taken, the largest absolute
    entry of the projected gradient there, and whether that is at most
    ``_GRAD_TOLERANCE``.
    """
    x = x0.copy()
    f, g = fun(x)
    history: list[tuple[np.ndarray, np.ndarray, float]] = []
    for iteration in itertools.count():
        pg, pairs = g, history
        if bounds is not None:
            held = ((x <= bounds[0]) & (g > 0.0)) | ((x >= bounds[1]) & (g < 0.0))
            if held.any():
                pg, pairs = np.where(held, 0.0, g), _restricted(history, ~held)
        g_max = float(np.abs(pg).max())
        if g_max <= _GRAD_TOLERANCE or iteration == _MAX_STEPS:
            return x, iteration, g_max, g_max <= _GRAD_TOLERANCE
        # q becomes the inverse-Hessian estimate times pg; the step is -q.
        q = pg.copy()
        alphas = []
        for dx, dg, rho in reversed(pairs):
            alphas.append(rho * (dx @ q))
            q -= alphas[-1] * dg
        if pairs:
            dx, dg, rho = pairs[-1]
            q /= rho * (dg @ dg)
        else:
            q /= max(1.0, g_max)
        for (dx, dg, rho), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * (dg @ q)) * dx
        slope = -float(g @ q)
        step = 1.0
        while True:
            x_new = x - step * q
            if bounds is not None:
                x_new = np.clip(x_new, *bounds)
            f_new, g_new = fun(x_new)
            if f_new <= f + 1e-4 * step * slope:
                break
            # Near the optimum the decrease can fall below the rounding error
            # of f; then the step is judged by the slope at its end instead
            # (the approximate Wolfe test of Hager & Zhang 2005).
            if f_new <= f + 1e-12 * abs(f) and -float(g_new @ q) <= (2e-4 - 1.0) * slope:
                break
            step /= 2.0
            if step < 1e-12:
                return x, iteration, g_max, False
        dx, dg = x_new - x, g_new - g
        curvature = float(dx @ dg)
        if curvature > 0.0:
            history.append((dx, dg, 1.0 / curvature))
            if len(history) > _LBFGS_MEMORY:
                history.pop(0)
        x, f, g = x_new, f_new, g_new


def _lbfgs_scores(
    batch: _PairBatch | _ListBatch | _PermBatch, s0: np.ndarray, etas: np.ndarray, score_prior: ScorePrior
) -> tuple[np.ndarray, int, float, bool]:
    """MAP scores for fixed reliabilities, by ``_lbfgs`` over the whole batch."""
    mean, variance = score_prior.mean, score_prior.variance

    def fun(s: np.ndarray) -> tuple[float, np.ndarray]:
        nll, grad, _ = batch.evaluate(s, etas)
        d = s - mean
        return float(nll.sum()) + float(d @ d) / (2.0 * variance), grad + d / variance

    return _lbfgs(fun, s0)


def _svrg_scores(
    batch: _PairBatch, s0: np.ndarray, etas: np.ndarray, score_prior: ScorePrior, rng: np.random.Generator
) -> tuple[np.ndarray, int, float, bool]:
    """MAP scores for fixed reliabilities, by per-grader SVRG (Johnson &
    Zhang 2013); returns as ``_lbfgs`` does, counting epochs.

    Grader g's share h_g of the objective F is its pairs' negative
    log-likelihood plus 1/G of the prior. An epoch takes the gradient of F
    at a snapshot s~, then steps s -= lr * (grad h_g(s) - grad h_g(s~) +
    grad F(s~) / G) once per grader, in a seeded random order. The fit
    stops at the first snapshot whose largest absolute gradient entry is at
    most ``_GRAD_TOLERANCE``. -log Phi has curvature at most 1 and the pair
    Laplacian of m items has eigenvalues at most m, so L = max over g of
    eta_g * m_g + 1 / (variance * G) bounds the curvature of every h_g, and
    lr = 1 / (4 L).
    """
    mean, variance, n_graders = score_prior.mean, score_prior.variance, batch.n_graders
    share = 1.0 / (variance * n_graders)
    lr = 0.25 / (float((etas * batch.counts).max()) + share)
    scale = batch.scale(etas)
    pair_scale = scale[batch.grader]
    bounds = batch.pair_offsets
    s, epoch = s0.copy(), 0
    while True:
        snapshot_slopes = batch.slopes(s, pair_scale)
        grad = batch.scatter(snapshot_slopes) + (s - mean) / variance
        g_max = float(np.abs(grad).max())
        if g_max <= _GRAD_TOLERANCE or epoch == _MAX_STEPS:
            return s, epoch, g_max, g_max <= _GRAD_TOLERANCE
        snapshot, drift = s.copy(), grad / n_graders
        for g in rng.permutation(n_graders).tolist():
            pairs = slice(bounds[g], bounds[g + 1])
            w = batch.slopes(s, scale[g], pairs) - snapshot_slopes[pairs]
            step = (s - snapshot) * share + drift
            np.add.at(step, batch.loser[pairs], w)
            np.subtract.at(step, batch.winner[pairs], w)
            s -= lr * step
        epoch += 1


def _lbfgs_joint(
    batch: _PairBatch | _ListBatch | _PermBatch,
    s0: np.ndarray,
    score_prior: ScorePrior,
    reliability_prior: ReliabilityPrior,
) -> tuple[np.ndarray, np.ndarray, int, float, bool]:
    """MAP scores and reliabilities together, by one bounded ``_lbfgs`` run
    over x = (s, u), from u = 0, where u = ln(eta) stays in [ln 1e-3, ln 1e3].

    Its value is the negative log-posterior, and its u-gradient is
    eta * d nll / d eta + eta / scale - (shape - 1). Returns the scores, the
    reliabilities and the rest of ``_lbfgs``'s report.
    """
    n, mean, variance = batch.n_items, score_prior.mean, score_prior.variance
    shape, scale = reliability_prior.shape, reliability_prior.scale
    low, high = np.log(_ETA_BOUNDS)

    def reliabilities(u: np.ndarray) -> np.ndarray:
        # exp(ln 1e-3) is not exactly 1e-3, so a u on a bound maps onto that bound's eta.
        return np.where(u <= low, _ETA_BOUNDS[0], np.where(u >= high, _ETA_BOUNDS[1], np.exp(u)))

    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        s, u = x[:n], x[n:]
        etas = reliabilities(u)
        nll, grad_s, grad_eta = batch.evaluate(s, etas, need_eta=True)
        d = s - mean
        value = float(nll.sum()) + float(d @ d) / (2.0 * variance)
        value += float((etas / scale - (shape - 1.0) * u).sum())
        return value, np.concatenate((grad_s + d / variance, etas * (grad_eta + 1.0 / scale) - (shape - 1.0)))

    unbounded, u0 = np.full(n, np.inf), np.zeros(batch.n_graders)
    bounds = (np.concatenate((-unbounded, u0 + low)), np.concatenate((unbounded, u0 + high)))
    x, steps, grad_norm, converged = _lbfgs(fun, np.concatenate((s0, u0)), bounds)
    return x[:n], reliabilities(x[n:]), steps, grad_norm, converged


def _fit_batch(
    batch: _PairBatch | _ListBatch | _PermBatch,
    score_prior: ScorePrior,
    reliability_prior: ReliabilityPrior | None,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
    """Scores, reliabilities and the solver's report of a fit from the prior mean.

    Without a ``reliability_prior`` every eta is 1, and the scores come from
    ``_svrg_scores`` for a probit batch, which reports its ``svrg_epochs``,
    and from ``_lbfgs_scores`` for every other batch. With one, scores and
    reliabilities come from ``_lbfgs_joint``. An L-BFGS fit reports its
    ``lbfgs_iterations``.
    """
    s0 = np.full(batch.n_items, score_prior.mean)
    etas = np.ones(batch.n_graders)
    if reliability_prior is not None:
        s, etas, steps, grad_norm, converged = _lbfgs_joint(batch, s0, score_prior, reliability_prior)
    elif isinstance(batch, _PairBatch) and batch.probit:
        s, steps, grad_norm, converged = _svrg_scores(batch, s0, etas, score_prior, rng)
        return s, etas, {"svrg_epochs": steps, "grad_norm": grad_norm, "converged": converged}
    else:
        s, steps, grad_norm, converged = _lbfgs_scores(batch, s0, etas, score_prior)
    return s, etas, {"lbfgs_iterations": steps, "grad_norm": grad_norm, "converged": converged}


def fit(
    model: str,
    data: Dataset,
    *,
    seed: int = 0,
    with_reliability: bool = False,
    score_prior: ScorePrior | None = None,
    reliability_prior: ReliabilityPrior | None = None,
    tie_epsilon: float = 1e-9,
) -> Estimate:
    """MAP-fit a score model, with per-grader reliabilities if ``with_reliability``.

    Every fit starts from the prior mean (and, for ``+g``, from eta = 1).
    Items nobody graded get the prior mean, with a warning. The plain
    ``bt``, ``pl`` and ``mals`` fits run L-BFGS on the scores, and
    ``thur``'s per-grader SVRG epochs; ``metadata`` records the
    ``lbfgs_iterations`` or ``svrg_epochs`` taken. A ``+g`` fit of any of
    the four is one L-BFGS run over the scores and log(eta) together, each
    reliability kept in [1e-3, 1e3], and records its ``lbfgs_iterations``.
    ``metadata`` also records ``grad_norm``: the largest absolute entry of
    the gradient of the negative log-posterior at the returned fit, with
    respect to the scores and, for ``+g``, log(eta), leaving out a log(eta)
    held at a bound by a gradient pointing out of it. A fit has
    ``converged`` when that is at most 1e-6. ``seed`` orders plain
    ``thur``'s SVRG steps and seeds the tie-breaking of ``pl`` and
    ``pl+g``; it does not affect ``bt``, ``mals`` or ``thur+g``.
    """
    score_prior = score_prior or ScorePrior()
    rprior = (reliability_prior or ReliabilityPrior()) if with_reliability else None
    rng = np.random.default_rng(seed)
    batch, metadata = _prepare(model, data, rng)
    graded = np.bincount(data.feedback_arrays.item, minlength=len(data.items)) > 0
    if not graded.all():
        ungraded = [data.items[i] for i in np.flatnonzero(~graded)]
        warnings.warn(f"items never graded by anyone get the prior mean: {ungraded}", stacklevel=2)

    s, etas, report = _fit_batch(batch, score_prior, rprior, rng)
    graders = data.feedback_arrays.graders
    reliabilities = {g: float(etas[i]) for i, g in enumerate(graders)} if with_reliability else None
    scores = {item: float(s[i]) for i, item in enumerate(data.items)}
    return Estimate(
        ranking=ranking_from_scores(scores, tie_epsilon),
        scores=scores,
        reliabilities=reliabilities,
        metadata={**metadata, **report, "model": model + ("+g" if with_reliability else "")},
    )
