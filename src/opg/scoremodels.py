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
"+g" variants) a gamma prior on reliabilities, with alternating
reliability/score rounds. The logistic, listwise and score-weighted
permutation models are fitted full batch: their objective and its gradient
are computed over every grader's feedback at once from
``Dataset.feedback_arrays``, the score step is L-BFGS and the reliability
step is one golden-section search per grader. The probit model takes
per-grader stochastic gradient steps.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .config import ReliabilityPrior, ScorePrior, _check_iterations
from .data import Dataset, Estimate, FeedbackArrays
from .errors import EnumerationCapError, ValidationError
from .mallows import _check_eta, _golden_section_etas
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


# --- per-grader likelihood terms --------------------------------------------


class _PairTerm:
    """Strict pairwise preferences of one grader under the probit link.

    ``log_ndtr`` is ``scipy.special.log_ndtr``, imported by ``_prepare`` so
    that no other model pays for loading ``scipy.special``.
    """

    __slots__ = ("global_idx", "wl", "ll", "log_ndtr")

    def __init__(self, global_idx: np.ndarray, wl: np.ndarray, ll: np.ndarray, log_ndtr: Callable):
        self.global_idx = global_idx
        self.wl = wl
        self.ll = ll
        self.log_ndtr = log_ndtr

    def value_and_grads(
        self, s: np.ndarray, eta: float, need_s: bool, need_eta: bool
    ) -> tuple[float, np.ndarray | None, float | None]:
        m = len(self.global_idx)
        if len(self.wl) == 0:
            return 0.0, (np.zeros(m) if need_s else None), (0.0 if need_eta else None)
        s_local = s[self.global_idx]
        dz = s_local[self.wl] - s_local[self.ll]
        rt = math.sqrt(eta)
        z = rt * dz
        logphi = self.log_ndtr(z)
        nll = -float(logphi.sum())
        grad_s = None
        grad_eta = None
        if need_s or need_eta:
            ratio = np.exp(-0.5 * z * z - _LOG_SQRT_2PI - logphi)
            if need_s:
                grad_s = np.bincount(self.wl, weights=-rt * ratio, minlength=m) + np.bincount(
                    self.ll, weights=rt * ratio, minlength=m
                )
            if need_eta:
                grad_eta = -float((ratio * dz).sum()) / (2.0 * rt)
        return nll, grad_s, grad_eta


# --- full-batch likelihoods: every grader's feedback at once ------------------


class _PairBatch:
    """Every grader's strict pairs under the logistic link.

    ``evaluate`` returns each grader's negative log-likelihood, its gradient
    with respect to the scores (summed over graders) and, when asked, with
    respect to each grader's reliability.
    """

    def __init__(self, arrays: FeedbackArrays, n_items: int):
        self.winner = arrays.winner.astype(np.intp)
        self.loser = arrays.loser.astype(np.intp)
        self.grader = arrays.pair_grader.astype(np.intp)
        self.n_items = n_items
        self.n_graders = len(arrays.graders)

    def evaluate(
        self, s: np.ndarray, etas: np.ndarray, grads: bool = True, need_eta: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        dz = s[self.winner] - s[self.loser]
        eta = etas[self.grader]
        z = eta * dz
        log_term = np.logaddexp(0.0, -z)
        nll = np.bincount(self.grader, weights=log_term, minlength=self.n_graders)
        if not grads:
            return nll, None, None
        # 1 - exp(-log(1 + exp(-z))) = expit(-z), from the term the nll already has.
        q = -np.expm1(-log_term)
        w = eta * q
        grad_s = np.bincount(self.loser, weights=w, minlength=self.n_items)
        grad_s -= np.bincount(self.winner, weights=w, minlength=self.n_items)
        grad_eta = -np.bincount(self.grader, weights=dz * q, minlength=self.n_graders) if need_eta else None
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


@dataclass
class _Prepared:
    """A model's likelihood over a dataset: full batch (``batch``) for the
    logistic, listwise and score-weighted permutation models, else one term
    per grader (``terms``)."""

    model: str
    items: tuple[str, ...]
    graders: tuple[str, ...]
    terms: list[Any]
    metadata: dict[str, Any] = field(default_factory=dict)
    batch: _PairBatch | _ListBatch | _PermBatch | None = None


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


def _prepare(model: str, data: Dataset, rng: np.random.Generator) -> _Prepared:
    """The model's likelihood over ``data``, built from ``data.feedback_arrays``.

    The logistic, listwise and score-weighted permutation models get one
    batch over every grader (``rng`` breaks ties for the listwise one). The
    probit model gets every grader's term: a term numbers its grader's items
    by their position in id order (the order of ``GraderFeedback.items``),
    and ``global_idx`` maps them to ``data.items``.
    """
    if model not in SCORE_MODELS:
        raise ValidationError(f"unknown score model {model!r}; expected one of {SCORE_MODELS}")
    if not data.feedback:
        raise ValidationError("dataset has no feedback")
    fa = data.feedback_arrays
    n, offsets = len(data.items), fa.offsets
    if model == "bt":
        return _Prepared(model, data.items, fa.graders, [], batch=_PairBatch(fa, n))
    if model == "pl":
        batch, tied = _list_batch(fa, n, rng)
        return _Prepared(model, data.items, fa.graders, [], {"tie_break": "seeded"} if tied else {}, batch)
    counts = np.diff(offsets)
    if model == "mals":
        if counts.max() > ENUMERATION_CAP:
            g = int(np.argmax(counts > ENUMERATION_CAP))
            raise EnumerationCapError(
                f"grader {fa.graders[g]!r} graded {counts[g]} items, above the cap {ENUMERATION_CAP} "
                f"of the subset recursion; exclude this model"
            )
        return _Prepared(model, data.items, fa.graders, [], batch=_PermBatch(fa, n))
    from scipy.special import log_ndtr

    entry_grader = np.repeat(np.arange(len(counts)), counts)
    # Sorted (grader, item) keys: grader g's items in id order fill
    # keys[offsets[g]:offsets[g + 1]], so a key's place there is its local index.
    keys = np.sort(entry_grader * n + fa.item)
    global_idx = keys - entry_grader * n
    entry_pos = np.searchsorted(keys, entry_grader * n + fa.item)
    pair_grader = fa.pair_grader.astype(np.int64)
    win = np.searchsorted(keys, pair_grader * n + fa.winner)
    lose = np.searchsorted(keys, pair_grader * n + fa.loser)
    rank_at = np.empty_like(fa.rank)
    rank_at[entry_pos] = fa.rank
    # The arrays list a grader's pairs row by row over its entries; the
    # terms list them one pair of tie groups at a time.
    order = np.lexsort((rank_at[lose], rank_at[win], pair_grader))
    wl = (win - offsets[pair_grader])[order]
    ll = (lose - offsets[pair_grader])[order]
    spans = zip(offsets[:-1].tolist(), offsets[1:].tolist())
    pair_offsets = np.searchsorted(pair_grader, np.arange(len(counts) + 1)).tolist()
    terms: list[Any] = [
        _PairTerm(global_idx[a:b], wl[c:d], ll[c:d], log_ndtr)
        for (a, b), c, d in zip(spans, pair_offsets[:-1], pair_offsets[1:])
    ]
    return _Prepared(model=model, items=data.items, graders=fa.graders, terms=terms)


@dataclass(frozen=True)
class Objective:
    """Negative log-posterior value with gradients at one parameter point."""

    value: float
    score_gradient: dict[str, float]
    reliability_gradient: dict[str, float] | None = None


def _total_objective(
    prep: _Prepared,
    s: np.ndarray,
    etas: np.ndarray,
    score_prior: ScorePrior,
    reliability_prior: ReliabilityPrior | None,
) -> float:
    total = 0.0
    for gi, term in enumerate(prep.terms):
        nll, _, _ = term.value_and_grads(s, float(etas[gi]), need_s=False, need_eta=False)
        total += nll
    total += float(((s - score_prior.mean) ** 2).sum()) / (2.0 * score_prior.variance)
    if reliability_prior is not None:
        total += float(
            (etas / reliability_prior.scale - (reliability_prior.shape - 1.0) * np.log(etas)).sum()
        )
    return total


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
    prep = _prepare(model, data, rng)
    missing = [x for x in prep.items if x not in scores]
    if missing:
        raise ValidationError(f"scores missing for items: {missing}")
    s = np.array([float(scores[x]) for x in prep.items])
    with_rel = reliabilities is not None
    if with_rel:
        absent = [g for g in prep.graders if g not in reliabilities]
        if absent:
            raise ValidationError(f"reliabilities missing for graders: {absent}")
        etas = np.array([float(reliabilities[g]) for g in prep.graders])
        if not (np.all(np.isfinite(etas)) and np.all(etas > 0)):
            raise ValidationError("reliabilities must be finite and > 0")
        rprior = reliability_prior or ReliabilityPrior()
    else:
        etas = np.ones(len(prep.graders))
        rprior = None

    value = 0.0
    grad_s = (s - score_prior.mean) / score_prior.variance
    value += float(((s - score_prior.mean) ** 2).sum()) / (2.0 * score_prior.variance)
    grad_eta = np.zeros(len(prep.graders))
    if prep.batch is not None:
        nll, gs, ge = prep.batch.evaluate(s, etas, need_eta=with_rel)
        value += float(nll.sum())
        grad_s += gs
        if with_rel:
            grad_eta = ge
    for gi, term in enumerate(prep.terms):
        nll, gs, ge = term.value_and_grads(s, float(etas[gi]), need_s=True, need_eta=with_rel)
        value += nll
        grad_s[term.global_idx] += gs
        if with_rel:
            grad_eta[gi] = ge
    reliability_gradient = None
    if with_rel:
        value += float((etas / rprior.scale - (rprior.shape - 1.0) * np.log(etas)).sum())
        grad_eta += 1.0 / rprior.scale - (rprior.shape - 1.0) / etas
        reliability_gradient = {g: float(grad_eta[i]) for i, g in enumerate(prep.graders)}
    return Objective(
        value=value,
        score_gradient={item: float(grad_s[i]) for i, item in enumerate(prep.items)},
        reliability_gradient=reliability_gradient,
    )


# --- full-batch fitting -----------------------------------------------------

# L-BFGS settings: steps remembered, stopping tolerance on the largest
# absolute gradient entry, and the iteration cap after which a fit is
# reported as not converged.
_LBFGS_MEMORY = 10
_LBFGS_TOLERANCE = 1e-6
_LBFGS_MAX_ITERATIONS = 1000

# Alternating rounds of a "+g" fit stop once no reliability moves by more
# than this in log(eta) (the golden-section search resolves log(eta) to about
# 1.2e-6), or after this many rounds.
_SETTLED_LOG_ETA = 1e-5
_MAX_ROUNDS = 100

# An SGD run (thur) stops once an epoch changes the objective by less than
# this fraction, or after this many epochs.
_REL_TOLERANCE = 1e-6
_MAX_EPOCHS = 500


def _lbfgs(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]], x0: np.ndarray
) -> tuple[np.ndarray, int, float, bool]:
    """Minimize a smooth ``fun`` (value and gradient) from ``x0``.

    Limited-memory BFGS (Liu & Nocedal 1989): two-loop recursion over the
    last ``_LBFGS_MEMORY`` steps and Armijo backtracking from the unit step;
    a step of non-positive curvature is not remembered, so ``fun`` need not
    be convex (a tied ``mals`` likelihood is a difference of log-sum-exps).
    Returns the point, the iterations taken, the largest absolute gradient
    entry there, and whether that is at most ``_LBFGS_TOLERANCE``.
    """
    x = x0.copy()
    f, g = fun(x)
    history: list[tuple[np.ndarray, np.ndarray, float]] = []
    for iteration in range(_LBFGS_MAX_ITERATIONS):
        g_max = float(np.abs(g).max())
        if g_max <= _LBFGS_TOLERANCE:
            return x, iteration, g_max, True
        # q becomes the inverse-Hessian estimate times g; the step is -q.
        q = g.copy()
        alphas = []
        for dx, dg, rho in reversed(history):
            alphas.append(rho * (dx @ q))
            q -= alphas[-1] * dg
        if history:
            dx, dg, rho = history[-1]
            q /= rho * (dg @ dg)
        else:
            q /= max(1.0, g_max)
        for (dx, dg, rho), alpha in zip(history, reversed(alphas)):
            q += (alpha - rho * (dg @ q)) * dx
        slope = -float(g @ q)
        step = 1.0
        while True:
            x_new = x - step * q
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
    g_max = float(np.abs(g).max())
    return x, _LBFGS_MAX_ITERATIONS, g_max, g_max <= _LBFGS_TOLERANCE


def _batch_scores(
    batch: _PairBatch | _ListBatch | _PermBatch, s0: np.ndarray, etas: np.ndarray, score_prior: ScorePrior
) -> tuple[np.ndarray, int, float, bool]:
    """MAP scores for fixed reliabilities, by ``_lbfgs`` over the whole batch."""
    mean, variance = score_prior.mean, score_prior.variance

    def fun(s: np.ndarray) -> tuple[float, np.ndarray]:
        nll, grad, _ = batch.evaluate(s, etas)
        d = s - mean
        return float(nll.sum()) + float(d @ d) / (2.0 * variance), grad + d / variance

    return _lbfgs(fun, s0)


def _batch_reliabilities(
    batch: _PairBatch | _ListBatch | _PermBatch, s: np.ndarray, reliability_prior: ReliabilityPrior
) -> np.ndarray:
    """MAP reliability of every grader for fixed scores, one golden-section search each."""
    shape, scale = reliability_prior.shape, reliability_prior.scale

    def objective(z: np.ndarray) -> np.ndarray:
        eta = 10.0**z
        nll, _, _ = batch.evaluate(s, eta, grads=False)
        return (shape - 1.0) * np.log(eta) - eta / scale - nll

    return _golden_section_etas(objective, batch.n_graders)


def _fit_batch(
    batch: _PairBatch | _ListBatch | _PermBatch,
    rounds: int,
    score_prior: ScorePrior,
    reliability_prior: ReliabilityPrior | None,
) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
    """Scores, reliabilities and the solver's report of a full-batch fit.

    With a ``reliability_prior``, reliability and score steps alternate for
    at least ``rounds`` rounds (one if ``rounds`` is 0) and then until a
    round moves no log(eta) by more than ``_SETTLED_LOG_ETA``, for at most
    ``max(rounds, _MAX_ROUNDS)`` rounds; a fit that stops unsettled is not
    ``converged``.
    """
    etas = np.ones(batch.n_graders)
    s, lbfgs_iterations, grad_norm, converged = _batch_scores(batch, np.zeros(batch.n_items), etas, score_prior)
    if reliability_prior is None:
        return s, etas, {"lbfgs_iterations": lbfgs_iterations, "grad_norm": grad_norm, "converged": converged}
    changes: list[float] = []
    while len(changes) < max(rounds, 1) or changes[-1] > _SETTLED_LOG_ETA:
        if len(changes) == max(rounds, _MAX_ROUNDS):
            converged = False
            break
        new_etas = _batch_reliabilities(batch, s, reliability_prior)
        changes.append(float(np.abs(np.log(new_etas) - np.log(etas)).max()))
        etas = new_etas
        s, more, grad_norm, done = _batch_scores(batch, s, etas, score_prior)
        lbfgs_iterations += more
        converged = converged and done
    report: dict[str, Any] = {"lbfgs_iterations": lbfgs_iterations, "grad_norm": grad_norm, "converged": converged}
    return s, etas, {**report, "reliability_change": changes}


# --- stochastic gradient fitting --------------------------------------------


def _run_epochs(
    n_terms: int,
    step: Callable[[int, float], None],
    objective: Callable[[], float],
    rng: np.random.Generator,
) -> int:
    """Seeded SGD epochs of ``step(term, lr)`` over every term, with step size
    0.1 / sqrt(epoch): the number of epochs run."""
    prev = objective()
    for epoch in range(1, _MAX_EPOCHS + 1):
        lr = 0.1 / math.sqrt(epoch)
        for gi in rng.permutation(n_terms):
            step(gi, lr)
        current = objective()
        if abs(current - prev) / max(1.0, abs(prev)) < _REL_TOLERANCE:
            return epoch
        prev = current
    return _MAX_EPOCHS


def _sgd_scores(
    prep: _Prepared,
    s0: np.ndarray,
    etas: np.ndarray,
    rng: np.random.Generator,
    score_prior: ScorePrior,
    reliability_prior: ReliabilityPrior | None,
) -> tuple[np.ndarray, int]:
    s = s0.copy()
    n_terms = len(prep.terms)

    def step(gi: int, lr: float) -> None:
        nonlocal s
        term = prep.terms[gi]
        _, gs, _ = term.value_and_grads(s, float(etas[gi]), need_s=True, need_eta=False)
        s -= lr * (s - score_prior.mean) / (score_prior.variance * n_terms)
        s[term.global_idx] -= lr * gs

    epochs = _run_epochs(n_terms, step, lambda: _total_objective(prep, s, etas, score_prior, reliability_prior), rng)
    return s, epochs


_LOG_ETA_BOUND = 3.0 * math.log(10.0)


def _sgd_reliabilities(
    prep: _Prepared,
    s: np.ndarray,
    etas0: np.ndarray,
    rng: np.random.Generator,
    score_prior: ScorePrior,
    reliability_prior: ReliabilityPrior,
) -> tuple[np.ndarray, int]:
    """Stochastic gradient on log(eta) per grader (positivity is structural)."""
    z = np.log(etas0)
    shape, scale = reliability_prior.shape, reliability_prior.scale

    def step(gi: int, lr: float) -> None:
        eta = math.exp(z[gi])
        _, _, ge = prep.terms[gi].value_and_grads(s, eta, need_s=False, need_eta=True)
        gz = eta * ge + eta / scale - (shape - 1.0)
        z[gi] = min(max(z[gi] - lr * gz, -_LOG_ETA_BOUND), _LOG_ETA_BOUND)

    epochs = _run_epochs(
        len(prep.terms), step, lambda: _total_objective(prep, s, np.exp(z), score_prior, reliability_prior), rng
    )
    return np.exp(z), epochs


def _fit_sgd(
    prep: _Prepared,
    rng: np.random.Generator,
    rounds: int,
    score_prior: ScorePrior,
    reliability_prior: ReliabilityPrior | None,
) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
    """Scores, reliabilities and the report of a per-grader SGD fit from zero scores.

    With a ``reliability_prior``, reliability and score steps alternate for
    exactly ``rounds`` rounds. The fit has ``converged`` when its largest
    absolute score-gradient entry (``grad_norm``) is at most ``_LBFGS_TOLERANCE``.
    """
    etas = np.ones(len(prep.graders))
    s, epochs = _sgd_scores(prep, np.zeros(len(prep.items)), etas, rng, score_prior, None)
    changes: list[float] = []
    for _ in range(rounds if reliability_prior is not None else 0):
        new_etas, more = _sgd_reliabilities(prep, s, etas, rng, score_prior, reliability_prior)
        changes.append(float(np.abs(np.log(new_etas) - np.log(etas)).max()))
        etas = new_etas
        s, more_s = _sgd_scores(prep, s, etas, rng, score_prior, reliability_prior)
        epochs += more + more_s
    grad = (s - score_prior.mean) / score_prior.variance
    for gi, term in enumerate(prep.terms):
        _, gs, _ = term.value_and_grads(s, float(etas[gi]), need_s=True, need_eta=False)
        grad[term.global_idx] += gs
    grad_norm = float(np.abs(grad).max())
    report: dict[str, Any] = {"epochs": epochs, "grad_norm": grad_norm, "converged": grad_norm <= _LBFGS_TOLERANCE}
    return s, etas, report if reliability_prior is None else {**report, "reliability_change": changes}


def fit(
    model: str,
    data: Dataset,
    *,
    seed: int = 0,
    iterations: int = 10,
    with_reliability: bool = False,
    score_prior: ScorePrior | None = None,
    reliability_prior: ReliabilityPrior | None = None,
    tie_epsilon: float = 1e-9,
) -> Estimate:
    """MAP-fit a score model, optionally alternating with reliability updates.

    With ``with_reliability``, reliability and score steps alternate for
    ``iterations`` rounds after a score fit at eta = 1; reliabilities stay
    in [1e-3, 1e3]. Items nobody graded get the prior mean, with a warning.
    Every fit starts from zero scores, and its ``metadata`` records the
    final ``grad_norm`` (largest absolute entry of the score gradient of
    the negative log-posterior) and, for ``+g``, the largest change of
    log(eta) in each round (``reliability_change``).

    ``bt``, ``pl`` and ``mals`` are fitted full batch: L-BFGS score steps,
    and golden-section reliability steps on log10(eta). Their ``+g`` rounds
    go on past ``iterations`` until no log(eta) moves by more than 1e-5 (at
    most 100 rounds, or ``iterations`` if that is more). ``metadata``
    records the ``lbfgs_iterations`` of all score steps and whether every
    score step ``converged`` (and, for ``+g``, the rounds settled).
    ``thur`` runs per-grader SGD and records the ``epochs`` of all SGD
    runs; it has ``converged`` when ``grad_norm`` is at most 1e-6. ``seed``
    seeds ``thur``'s SGD and the tie-breaking of ``pl``; it does not affect
    ``bt`` or ``mals``.
    """
    _check_iterations(iterations)
    score_prior = score_prior or ScorePrior()
    rprior = (reliability_prior or ReliabilityPrior()) if with_reliability else None
    rng = np.random.default_rng(seed)
    prep = _prepare(model, data, rng)
    graded = np.bincount(data.feedback_arrays.item, minlength=len(data.items)) > 0
    if not graded.all():
        ungraded = [data.items[i] for i in np.flatnonzero(~graded)]
        warnings.warn(f"items never graded by anyone get the prior mean: {ungraded}", stacklevel=2)

    if prep.batch is not None:
        s, etas, report = _fit_batch(prep.batch, iterations, score_prior, rprior)
    else:
        s, etas, report = _fit_sgd(prep, rng, iterations, score_prior, rprior)
    reliabilities = {g: float(etas[i]) for i, g in enumerate(prep.graders)} if with_reliability else None
    scores = {item: float(s[i]) for i, item in enumerate(prep.items)}
    return Estimate(
        ranking=ranking_from_scores(scores, tie_epsilon),
        scores=scores,
        reliabilities=reliabilities,
        metadata={**prep.metadata, **report, "model": model + ("+g" if with_reliability else "")},
    )
