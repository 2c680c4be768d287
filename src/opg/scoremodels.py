"""Latent-score models for ordinal feedback and their MAP fitting.

Four model families map latent item scores s (and a per-grader reliability
eta) to a likelihood of the observed rankings:

* pairwise logistic: P(i above j) = 1 / (1 + exp(-eta * (s_i - s_j)));
  tied pairs express no preference and contribute nothing,
* pairwise probit: P(i above j) = Phi(sqrt(eta) * (s_i - s_j)),
* listwise choice: sequential choice of each ranked item against the items
  at or below it, P proportional to exp(eta * s); a tie group by Efron's
  approximation,
* score-weighted permutation model: probability proportional to
  exp(-eta * weighted inversion count), where each inverted pair costs the
  score gap between its items; a tie group stands for every total order
  consistent with it. The likelihood is a ratio of two permanents, each
  computed by a recursion over subsets of the grader's items (capped).

All fits are MAP under an independent normal prior on scores and (for the
"+g" variants) a gamma prior on reliabilities. Every model's objective and
its gradients are computed over every grader's feedback at once from
``Dataset.feedback_arrays``, in one blocked loop over the graders that rank
equally many items, each model supplying only its per-block kernel. A plain
fit of the logistic, listwise and score-weighted permutation models runs
L-BFGS on the scores; the plain probit model takes per-grader SVRG
(variance-reduced gradient) steps, each on its grader's block column. Every
"+g" fit is one L-BFGS run over the scores and the log reliabilities
together, with each reliability kept in [1e-3, 1e3]. The negative
log-posterior is written once, in ``_posterior``: ``negative_log_posterior``
is exactly the objective every L-BFGS fit minimises, over s for a plain fit
and over (s, ln eta) for "+g".
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


class _BlockBatch:
    """Every grader's ranking, in one block per ranking length m.

    A block in ``blocks`` is (graders, items, *the subclass's ``_tables``),
    where column c of the (m, G) ``items`` is grader ``graders[c]``'s items,
    best first in the feedback's entry order, and
    ``_tables`` reads the block's ranks and the strict pairs (first, second,
    strict) that ``FeedbackArrays.blocks`` keeps for it.
    ``_kernel`` gives each grader's negative log-likelihood and its gradient
    gu in u = scale * (its items' scores); the link ``scale`` is eta unless
    a subclass overrides it and ``_eta_gradient``. ``evaluate`` returns each
    grader's negative log-likelihood and its gradients in the scores
    (summed over graders) and, when asked, in the reliabilities. It
    computes in ``work``, each block's arrays, allocated once: its items'
    scores, one more array of that shape (where an evaluation without the
    eta-gradient leaves scale * gu) and the subclass's ``_work``; what it
    returns is fresh. Its gathers are ``take`` with ``mode="clip"``, since
    with the default mode ``take`` writes through a temporary.
    """

    def __init__(self, arrays: FeedbackArrays):
        order = arrays.item.astype(np.intp)
        self.blocks, self.work = [], []
        for graders, entries, *pairs in arrays.blocks:
            block = (graders, order[entries], *self._tables(arrays.rank[entries], *pairs))
            self.blocks.append(block)
            self.work.append((*np.empty((2, *entries.shape)), *self._work(block)))
        self.n_items, self.n_graders = arrays.n_items, len(arrays.graders)

    def _tables(self, ranks: np.ndarray, *pairs) -> tuple:
        return ()

    def scale(self, etas: np.ndarray) -> np.ndarray:
        return etas

    def _eta_gradient(self, grad_scale: np.ndarray, scales: np.ndarray) -> np.ndarray:
        return grad_scale

    def evaluate(
        self, s: np.ndarray, etas: np.ndarray, need_eta: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        nll, grad_s = np.zeros(self.n_graders), np.zeros(self.n_items)
        grad_eta = np.zeros(self.n_graders) if need_eta else None
        scales = self.scale(etas)
        for block, (s_items, weights, *work) in zip(self.blocks, self.work):
            graders, items = block[:2]
            s.take(items, out=s_items, mode="clip")
            scale = scales[graders]
            nll[graders], gu = self._kernel(block, scale, s_items, *work)
            weighted = np.multiply(scale, gu, out=weights).ravel()
            grad_s += np.bincount(items.ravel(), weights=weighted, minlength=self.n_items)
            if need_eta:
                grad_eta[graders] = np.multiply(gu, s_items, out=weights).sum(axis=0)
        return nll, grad_s, self._eta_gradient(grad_eta, scales) if need_eta else None


class _PairwiseBatch(_BlockBatch):
    """Every grader's strict pairs under the logistic link.

    A block is (graders, items, first, second, mask, ends, signs): its
    m(m-1)/2 position pairs i < j as ``FeedbackArrays.blocks`` lists them
    for the Mallows estimators too, ``first[p]`` and ``second[p]``, and its
    (pairs, G) ``mask``, 1 at each grader's strict pairs, which i wins, and
    0 at its tied ones, which express no preference. A pair's probability
    is sigma(z) at z = scale * (s_i - s_j). Row k of the (m, m - 1) ``ends``
    lists the pairs holding position k, and ``signs[k, t, c]`` is -1 where
    k is pair ``ends[k, t]``'s i, +1 where it is its j and 0 where grader c
    tied it, so gu at k sums row k of q times ``signs``: tables and work
    grow with the pairs. The kernel computes in z, the log terms, q,
    exp(-|z|), a scratch array, the signed q and gu.
    """

    def _tables(self, ranks: np.ndarray, first: np.ndarray, second: np.ndarray, strict: np.ndarray) -> tuple:
        # Each position's pairs: as i, then as j, each in order of the other end.
        ends = np.argsort(np.concatenate((first, second)), kind="stable").reshape(len(ranks), -1) % len(first)
        signs = np.where(first[ends] == np.arange(len(ranks))[:, None], -1.0, 1.0)[:, :, None] * strict[ends]
        return first, second, strict.astype(float), ends, signs

    def _work(self, block: tuple) -> tuple[np.ndarray, ...]:
        return (*np.empty((5, *block[4].shape)), np.empty(block[6].shape), np.empty(block[1].shape))

    def _terms(
        self, z: np.ndarray, log_term: np.ndarray, q: np.ndarray, e: np.ndarray, tmp: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each pair's -log P(winner above loser) at ``z`` and q = minus its
        derivative in z, written into ``log_term`` and ``q``, with ``e`` and
        ``tmp`` as scratch."""
        # log(1 + exp(-z)) and expit(-z), both from e = exp(-|z|), which never
        # overflows: expit(-z) = exp(min(-z, 0)) / (1 + e), which is e / (1 + e)
        # where z >= 0 and 1 / (1 + e) where not.
        e = np.abs(z, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        log_term = np.negative(z, out=log_term)
        q = np.minimum(log_term, 0.0, out=q)
        np.maximum(log_term, 0.0, out=log_term)
        np.add(log_term, np.log1p(e, out=tmp), out=log_term)
        return log_term, np.divide(np.exp(q, out=q), np.add(1.0, e, out=tmp), out=q)

    def _gradient(self, block: tuple, scale: np.ndarray | None, s_items: np.ndarray, work: tuple) -> np.ndarray:
        """gu, leaving each pair's log term, unmasked, in ``work``; a ``scale`` of None is a scale of 1."""
        first, second, _, ends, signs = block[2:]
        z, log_term, q, e, tmp, signed, gu = work
        s_items.take(first, axis=0, out=z, mode="clip")
        np.subtract(z, s_items.take(second, axis=0, out=tmp, mode="clip"), out=z)
        if scale is not None:
            np.multiply(z, scale, out=z)
        q = self._terms(z, log_term, q, e, tmp)[1]
        np.multiply(q.take(ends, axis=0, out=signed, mode="clip"), signs, out=signed)
        return np.add.reduce(signed, axis=1, out=gu)

    def _kernel(
        self, block: tuple, scale: np.ndarray, s_items: np.ndarray, *work: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        gu = self._gradient(block, scale, s_items, work)
        log_term = np.multiply(work[1], block[4], out=work[1])
        return log_term.sum(axis=0), gu

    def columns(self) -> list[tuple[np.ndarray, tuple, tuple[np.ndarray, ...], np.ndarray]]:
        """Each grader's (items, column block, work, snapshot) for its SVRG
        steps: its items; its block's tables with each pair's items for its
        positions and only its column of ``signs``, so that ``_gradient`` at
        the scores gives its gu; one column's work arrays; and its column of
        the scale * gu that ``evaluate`` without the eta-gradient leaves."""
        columns = [None] * self.n_graders
        for (graders, items, first, second, _, ends, signs), (_, weights, *_) in zip(self.blocks, self.work):
            work = (*np.empty((5, len(first))), np.empty(ends.shape), np.empty(len(items)))
            tables = map(np.ascontiguousarray, (items.T, items[first].T, items[second].T, np.moveaxis(signs, 2, 0)))
            for g, own, winners, losers, own_signs, snapshot in zip(graders.tolist(), *tables, weights.T):
                columns[g] = (own, (None, None, winners, losers, None, ends, own_signs), work, snapshot)
        return columns


class _ProbitBatch(_PairwiseBatch):
    """``_PairwiseBatch`` under the probit link: P = Phi(z) at z = sqrt(eta) *
    (s_i - s_j). Only it imports ``scipy.special``, so that no other model
    pays for loading it."""

    def __init__(self, arrays: FeedbackArrays):
        from scipy.special import log_ndtr

        self._log_ndtr = log_ndtr
        super().__init__(arrays)

    def scale(self, etas: np.ndarray) -> np.ndarray:
        return np.sqrt(etas)

    def _eta_gradient(self, grad_scale: np.ndarray, scales: np.ndarray) -> np.ndarray:
        return np.divide(grad_scale, 2.0 * scales, out=grad_scale)  # d scale / d eta = 1 / (2 sqrt(eta))

    def _terms(
        self, z: np.ndarray, log_term: np.ndarray, q: np.ndarray, e: np.ndarray, tmp: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        log_term = np.negative(self._log_ndtr(z, out=log_term), out=log_term)
        # phi(z) / Phi(z), from the log Phi the nll already has.
        q = np.multiply(0.5, z, out=q)
        q *= z
        np.subtract(log_term, q, out=q)
        q -= _LOG_SQRT_2PI
        return log_term, np.exp(q, out=q)


class _ListBatch(_BlockBatch):
    """Every grader's weak ranking under the sequential-choice model, each tie
    group by Efron's approximation (Efron 1977).

    Position k of a tie group of t items, from position a to just before b,
    chooses against D_k = (1 - l/t) * S_a + (l/t) * S_b at l = k - a, where
    S_j sums exp(u) over positions j and below. That is the exact suffix sum
    at k had each item of the group the group's mean weight, so the kernel
    runs the exact likelihood's recursions on those weights
    (``_log_group_means``). A block whose graders tie nothing is (graders,
    items); a tied block adds, per position, whether it closes its group,
    the flat index of its group's first position and log t. The kernel
    computes in u, its suffix log-sum-exps and gu, and in a tied block also
    in the log mean weights and one scratch array.
    """

    def _tables(self, ranks: np.ndarray, *pairs) -> tuple:
        m, g = ranks.shape
        closes = np.vstack((ranks[1:] != ranks[:-1], np.ones((1, g), dtype=bool)))
        if closes.all():
            return ()
        place = np.arange(m)[:, None]
        last = np.minimum.accumulate(np.where(closes, place, m)[::-1], axis=0)[::-1]
        return closes, (ranks - 1) * g + np.arange(g), np.log(last - ranks + 2.0)

    def _work(self, block: tuple) -> tuple[np.ndarray, ...]:
        return tuple(np.empty((3 if len(block) == 2 else 5, *block[1].shape)))

    def _kernel(
        self, block: tuple, eta: np.ndarray, s_items: np.ndarray, u: np.ndarray, lse: np.ndarray, gu: np.ndarray,
        *tied: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        np.multiply(eta, s_items, out=u)
        choosers = _log_group_means(u, *block[2:], *tied) if tied else u
        _logaddexp_rows(choosers[::-1], lse[::-1])
        nll = np.subtract(lse, u, out=gu).sum(axis=0)
        # d nll / d u_k = sum over choices i <= k of exp(u_k - lse_i), minus 1, a
        # tied item's sum the mean of its group's; the exponent is at most log m,
        # so nothing overflows.
        _logaddexp_rows(np.negative(lse, out=lse), gu)
        if tied:
            _log_group_means(gu, *block[2:], gu, tied[1])
        np.exp(np.add(u, gu, out=gu), out=gu)
        gu -= 1.0
        return nll, gu


def _log_group_means(
    t: np.ndarray, closes: np.ndarray, first: np.ndarray, log_sizes: np.ndarray, out: np.ndarray, sums: np.ndarray
) -> np.ndarray:
    """log of the mean of exp(t) over each position's tie group, into ``out``: the group's log-sum-exp from
    each position down, in ``sums``, read at the group's ``first`` position; t itself at an untied one."""
    sums[-1] = t[-1]
    for k in range(len(t) - 2, -1, -1):
        np.logaddexp(sums[k + 1], t[k], out=sums[k])
        np.copyto(sums[k], t[k], where=closes[k])
    return np.subtract(sums.take(first, out=out, mode="clip"), log_sizes, out=out)


def _logaddexp_rows(t: np.ndarray, out: np.ndarray) -> None:
    """``np.logaddexp.accumulate(t, axis=0, out=out)`` one row at a time: the same ufunc on the same
    operands in the same order, without the accumulate's per-call cost over a (m, G) block."""
    out[0] = t[0]
    for i in range(1, len(t)):
        np.logaddexp(out[i - 1], t[i], out=out[i])


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


def _logsumexp(t: np.ndarray, top: np.ndarray, total: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log of the sum of exp(t) over the first axis, shifted by its maximum,
    into ``out``; ``t`` is overwritten, and ``top`` and ``total`` are scratch."""
    t.max(axis=0, out=top)
    np.subtract(t, top, out=t)
    np.exp(t, out=t)
    return np.add(top, np.log(t.sum(axis=0, out=total), out=total), out=out)


def _views(shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of the given shapes, each from the start of one new array just large enough for all."""
    region = np.empty(max(math.prod(shape) for shape in shapes))
    return [region[: math.prod(shape)].reshape(shape) for shape in shapes]


class _PermanentWork:
    """The arrays ``_log_permanent`` computes in, for the subset ``layers`` of
    m items and ``n_cols`` columns, allocated once.

    ``forward[r]`` holds the forward pass's layer r. ``back[r]``, ``top[r]``
    and ``total[r]`` are layer-r views of one array each, and ``down[r]``
    and ``up[r]`` are the gathered terms of layer r when it is reached from
    layer r - 1 and from layer r + 1: two views (gathered, weighted) of the
    same two arrays. ``expected`` and ``spread`` are (m, n_cols).
    """

    def __init__(self, layers: list[tuple[np.ndarray, ...]], n_cols: int):
        m, sizes = len(layers) - 1, [members.shape[1] for members, *_ in layers]
        self.forward = [np.empty((size, n_cols)) for size in sizes]
        self.back, self.top, self.total = (_views([(size, n_cols) for size in sizes]) for _ in range(3))
        shapes = [(r, size, n_cols) for r, size in enumerate(sizes)]
        shapes += [(m - r, size, n_cols) for r, size in enumerate(sizes)]
        terms = list(zip(_views(shapes), _views(shapes)))
        self.down, self.up = terms[: m + 1], terms[m + 1 :]
        self.expected, self.spread = np.empty((2, m, n_cols))


def _log_permanent(
    u: np.ndarray, layers: list[tuple[np.ndarray, ...]], log_masks: list[np.ndarray], work: _PermanentWork
) -> tuple[np.ndarray, np.ndarray]:
    """log per(A) of A[x, k] = exp(u[x] * w[k]), w[k] = (m + 1 - 2k) / 2 for
    positions k = 1..m, for each column of ``u``.

    The recursion per(S) = sum over x in S of per(S - x) * A[x, |S|] runs up
    the subset ``layers``; ``log_masks[r]`` (0 or ``_DROPPED`` per subset
    and column) drops the subsets of size r that may not fill the first r
    positions. It also returns E[w at x's position], the gradient of log
    per(A) with respect to u, from a backward pass that sums each subset's
    completions down the layers. Both results are views of ``work``.
    """
    m, n_cols = u.shape
    w = (m + 1 - 2 * np.arange(1, m + 1)) / 2.0
    forward, back, top, total = work.forward, work.back, work.top, work.total
    forward[0].fill(0.0)
    for r in range(1, m + 1):
        members, down = layers[r][:2]
        gathered, weighted = work.down[r]
        forward[r - 1].take(down, axis=0, out=gathered, mode="clip")
        np.multiply(u.take(members, axis=0, out=weighted, mode="clip"), w[r - 1], out=weighted)
        _logsumexp(np.add(gathered, weighted, out=gathered), top[r], total[r], forward[r])
        np.add(forward[r], log_masks[r], out=forward[r])
    logz = forward[m][0]
    expected, spread_sum = work.expected, work.spread
    expected.fill(0.0)
    back[m].fill(0.0)
    for r in range(m, 0, -1):
        members, down, _, _, spread = layers[r]
        # P(x at position r) sums, over the subsets S of size r holding x,
        # the orders that fill S with x last and then complete S.
        log_p, weighted = work.down[r]
        forward[r - 1].take(down, axis=0, out=log_p, mode="clip")
        np.multiply(u.take(members, axis=0, out=weighted, mode="clip"), w[r - 1], out=weighted)
        np.add(log_p, weighted, out=log_p)
        np.add(log_p, np.subtract(back[r], logz, out=total[r]), out=log_p)
        np.matmul(spread, np.exp(log_p, out=log_p).reshape(-1, n_cols), out=spread_sum)
        expected += np.multiply(w[r - 1], spread_sum, out=spread_sum)
        _, _, outside, up, _ = layers[r - 1]
        gathered, weighted = work.up[r - 1]
        back[r].take(up, axis=0, out=gathered, mode="clip")
        np.multiply(u.take(outside, axis=0, out=weighted, mode="clip"), w[r - 1], out=weighted)
        _logsumexp(np.add(gathered, weighted, out=gathered), top[r - 1], total[r - 1], back[r - 1])
        np.add(back[r - 1], log_masks[r - 1], out=back[r - 1])
    return logz, expected


class _PermBatch(_BlockBatch):
    """Every grader's weak ranking under the score-weighted permutation model.

    Up to a constant shared by every order, an order of a grader's m items
    costs the sum over positions k = 1..m of s_k * (2k - m - 1) / 2, where
    s_k is the score of the item at position k. So the grader's likelihood
    is per(A over the orders its tie groups allow) / per(A), with
    A[x, k] = exp(-eta * s_x * (2k - m - 1) / 2), and ``_log_permanent``
    gives each permanent in O(2^m m) (the bound of Ryser 1963). A block is
    (graders, items, layers, log_masks), where ``layers`` are its
    ``_subset_layers``. Its G graders are recursed over twice in one call,
    as 2G columns: column c for the normaliser of grader c, and column G + c
    for its numerator, where ``log_masks[r]`` is 0 if a subset of r of its
    items may fill the first r positions (no item in it is ranked strictly
    below one outside it) and ``_DROPPED`` if not; the first G columns of
    every mask are 0. The kernel computes in gu, the 2G columns of u and a
    ``_PermanentWork``.
    """

    def _tables(self, ranks: np.ndarray, *pairs) -> tuple[list[tuple[np.ndarray, ...]], list[np.ndarray]]:
        layers, log_masks = _subset_layers(len(ranks)), []
        for members, _, outside, _, _ in layers:
            fits = ranks[members].max(axis=0, initial=0) <= ranks[outside].min(axis=0, initial=len(ranks))
            log_masks.append(np.hstack((np.zeros(fits.shape), np.where(fits, 0.0, _DROPPED))))
        return layers, log_masks

    def _work(self, block: tuple) -> tuple[np.ndarray, np.ndarray, _PermanentWork]:
        m, g = block[1].shape
        return np.empty((m, g)), np.empty((m, 2 * g)), _PermanentWork(block[2], 2 * g)

    def _kernel(
        self, block: tuple, eta: np.ndarray, s_items: np.ndarray, gu: np.ndarray, u: np.ndarray, work: _PermanentWork
    ) -> tuple[np.ndarray, np.ndarray]:
        g = len(eta)
        # u is eta * s_items twice over, side by side: two products, as numpy
        # would copy one half into the other through a temporary.
        np.multiply(eta, s_items, out=u[:, :g])
        np.multiply(eta, s_items, out=u[:, g:])
        logz, expected = _log_permanent(u, *block[2:], work)
        return logz[:g] - logz[g:], np.subtract(expected[:, :g], expected[:, g:], out=gu)


# --- model preparation and objective ----------------------------------------


def _prepare(model: str, data: Dataset) -> _BlockBatch:
    """The model's likelihood over ``data``, one batch over every grader built
    from ``data.feedback_arrays``."""
    if model not in SCORE_MODELS:
        raise ValidationError(f"unknown score model {model!r}; expected one of {SCORE_MODELS}")
    fa = data.feedback_arrays
    if not fa.graders:
        raise ValidationError("dataset has no feedback")
    if model in ("bt", "thur"):
        return (_ProbitBatch if model == "thur" else _PairwiseBatch)(fa)
    if model == "pl":
        return _ListBatch(fa)
    counts = np.diff(fa.offsets)
    if counts.max() > ENUMERATION_CAP:
        g = int(np.argmax(counts > ENUMERATION_CAP))
        raise EnumerationCapError(
            f"grader {fa.graders[g]!r} graded {counts[g]} items, above the cap {ENUMERATION_CAP} "
            f"of the subset recursion; exclude this model"
        )
    return _PermBatch(fa)


def _posterior(
    batch: _BlockBatch,
    s: np.ndarray,
    etas: np.ndarray,
    log_etas: np.ndarray | None,
    score_prior: ScorePrior,
    reliability_prior: ReliabilityPrior | None,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The negative log-posterior at scores ``s`` and reliabilities ``etas``,
    its score gradient and, with a ``reliability_prior``, its eta-gradient.

    Without a ``reliability_prior`` the reliabilities are held fixed and
    only the score prior is added. With one, each eta adds its gamma prior
    eta / scale - (shape - 1) * ``log_etas``, and the eta-gradient returned
    leaves out the -(shape - 1) / eta of that log term: a fit over ln(eta)
    multiplies the rest by eta and subtracts shape - 1 instead.
    """
    nll, grad_s, grad_eta = batch.evaluate(s, etas, need_eta=reliability_prior is not None)
    d = s - score_prior.mean
    value = float(nll.sum()) + float(d @ d) / (2.0 * score_prior.variance)
    if reliability_prior is not None:
        shape, scale = reliability_prior.shape, reliability_prior.scale
        value += float((etas / scale - (shape - 1.0) * log_etas).sum())
        grad_eta += 1.0 / scale
    return value, grad_s + d / score_prior.variance, grad_eta


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
) -> Objective:
    """Negative log-posterior of a score model, with analytic gradients.

    With ``reliabilities`` omitted every grader has eta = 1 and the
    reliability prior and gradient are excluded. Additive constants are
    dropped throughout. Its value is the objective that every L-BFGS fit
    minimises, computed by the same ``_posterior``.
    """
    score_prior = score_prior or ScorePrior()
    batch = _prepare(model, data)
    items, graders = data.items, data.feedback_arrays.graders
    missing = [x for x in items if x not in scores]
    if missing:
        raise ValidationError(f"scores missing for items: {missing}")
    s = np.array([float(scores[x]) for x in items])
    if reliabilities is None:
        etas, log_etas, rprior = np.ones(len(graders)), None, None
    else:
        absent = [g for g in graders if g not in reliabilities]
        if absent:
            raise ValidationError(f"reliabilities missing for graders: {absent}")
        etas = np.array([float(reliabilities[g]) for g in graders])
        if not (np.all(np.isfinite(etas)) and np.all(etas > 0)):
            raise ValidationError("reliabilities must be finite and > 0")
        log_etas, rprior = np.log(etas), reliability_prior or ReliabilityPrior()
    value, grad_s, grad_eta = _posterior(batch, s, etas, log_etas, score_prior, rprior)
    reliability_gradient = None
    if rprior is not None:
        grad_eta -= (rprior.shape - 1.0) / etas
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


def _svrg_scores(
    batch: _PairwiseBatch, s0: np.ndarray, score_prior: ScorePrior, seed: int | np.random.Generator
) -> tuple[np.ndarray, int, float, bool]:
    """MAP scores with every reliability 1, by per-grader SVRG (Johnson &
    Zhang 2013); returns as ``_lbfgs`` does, counting epochs.

    Grader g's share h_g of the objective F is its pairs' negative
    log-likelihood plus 1/G of the prior. An epoch takes the gradient of F
    at a snapshot s~, then steps s -= lr * (grad h_g(s) - grad h_g(s~) +
    grad F(s~) / G) once per grader, in a random order drawn from
    ``np.random.default_rng(seed)``, taking the likelihood's part on g's
    block column. The fit stops at the first snapshot whose largest absolute
    gradient entry is at most ``_GRAD_TOLERANCE``. -log Phi has curvature at
    most 1 and the pair Laplacian of m items has eigenvalues at most m, so
    L = max over g of m_g + 1 / (variance * G) bounds the curvature of every
    h_g, and lr = 1 / (4 L).
    """
    mean, variance, n_graders = score_prior.mean, score_prior.variance, batch.n_graders
    share = 1.0 / (variance * n_graders)
    lr = 0.25 / (max(len(items) for _, items, *_ in batch.blocks) + share)
    etas, columns, rng = np.ones(n_graders), batch.columns(), np.random.default_rng(seed)
    s, epoch = s0.copy(), 0
    while True:
        # Also leaves each grader's gu at the snapshot in its column of ``columns``.
        grad = batch.evaluate(s, etas)[1] + (s - mean) / variance
        g_max = float(np.abs(grad).max())
        if g_max <= _GRAD_TOLERANCE or epoch == _MAX_STEPS:
            return s, epoch, g_max, g_max <= _GRAD_TOLERANCE
        snapshot, drift = s.copy(), grad / n_graders
        for g in rng.permutation(n_graders).tolist():
            items, block, work, snapshot_slopes = columns[g]
            w = batch._gradient(block, None, s, work) - snapshot_slopes
            step = (s - snapshot) * share + drift
            step[items] += w
            s -= lr * step
        epoch += 1


def _fit_batch(
    batch: _BlockBatch,
    score_prior: ScorePrior,
    reliability_prior: ReliabilityPrior | None,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
    """Scores, reliabilities and the solver's report of a fit from the prior mean.

    Without a ``reliability_prior`` every eta is 1. A probit batch then takes
    ``_svrg_scores`` and reports its ``svrg_epochs``; every other batch runs
    ``_lbfgs`` on ``_posterior`` over the scores. With one, ``_lbfgs`` runs on
    ``_posterior`` over x = (s, u) from u = 0, where u = ln(eta) is bounded to
    [ln 1e-3, ln 1e3] and its gradient is eta times ``_posterior``'s
    eta-gradient, minus shape - 1. An L-BFGS fit reports its
    ``lbfgs_iterations``.
    """
    n = batch.n_items
    s0 = np.full(n, score_prior.mean)
    if reliability_prior is None:
        etas = np.ones(batch.n_graders)
        if isinstance(batch, _ProbitBatch):
            s, steps, grad_norm, converged = _svrg_scores(batch, s0, score_prior, seed)
            return s, etas, {"svrg_epochs": steps, "grad_norm": grad_norm, "converged": converged}
        s, steps, grad_norm, converged = _lbfgs(lambda x: _posterior(batch, x, etas, None, score_prior, None)[:2], s0)
    else:
        shape, (low, high) = reliability_prior.shape, np.log(_ETA_BOUNDS)

        def reliabilities(u: np.ndarray) -> np.ndarray:
            # exp(ln 1e-3) is not exactly 1e-3, so a u on a bound maps onto that bound's eta.
            return np.where(u <= low, _ETA_BOUNDS[0], np.where(u >= high, _ETA_BOUNDS[1], np.exp(u)))

        def joint(x: np.ndarray) -> tuple[float, np.ndarray]:
            etas = reliabilities(x[n:])
            value, grad_s, grad_eta = _posterior(batch, x[:n], etas, x[n:], score_prior, reliability_prior)
            return value, np.concatenate((grad_s, etas * grad_eta - (shape - 1.0)))

        unbounded, u0 = np.full(n, np.inf), np.zeros(batch.n_graders)
        bounds = (np.concatenate((-unbounded, u0 + low)), np.concatenate((unbounded, u0 + high)))
        x, steps, grad_norm, converged = _lbfgs(joint, np.concatenate((s0, u0)), bounds)
        s, etas = x[:n], reliabilities(x[n:])
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
    Items nobody graded get the prior mean, with a warning, and roster
    graders without feedback the reliability prior's mode, kept in [1e-3,
    1e3]. The plain ``bt``, ``pl`` and ``mals`` fits run L-BFGS on the
    scores, and ``thur``'s per-grader SVRG epochs; ``metadata`` records the
    ``lbfgs_iterations`` or ``svrg_epochs`` taken. A ``+g`` fit of any of
    the four is one L-BFGS run over the scores and log(eta) together, each
    reliability kept in [1e-3, 1e3], and records its ``lbfgs_iterations``.
    ``metadata`` also records ``grad_norm``: the largest absolute entry of
    the gradient of the negative log-posterior at the returned fit, with
    respect to the scores and, for ``+g``, log(eta), leaving out a log(eta)
    held at a bound by a gradient pointing out of it. A fit has
    ``converged`` when that is at most 1e-6. ``seed`` orders plain
    ``thur``'s SVRG steps and nothing else: no other fit draws. A ``pl`` tie
    group is scored by Efron's approximation.
    """
    score_prior = score_prior or ScorePrior()
    rprior = (reliability_prior or ReliabilityPrior()) if with_reliability else None
    batch = _prepare(model, data)
    graded = np.bincount(data.feedback_arrays.item, minlength=len(data.items)) > 0
    if not graded.all():
        ungraded = [data.items[i] for i in np.flatnonzero(~graded)]
        warnings.warn(f"items never graded by anyone get the prior mean: {ungraded}", stacklevel=2)

    s, etas, report = _fit_batch(batch, score_prior, rprior, seed)
    reliabilities = rprior._by_grader(data.graders, data.feedback_arrays.graders, etas) if with_reliability else None
    scores = {item: float(s[i]) for i, item in enumerate(data.items)}
    return Estimate(
        ranking=ranking_from_scores(scores, tie_epsilon),
        scores=scores,
        reliabilities=reliabilities,
        metadata={**report, "model": model + ("+g" if with_reliability else "")},
    )
