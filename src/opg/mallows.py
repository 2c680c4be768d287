"""Exponential ranking-noise model over permutations and its estimators.

The model puts probability proportional to exp(-eta * d(center, ranking))
on each total order, where d is the Kendall tau distance and eta >= 0 is a
grader's reliability. Feedback with ties is scored by summing the model
over all total orders consistent with the tie groups; that sum has a
closed form used throughout this module:

    sum_{orders consistent with g} exp(-eta * d(center, order))
        = exp(-eta * X) * prod_j Z(eta, |G_j|)

where X counts cross-group pairs ordered against the center and Z is the
normalizer below. Within one tie group every relative arrangement occurs
exactly once, which reproduces the normalizer product; cross-group pairs
are fixed by the tie groups, contributing the constant X.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .config import ReliabilityPrior, _check_iterations
from .data import Dataset, Estimate, FeedbackArrays, GraderFeedback
from .errors import ValidationError
from .rankings import WeakRanking, break_ties

__all__ = [
    "MallowsParams",
    "mallows_normalizer",
    "mallows_log_normalizer",
    "mallows_log_likelihood",
    "greedy_mle_ranking",
    "borda_ranking",
    "local_kemenization",
    "weighted_kendall_cost",
    "fit_reliabilities",
    "fit_mallows",
]


@dataclass(frozen=True)
class MallowsParams:
    """Per-grader reliabilities; graders absent from the map default to 1."""

    reliabilities: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.reliabilities is not None:
            for grader, eta in self.reliabilities.items():
                if not (math.isfinite(eta) and eta > 0):
                    raise ValidationError(
                        f"reliability of {grader!r} must be finite and > 0, got {eta}"
                    )
            object.__setattr__(self, "reliabilities", dict(self.reliabilities))

    def eta_for(self, grader: str) -> float:
        if self.reliabilities is None:
            return 1.0
        return self.reliabilities.get(grader, 1.0)


def _check_eta(eta: float) -> None:
    if not (math.isfinite(eta) and eta > 0):
        raise ValidationError(f"eta must be finite and > 0, got {eta}")


def mallows_log_normalizer(eta: float, k: int) -> float:
    """log of the normalizer over permutations of k items.

    Z(eta, k) = prod_{i=1..k} (1 - exp(-i*eta)) / (1 - exp(-eta)), the sum of
    exp(-eta * inversions) over all k! permutations relative to any fixed
    reference order.
    """
    _check_eta(eta)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if k == 1:
        return 0.0
    i = np.arange(1, k + 1, dtype=float)
    log_terms = np.log(-np.expm1(-i * eta))
    return float(log_terms.sum() - k * math.log(-math.expm1(-eta)))


def mallows_normalizer(eta: float, k: int) -> float:
    """Normalizer over permutations of k items (see mallows_log_normalizer)."""
    return math.exp(mallows_log_normalizer(eta, k))


def mallows_log_likelihood(center: WeakRanking, feedback: GraderFeedback, eta: float) -> float:
    """Log probability of a grader's (possibly tied) feedback given a center.

    The probability sums the permutation model over every total order
    consistent with the feedback's tie groups, via the closed form in the
    module docstring. ``center`` must be a total order covering the
    feedback's items.
    """
    _check_eta(eta)
    if feedback.ordinal is None:
        raise ValidationError(f"grader {feedback.grader!r} has no ordinal feedback")
    if not center.is_total:
        raise ValidationError("center must be a total order")
    missing = feedback.ordinal.items - center.items
    if missing:
        raise ValidationError(f"center does not rank items: {sorted(missing)}")
    fb = feedback.ordinal
    arrays = Dataset.from_feedback([feedback]).feedback_arrays
    center_rank = np.array([center.rank_of(d) for d in feedback.items])
    x = int(np.count_nonzero(center_rank[arrays.winner] > center_rank[arrays.loser]))
    log_num = -eta * x + sum(mallows_log_normalizer(eta, len(g)) for g in fb.groups)
    return log_num - mallows_log_normalizer(eta, len(fb))


def _grader_etas(arrays: FeedbackArrays, params: MallowsParams) -> np.ndarray:
    """Reliability of each grader, in feedback order."""
    return np.fromiter((params.eta_for(g) for g in arrays.graders), dtype=float, count=len(arrays.graders))


def _compiled(data: Dataset) -> FeedbackArrays:
    """The dataset's compiled feedback, refusing a dataset with nothing to rank."""
    if not data.items:
        raise ValidationError("dataset has no items")
    if not data.feedback:
        raise ValidationError("dataset has no feedback")
    return data.feedback_arrays


def _positions(ranking: WeakRanking, data: Dataset) -> np.ndarray:
    """Position of each dataset item in the total order ``ranking``; -1 if absent."""
    position = {d: i for i, d in enumerate(ranking.order())}
    return np.fromiter((position.get(d, -1) for d in data.items), dtype=np.intp, count=len(data.items))


def greedy_mle_ranking(data: Dataset, params: MallowsParams | None = None) -> WeakRanking:
    """Total order that greedily maximizes the reliability-weighted likelihood.

    Repeatedly selects from the remaining candidates the item d minimizing

        x_d = sum_g eta_g * (|{d' above d in g}| - |{d' below d in g}|)

    with both counts restricted to remaining candidates in the grader's item
    set; pairs the grader ties contribute to neither count. Ties in x_d are
    broken by lexicographic item id. Items never graded by anyone are
    appended at the end (lexicographically) with a warning.
    """
    params = params or MallowsParams()
    arrays = _compiled(data)
    graded = np.bincount(arrays.item, minlength=len(data.items)) > 0
    ungraded = [data.items[i] for i in np.flatnonzero(~graded)]
    if ungraded:
        warnings.warn(f"items never graded by anyone are ranked last: {ungraded}", stacklevel=2)

    pair_eta = _grader_etas(arrays, params)[arrays.pair_grader]
    # End 2p of pair p is its winner and end 2p + 1 its loser; picking an
    # end's item changes x of the pair's other item by ``change``.
    other = np.stack([arrays.loser, arrays.winner], axis=1).ravel()
    change = np.stack([-pair_eta, pair_eta], axis=1).ravel()
    del pair_eta
    # So x starts as minus every change: each pair adds eta to its loser, then subtracts it from its winner.
    x = np.bincount(other, weights=-change, minlength=len(data.items)).astype(float, copy=False)
    x[~graded] = np.inf
    other, change = other[arrays.incident], change[arrays.incident]
    offsets = arrays.incident_offsets.tolist()
    order = []
    for _ in range(int(graded.sum())):
        # Among equal x, argmin takes the lowest index: the lexicographically first id.
        best = int(x.argmin())
        order.append(data.items[best])
        x[best] = np.inf
        lo, hi = offsets[best], offsets[best + 1]
        np.add.at(x, other[lo:hi], change[lo:hi])
    order.extend(ungraded)
    return WeakRanking.from_order(order)


def borda_ranking(data: Dataset, params: MallowsParams | None = None) -> WeakRanking:
    """Items ordered by ascending reliability-weighted average rank.

    Each grader contributes its within-feedback rank of the item, weighted by
    the grader's reliability; equal averages form tie groups. Items graded by
    nobody form a final tie group (with a warning).
    """
    params = params or MallowsParams()
    arrays = _compiled(data)
    n = len(data.items)
    entry_eta = np.repeat(_grader_etas(arrays, params), np.diff(arrays.offsets))
    weighted_sum = np.bincount(arrays.item, weights=entry_eta * arrays.rank, minlength=n)
    weight = np.bincount(arrays.item, weights=entry_eta, minlength=n)
    graded = np.bincount(arrays.item, minlength=n) > 0
    ungraded = [data.items[i] for i in np.flatnonzero(~graded)]
    if ungraded:
        warnings.warn(f"items never graded by anyone form the last tie group: {ungraded}", stacklevel=2)

    candidates = np.flatnonzero(graded)
    averages = weighted_sum[candidates] / weight[candidates]
    ordered = np.argsort(averages, kind="stable")
    averages = averages[ordered]
    cuts = np.flatnonzero(averages[1:] != averages[:-1]) + 1
    groups = [[data.items[i] for i in group] for group in np.split(candidates[ordered], cuts)]
    if ungraded:
        groups.append(ungraded)
    return WeakRanking(groups)


def _slot_weights(data: Dataset, params: MallowsParams) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct pair keys winner * n + loser, and each key's reliability summed in pair order."""
    arrays = data.feedback_arrays
    keys, slot = np.unique(arrays.winner.astype(np.int64) * len(data.items) + arrays.loser, return_inverse=True)
    pair_eta = _grader_etas(arrays, params)[arrays.pair_grader]
    return keys, np.bincount(slot.ravel(), weights=pair_eta, minlength=len(keys))


def weighted_kendall_cost(ranking: WeakRanking, data: Dataset, params: MallowsParams | None = None) -> float:
    """Total reliability-weighted count of feedback pairs ordered against ``ranking``."""
    params = params or MallowsParams()
    if not ranking.is_total:
        raise ValidationError("cost is defined for total orders only")
    keys, weights = _slot_weights(data, params)
    winner, loser = np.divmod(keys, len(data.items))
    position = _positions(ranking, data)
    above, below = position[loser], position[winner]
    violated = np.flatnonzero((below > above) & (above >= 0))
    # Summed one at a time in the ranking's (upper, lower) pair order, which fixes the float rounding.
    in_order = violated[np.lexsort((below[violated], above[violated]))]
    return float(np.cumsum(weights[in_order])[-1]) if in_order.size else 0.0


def local_kemenization(ranking: WeakRanking, data: Dataset, params: MallowsParams | None = None) -> WeakRanking:
    """Improve a total order by adjacent swaps until locally optimal.

    A swap of neighbors (a above b) is taken iff it strictly decreases the
    reliability-weighted count of violated feedback pairs, i.e. iff the
    weight preferring b over a exceeds the weight preferring a over b.
    Each pair can flip at most once, so the sweep terminates.
    """
    params = params or MallowsParams()
    if not ranking.is_total:
        raise ValidationError("local improvement requires a total order")
    if ranking.items != set(data.items):
        raise ValidationError("ranking must cover exactly the dataset's items")
    n = len(data.items)
    keys, weights = _slot_weights(data, params)
    # A sentinel key past the end, which weighs nothing.
    keys, weights = np.append(keys, n * n), np.append(weights, 0.0)

    def weight(key: np.ndarray) -> np.ndarray:
        at = np.searchsorted(keys, key)
        return np.where(keys[at] == key, weights[at], 0.0)

    def prefers_lower(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        return weight(lower * n + upper) > weight(upper * n + lower)

    order = np.argsort(_positions(ranking, data))
    changed = True
    while changed:
        changed = False
        # One sweep, with every neighbour pair tested up front: a swap moves
        # the upper item down, and it keeps sinking while it loses to its
        # next neighbour; the pairs below where it stops are as tested.
        swaps = prefers_lower(order[:-1], order[1:])
        resume = 0
        for i in np.flatnonzero(swaps):
            if i < resume:
                continue
            while True:
                order[i], order[i + 1] = order[i + 1], order[i]
                changed = True
                i += 1
                if i == n - 1 or not prefers_lower(order[i:i + 1], order[i + 1:i + 2])[0]:
                    break
            resume = i + 1
    return WeakRanking.from_order(data.items[i] for i in order)


def _golden_section_etas(objective: Callable[[np.ndarray], np.ndarray], size: int) -> np.ndarray:
    """Maximizers of ``size`` independent 1-D problems, as reliabilities in [1e-3, 1e3].

    ``objective`` maps an array of ``size`` log10 reliabilities to the value
    of each problem there. One golden-section search per problem runs on
    [-3, 3] until every bracket is narrower than 1e-6; the result is 10 to
    the bracket's midpoint.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo = np.full(size, -3.0)
    hi = np.full(size, 3.0)
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc = objective(c)
    fd = objective(d)
    while float((hi - lo).max()) > 1e-6:
        keep_left = fc > fd
        hi = np.where(keep_left, d, hi)
        lo = np.where(keep_left, lo, c)
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc = objective(c)
        fd = objective(d)
    return np.clip(10.0 ** ((lo + hi) / 2.0), 1e-3, 1e3)


def fit_reliabilities(
    data: Dataset,
    center: WeakRanking,
    prior: ReliabilityPrior | None = None,
) -> dict[str, float]:
    """Per-grader MAP reliabilities given a fixed total-order center.

    Maximizes (shape-1)*ln(eta) - eta/scale + log-likelihood of the grader's
    feedback for each grader independently, by golden-section search on
    log10(eta) over [-3, 3] (tolerance 1e-6); the result is clamped to
    [1e-3, 1e3]. Graders without feedback get the prior mode.

    The likelihood term reduces to -eta*X_g + sum_i A_i(g) * ln(1 - e^(-i*eta))
    where X_g counts cross-group pairs against the center and A_i(g) =
    (number of tie groups of size >= i) - 1 for i <= |D_g|; the normalizer
    denominators cancel because group sizes sum to |D_g|. Graders with equal
    (X_g, A(g)) share one search.
    """
    prior = prior or ReliabilityPrior()
    if not center.is_total:
        raise ValidationError("center must be a total order")
    arrays = data.feedback_arrays
    result = {g: prior.mode for g in data.graders}
    if not arrays.graders:
        return result

    position = _positions(center, data)
    unranked = position[arrays.item] < 0
    if unranked.any():
        g = int(np.searchsorted(arrays.offsets, np.argmax(unranked), side="right")) - 1
        entries = slice(arrays.offsets[g], arrays.offsets[g + 1])
        missing = sorted(data.items[i] for i in arrays.item[entries][unranked[entries]])
        raise ValidationError(f"center does not rank items: {missing}")
    against = position[arrays.winner] > position[arrays.loser]
    x_g = np.bincount(arrays.pair_grader[against], minlength=len(arrays.graders))
    n_coeff = len(arrays.coeff)
    rows, inverse = np.unique(x_g * n_coeff + arrays.grader_coeff, return_inverse=True)

    x_vec, coeff = (rows // n_coeff).astype(float), arrays.coeff[rows % n_coeff]
    irange = np.arange(1, coeff.shape[1] + 1, dtype=float)
    shape, scale = prior.shape, prior.scale

    def objective(z: np.ndarray) -> np.ndarray:
        eta = 10.0**z
        log_terms = np.log(-np.expm1(-eta[:, None] * irange[None, :]))
        ll = -eta * x_vec + (coeff * log_terms).sum(axis=1)
        return (shape - 1.0) * np.log(eta) - eta / scale + ll

    eta_hat = _golden_section_etas(objective, len(rows))[inverse]
    for g, eta in zip(arrays.graders, eta_hat):
        result[g] = float(eta)
    return result


def fit_mallows(
    data: Dataset,
    *,
    use_borda: bool = False,
    kemenize: bool = False,
    with_reliability: bool = False,
    iterations: int = 10,
    reliability_prior: ReliabilityPrior | None = None,
    seed: int = 0,
) -> Estimate:
    """Aggregate ordinal feedback with the permutation-noise model family.

    The center is the greedy likelihood ranking (or the weighted-average-rank
    ranking when ``use_borda``), optionally polished by local adjacent-swap
    improvement (``kemenize``, greedy center only). With ``with_reliability``
    the center and per-grader reliabilities are re-estimated alternately for
    ``iterations`` rounds, starting from all reliabilities equal to 1.
    """
    if use_borda and kemenize:
        raise ValidationError("local improvement applies to the greedy variant only")
    _check_iterations(iterations)
    prior = reliability_prior or ReliabilityPrior()
    rng = np.random.default_rng(seed)
    metadata: dict = {
        "family": "borda" if use_borda else "greedy",
        "kemenized": kemenize,
    }

    def center_for(params: MallowsParams) -> WeakRanking:
        if use_borda:
            return borda_ranking(data, params)
        ranking = greedy_mle_ranking(data, params)
        if kemenize:
            ranking = local_kemenization(ranking, data, params)
        return ranking

    center = center_for(MallowsParams())
    etas: dict[str, float] | None = None
    if with_reliability:
        metadata["reliability_iterations"] = iterations
        for _ in range(iterations):
            total_center = center
            if not total_center.is_total:
                total_center = break_ties(center, rng)
                metadata["tie_break"] = "seeded"
            etas = fit_reliabilities(data, total_center, prior)
            center = center_for(MallowsParams(etas))
    return Estimate(ranking=center, reliabilities=etas, metadata=metadata)
