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

Every estimator here runs on one set of array cores, ``_Centers``, over the
dataset's compiled feedback: its blocks (``FeedbackArrays.blocks``, each ranking
length's graders with their position pairs and strict masks) and its end table
(``FeedbackArrays.ends``, each item's strict pairs in pair order), each listed
once per dataset. The public helpers build one for their dataset and
reliabilities, and ``fit_mallows`` builds one per fit, whose first center at
reliabilities 1 is a plain fit's answer and a ``+g`` fit's start. Those
centers are kept with the compiled feedback (``_Centers.unit``), so each is
computed once per dataset. The ``+g`` rounds keep the reliability problems
they solve there too, per tie pattern and X, where the dataset's grader
subsets of the same ``coeff`` width read them; the first round solves every X of every pattern at once
where that takes no more problems than there are graders (``_reliabilities``).
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import _ETA_BOUNDS, ReliabilityPrior, _check_iterations
from .data import Dataset, Estimate, FeedbackArrays, GraderFeedback, _read_only
from .errors import ValidationError
from .rankings import WeakRanking

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
                    raise ValidationError(f"reliability of {grader!r} must be finite and > 0, got {eta}")
            object.__setattr__(self, "reliabilities", dict(self.reliabilities))

    def eta_for(self, grader: str) -> float:
        return 1.0 if self.reliabilities is None else self.reliabilities.get(grader, 1.0)


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
    x = int(_against(arrays, np.array([center.rank_of(d) for d in feedback.items]))[0])
    log_num = -eta * x + sum(mallows_log_normalizer(eta, len(g)) for g in fb.groups)
    return log_num - mallows_log_normalizer(eta, len(fb))


def _positions(ranking: WeakRanking, data: Dataset) -> np.ndarray:
    """Position of each dataset item in the total order ``ranking``; -1 if absent."""
    position = {d: i for i, d in enumerate(ranking.order())}
    return np.fromiter((position.get(d, -1) for d in data.items), dtype=np.intp, count=len(data.items))


def _weak_ranking(items: tuple[str, ...], order: np.ndarray, cuts: np.ndarray) -> WeakRanking:
    """The ranking of item indices ``order``, best first, with a new tie group at each of ``cuts``."""
    if len(cuts) == len(order) - 1:
        return WeakRanking.from_order([items[i] for i in order])
    return WeakRanking([items[i] for i in group] for group in np.split(order, cuts))


def _against(arrays: FeedbackArrays, position: np.ndarray) -> np.ndarray:
    """X_g of each grader, in feedback order: its pairs ordered against the center at ``position``
    (-1 for an item the center leaves out; a pair counts only where its loser is ranked), counted
    block by block from the strict masks of ``FeedbackArrays.blocks``."""
    x_g = np.zeros(len(arrays.graders), dtype=np.intp)
    for graders, entries, first, second, strict in arrays.blocks:
        at = position[arrays.item[entries]]
        lower = at[second]
        x_g[graders] = np.count_nonzero(strict & (at[first] > lower) & (lower >= 0), axis=0)
    return x_g


def _cost(etas: np.ndarray, x_g: np.ndarray) -> float:
    """sum_g eta_g * X_g, summed exactly, so equal counts cost the same in any order of summation."""
    return math.fsum((etas * x_g).tolist())


class _Centers:
    """One dataset's center rankings under changing reliabilities, on item indices.

    Each method takes one reliability per grader, in feedback order, and
    reads the strict pairs: the greedy center and local improvement each
    item's own from ``FeedbackArrays.ends``, and the cost X_g per grader from
    the masks of ``FeedbackArrays.blocks``. A dataset without feedback has no
    pairs; the estimators, which rank from feedback, refuse it in
    ``check_feedback``. Nothing here draws: a tie group lists its items in
    index order, which is id order, and a total order taken from it keeps that.
    """

    def __init__(self, data: Dataset):
        self.items = data.items
        self.arrays = arrays = data.feedback_arrays
        graded = np.bincount(arrays.item, minlength=len(data.items)) > 0
        self.graded, self.ungraded = np.flatnonzero(graded), np.flatnonzero(~graded)
        # The cuts of a total order: every item is a group of its own.
        self.singletons = np.arange(1, len(data.items))

    def etas(self, params: MallowsParams | None) -> np.ndarray:
        """Each grader's reliability under ``params``, in feedback order; all 1 without them."""
        graders = self.arrays.graders
        if params is None:
            return np.ones(len(graders))
        return np.fromiter((params.eta_for(g) for g in graders), dtype=float, count=len(graders))

    def check_feedback(self, borda: bool) -> None:
        """Refuse a dataset with nothing to rank; warn, on behalf of the caller's caller, about items nobody graded."""
        if not self.items:
            raise ValidationError("dataset has no items")
        if not self.arrays.graders:
            raise ValidationError("dataset has no feedback")
        if self.ungraded.size:
            names = [self.items[i] for i in self.ungraded]
            where = "form the last tie group" if borda else "are ranked last"
            warnings.warn(f"items never graded by anyone {where}: {names}", stacklevel=3)

    def greedy(self, etas: np.ndarray) -> np.ndarray:
        """The order ``greedy_mle_ranking`` describes, ungraded items last by index."""
        ends, n = self.arrays.ends, len(self.items)
        # Picking an item changes x of the other item of each of its ends by
        # -eta_g where it wins the pair and by +eta_g where it loses it; x
        # starts as the sum of those changes over the item's own ends, in order.
        change = np.stack((-etas, etas), axis=1).ravel()[ends.key]
        x = np.bincount(np.repeat(np.arange(n), np.diff(ends.offsets)), change, n).astype(float, copy=False)
        x[self.ungraded] = np.inf
        other, offsets = ends.other.astype(np.intp), ends.offsets.tolist()
        order = np.empty(len(self.items), dtype=np.intp)
        for k in range(len(self.graded)):
            # Among equal x, argmin takes the lowest index: the lexicographically first id.
            best = int(x.argmin())
            order[k] = best
            x[best] = np.inf
            lo, hi = offsets[best], offsets[best + 1]
            np.add.at(x, other[lo:hi], change[lo:hi])
        order[len(self.graded):] = self.ungraded
        return order

    def borda(self, etas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ranking ``borda_ranking`` describes, as ``_weak_ranking``'s order and cuts.

        Within a tie group items stay in index order, which is the order of
        the group in a ``WeakRanking``.
        """
        arrays, n = self.arrays, len(self.items)
        entry_eta = np.repeat(etas, np.diff(arrays.offsets))
        weighted_sum = np.bincount(arrays.item, weights=entry_eta * arrays.rank, minlength=n)
        weight = np.bincount(arrays.item, weights=entry_eta, minlength=n)
        candidates = self.graded
        averages = weighted_sum[candidates] / weight[candidates]
        ordered = np.argsort(averages, kind="stable")
        averages = averages[ordered]
        cuts = np.flatnonzero(averages[1:] != averages[:-1]) + 1
        if self.ungraded.size:
            cuts = np.append(cuts, len(candidates))
        return np.concatenate((candidates[ordered], self.ungraded)), cuts

    def unit(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """The "greedy", "kemenized" (the greedy center after ``kemenize``) or "borda" center at
        reliabilities 1, as ``_weak_ranking``'s order and cuts: computed the first time it is asked
        for and kept, read-only, in the arrays' ``_unit_centers``, so every later fit reads it."""
        kept = self.arrays._unit_centers
        if kind not in kept:
            ones = np.ones(len(self.arrays.graders))
            if kind == "borda":
                kept[kind] = _read_only(*self.borda(ones))
            else:
                order = self.greedy(ones) if kind == "greedy" else self.kemenize(self.unit("greedy")[0], ones)
                kept[kind] = _read_only(order)
        order, *cuts = kept[kind]
        return order, cuts[0] if cuts else self.singletons

    @cached_property
    def _wins(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each item's number of won pairs, and the loser and grader of each pair listed by its
        winning end: item by item, so the pairs of each (winner, loser) in pair order."""
        ends = self.arrays.ends
        wins = np.flatnonzero((ends.key & 1) == 0)
        return np.diff(np.searchsorted(wins, ends.offsets)), ends.other[wins], ends.key[wins] >> 1

    def kemenize(self, order: np.ndarray, etas: np.ndarray) -> np.ndarray:
        """``order`` after the adjacent swaps ``local_kemenization`` describes.

        The weight of a over b sums eta_g over a's winning ends against b in end order, which is pair
        order, grader by grader in feedback order. Where the n x n table of those weights has no more
        cells than there are winning ends, so at most 8 bytes a pair, half the end table, the swaps read
        it (``_table_tests``): one ``np.bincount`` fills it, and each test is then a lookup. Else they
        read the end table (``_end_tests``), whose sweeps cost the pairs, not n^2. Both add each weight's
        terms in the same order, so they take the same swaps.
        """
        tests = self._table_tests if len(self.items) ** 2 <= len(self._wins[1]) else self._end_tests
        return self._swept(order, *tests(etas))

    def _swept(self, order: np.ndarray, swaps, sinks) -> np.ndarray:
        """``order`` after sweeps until one swaps nothing. A sweep tests every neighbour pair up front
        (``swaps(order)``: whether the lower item outweighs the upper); a swap moves the upper item down,
        and it keeps sinking while ``sinks(a, b)``, for its next neighbour b, says b outweighs it; the
        pairs below where it stops are as tested."""
        n, order, changed = len(self.items), order.copy(), True
        while changed:
            changed, resume = False, 0
            for i in np.flatnonzero(swaps(order)).tolist():
                if i < resume:
                    continue
                sinking = order[i]
                while True:
                    order[i], order[i + 1] = order[i + 1], sinking
                    changed = True
                    i += 1
                    if i == n - 1 or not sinks(sinking, order[i + 1]):
                        break
                resume = i + 1
        return order

    def _table_tests(self, etas: np.ndarray):
        """``_swept``'s tests on the table of every winner-over-loser weight, one ``np.bincount`` in end order."""
        n, (counts, loser, grader) = len(self.items), self._wins
        weight = np.bincount(np.repeat(np.arange(n) * n, counts) + loser, etas[grader], n * n).reshape(n, n)
        return (lambda order: weight[order[1:], order[:-1]] > weight[order[:-1], order[1:]],
                lambda a, b: weight[b, a] > weight[a, b])

    def _end_tests(self, etas: np.ndarray):
        """``_swept``'s tests read off the end table: a sweep takes every neighbour pair's two weights
        from one ``np.bincount`` per direction, a sinking item its weights from its own ends."""
        n, (offsets, other, key) = len(self.items), self.arrays.ends
        counts, loser, grader = self._wins
        won, offsets = etas[grader], offsets.tolist()
        position, places = np.empty(n, dtype=np.int32), np.arange(n, dtype=np.int32)

        def swaps(order: np.ndarray) -> np.ndarray:
            position[order] = places
            upper = np.repeat(position, counts)
            gap = position.take(loser)
            gap -= upper
            below, above = gap == 1, gap == -1
            return np.bincount(upper[above] - 1, won[above], n - 1) > np.bincount(upper[below], won[below], n - 1)

        def sinks(a: int, b: int) -> bool:
            lo, hi = offsets[a], offsets[a + 1]
            against = key[lo:hi][other[lo:hi] == b]
            beats, beaten = np.bincount(against & 1, etas[against >> 1], 2)
            return beaten > beats

        return swaps, sinks

    def cost(self, order: np.ndarray, etas: np.ndarray) -> float:
        """``_cost`` of the total order ``order``: its feedback pairs against it, weighted by reliability."""
        return _cost(etas, _against(self.arrays, np.argsort(order)))


def greedy_mle_ranking(data: Dataset, params: MallowsParams | None = None) -> WeakRanking:
    """Total order that greedily maximizes the reliability-weighted likelihood.

    Repeatedly selects from the remaining candidates the item d minimizing

        x_d = sum_g eta_g * (|{d' above d in g}| - |{d' below d in g}|)

    with both counts restricted to remaining candidates in the grader's item
    set; pairs the grader ties contribute to neither count. Ties in x_d are
    broken by lexicographic item id. Items never graded by anyone are
    appended at the end (lexicographically) with a warning. Without
    ``params`` it returns the greedy center the dataset keeps (see
    ``fit_mallows``), computing it if no fit has.
    """
    centers = _Centers(data)
    centers.check_feedback(borda=False)
    order = centers.unit("greedy")[0] if params is None else centers.greedy(centers.etas(params))
    return WeakRanking.from_order(data.items[i] for i in order)


def borda_ranking(data: Dataset, params: MallowsParams | None = None) -> WeakRanking:
    """Items ordered by ascending reliability-weighted average rank.

    Each grader contributes its within-feedback rank of the item, weighted by
    the grader's reliability; equal averages form tie groups. Items graded by
    nobody form a final tie group (with a warning). Without ``params`` it
    returns the Borda center the dataset keeps (see ``fit_mallows``).
    """
    centers = _Centers(data)
    centers.check_feedback(borda=True)
    center = centers.unit("borda") if params is None else centers.borda(centers.etas(params))
    return _weak_ranking(data.items, *center)


def weighted_kendall_cost(ranking: WeakRanking, data: Dataset, params: MallowsParams | None = None) -> float:
    """sum_g eta_g * X_g over the feedback pairs ``ranking`` orders the other way, summed exactly by
    ``_cost``: a ``+g`` fit's ``center_cost`` for its ranking and reliabilities. Pairs with an item
    ``ranking`` leaves out do not count."""
    if not ranking.is_total:
        raise ValidationError("cost is defined for total orders only")
    centers = _Centers(data)
    return _cost(centers.etas(params), _against(centers.arrays, _positions(ranking, data)))


def local_kemenization(ranking: WeakRanking, data: Dataset, params: MallowsParams | None = None) -> WeakRanking:
    """Improve a total order by adjacent swaps until locally optimal.

    A swap of neighbors (a above b) is taken iff it strictly decreases the
    reliability-weighted count of violated feedback pairs, i.e. iff the
    weight preferring b over a exceeds the weight preferring a over b.
    Each pair can flip at most once, so the sweep terminates.
    """
    if not ranking.is_total:
        raise ValidationError("local improvement requires a total order")
    if ranking.items != set(data.items):
        raise ValidationError("ranking must cover exactly the dataset's items")
    centers = _Centers(data)
    order = centers.kemenize(np.argsort(_positions(ranking, data)), centers.etas(params))
    return WeakRanking.from_order(data.items[i] for i in order)


# A Newton step on ln(eta) this short ends a search, and is taken.
_NEWTON_STEP = 1e-9


def _reliability_slopes(u: np.ndarray, x: np.ndarray, coeff: np.ndarray, prior: ReliabilityPrior):
    """G = df/du = shape - 1 - eta*(X + 1/scale) + sum_i A_i*t_i*r_i and G' = dG/du =
    G - (shape - 1) - sum_i A_i*t_i^2*r_i*(1 + r_i) of the problems of ``_newton_etas``
    at u = ln(eta), where t_i = i*eta and r_i = 1/(e^t_i - 1), 0 where e^-t_i underflows.
    Both sums run over i in order (``sum`` would add 8 or more terms pairwise), so the zeros that
    pad ``coeff`` to a wider class change no eta."""
    eta = np.exp(u)
    t = eta[:, None] * np.arange(1, coeff.shape[1] + 1)
    r = np.exp(-t) / -np.expm1(-t)
    tr = coeff * t * r
    linear = eta * (x + 1.0 / prior.scale)
    slope, curvature = np.cumsum(tr, axis=1)[:, -1], np.cumsum(tr * (1.0 - t * (1.0 + r)), axis=1)[:, -1]
    return prior.shape - 1.0 - linear + slope, curvature - linear


def _newton_etas(x: np.ndarray, coeff: np.ndarray, prior: ReliabilityPrior) -> np.ndarray:
    """For each X = ``x[k]``, A = ``coeff[k]``, the maximizer in [1e-3, 1e3] of
    f(eta) = (shape-1)*ln(eta) - eta/scale - eta*X + sum_i A_i*ln(1 - e^(-i*eta)).

    f is concave (its likelihood term is minus the log of a q-multinomial
    coefficient, a partition function in -eta), so G = df/d ln(eta) changes
    sign once: G at the bounds clamps the optima at or beyond them, and
    without pairs or ties (X = 0, A = 0) f peaks at the prior mode. Every
    other problem runs safeguarded Newton on G in ln(eta) from eta = 1
    (Brent 1973), bisecting its bracket where a step would leave it, and
    stops on its own, so its answer does not depend on the batch.
    """
    low, high = (math.log(b) for b in _ETA_BOUNDS)
    n = len(x)
    ends, _ = _reliability_slopes(np.repeat([low, high], n), np.tile(x, 2), np.tile(coeff, (2, 1)), prior)
    result = np.where(ends[:n] <= 0.0, *_ETA_BOUNDS)
    free = (x == 0) & ~coeff.any(axis=1)
    result[free] = prior.mode
    active = (ends[:n] > 0.0) & (ends[n:] < 0.0) & ~free
    lo, hi, u, done = np.full(n, low), np.full(n, high), np.zeros(n), ~active
    while not done.all():
        g, dg = _reliability_slopes(u, x, coeff, prior)
        lo, hi, newton = np.where(g > 0.0, u, lo), np.where(g < 0.0, u, hi), u - g / dg
        converged = (g == 0.0) | ((dg < 0.0) & (np.abs(g) <= -_NEWTON_STEP * dg))
        step = np.where(converged | (dg < 0.0) & (newton > lo) & (newton < hi), newton, (lo + hi) / 2.0)
        u = np.where(done, u, step)  # a finished problem keeps its u
        done |= converged | (hi - lo <= _NEWTON_STEP)
    return np.clip(np.where(active, np.exp(u), result), *_ETA_BOUNDS)


def _reliabilities(arrays: FeedbackArrays, position: np.ndarray, prior: ReliabilityPrior,
                   solved: dict[bytes, np.ndarray] | None = None):
    """Each grader's MAP reliability against the center at ``position``, in feedback order, and its X_g.

    A grader's problem is fixed by its X_g and its tie pattern (``FeedbackArrays._tie_patterns``).
    ``solved``, by default the arrays' kept table under ``prior``, holds per pattern the η of each X from
    0 to the pattern's strict pairs, NaN until solved. A round gathers its graders' η from it and solves
    what is missing in one batch. Into the kept table it solves every X of every pattern where they are
    no more than the graders, so later rounds and grader subsets find them all; otherwise, or into a
    table passed in, only the X met, so a batch never holds more problems than there are graders. Each
    problem of ``_newton_etas`` stops on its own, so a kept η is the one a fresh solve gives.
    """
    x_g = _against(arrays, position)
    kept = solved is None
    solved = arrays._solved_reliabilities.setdefault(prior, {}) if kept else solved
    keys, counts, first = arrays._tie_patterns
    table = list(map(solved.get, keys))
    for r in [r for r, etas in enumerate(table) if etas is None]:
        table[r] = solved[keys[r]] = np.full(counts[r], np.nan)
    flat, slots = np.concatenate([*table, np.empty(0)]), first + x_g
    etas = flat[slots]
    if np.isnan(etas).any():
        todo = np.isnan(flat)
        if not kept or len(flat) > len(slots):
            todo &= np.bincount(slots, minlength=len(flat)) > 0
        todo = np.flatnonzero(todo)
        starts = np.cumsum(counts) - counts
        rows = np.searchsorted(starts, todo, side="right") - 1
        flat[todo] = _newton_etas((todo - starts[rows]).astype(float), arrays.coeff[rows], prior)
        for r in set(rows.tolist()):
            table[r][:] = flat[starts[r]:starts[r] + counts[r]]
        etas = flat[slots]
    return etas, x_g


def fit_reliabilities(
    data: Dataset,
    center: WeakRanking,
    prior: ReliabilityPrior | None = None,
) -> dict[str, float]:
    """Per-grader MAP reliabilities given a fixed total-order center.

    Maximizes (shape-1)*ln(eta) - eta/scale + log-likelihood of the grader's
    feedback for each grader independently over [1e-3, 1e3], by safeguarded
    Newton on ln(eta) until a step is at most 1e-9; optima at or beyond a
    bound are clamped to it. Graders without feedback get the prior mode,
    clamped likewise.

    The likelihood term reduces to -eta*X_g + sum_i A_i(g) * ln(1 - e^(-i*eta))
    where X_g counts cross-group pairs against the center and A_i(g) =
    (number of tie groups of size >= i) - 1 for i <= |D_g|; the normalizer
    denominators cancel because group sizes sum to |D_g|. Graders with equal
    (X_g, A(g)) share one solve. Every call solves afresh, and keeps nothing
    with the dataset's arrays.
    """
    prior = prior or ReliabilityPrior()
    if not center.is_total:
        raise ValidationError("center must be a total order")
    arrays = data.feedback_arrays
    position = _positions(center, data)
    unranked = position[arrays.item] < 0
    if unranked.any():
        g = int(np.searchsorted(arrays.offsets, np.argmax(unranked), side="right")) - 1
        entries = slice(arrays.offsets[g], arrays.offsets[g + 1])
        missing = sorted(data.items[i] for i in arrays.item[entries][unranked[entries]])
        raise ValidationError(f"center does not rank items: {missing}")
    return prior._by_grader(data.graders, arrays.graders, _reliabilities(arrays, position, prior, {})[0])


def fit_mallows(
    data: Dataset,
    *,
    use_borda: bool = False,
    kemenize: bool = False,
    with_reliability: bool = False,
    iterations: int = 10,
    reliability_prior: ReliabilityPrior | None = None,
) -> Estimate:
    """Aggregate ordinal feedback with the permutation-noise model family.

    The center is the greedy likelihood ranking (or the weighted-average-rank
    ranking when ``use_borda``), optionally polished by local adjacent-swap
    improvement on the end table ``FeedbackArrays.ends`` (``kemenize``, greedy
    center only), all at reliabilities equal to 1. A plain fit returns it,
    with the ``family`` and ``kemenized`` it used as ``metadata``. With
    ``with_reliability`` that center starts rounds that re-estimate the center
    and per-grader reliabilities alternately. Each round fits the
    reliabilities exactly against the center, a Borda center's ties broken in
    id order, the order its tie groups list. Given them, the center enters the
    joint posterior only through its cost sum_g eta_g * X_g, so the round then
    takes the center they give (its ties broken the same way) only if it costs
    less, or with ``kemenize`` the old center after local
    improvement; the first round that finds no cheaper center keeps the old
    one and ends the fit. ``metadata`` records the ``rounds`` run (at most
    ``iterations``), whether the last found no cheaper center
    (``converged``), the cost of the center each round kept (``center_cost``,
    summed exactly: a converged fit's last is ``weighted_kendall_cost`` of its
    ranking under its reliabilities) and the largest change of log(eta) in
    each round, the first against all ones (``reliability_change``).

    The center at reliabilities 1 is computed once per compiled dataset: the
    first fit that needs it keeps it, read-only, with ``data.feedback_arrays``
    (at most three orders of the n items, 8n bytes each, plus the Borda cuts),
    and every later fit of the six variants reads it from there, as do
    ``greedy_mle_ranking`` and ``borda_ranking`` called without ``params``.
    The reliabilities are kept there too, per ``reliability_prior``, tie
    pattern and X, and the grader subsets the protocols gather from the
    dataset read and add to them: a round solves only what no earlier round
    or fit solved, and gets the η a fresh solve would give. The first round
    solves every X of every pattern where that takes no more problems than
    there are graders, so on such a dataset later rounds, fits and subsets
    whose longest ranking is as long solve nothing. ``fit_reliabilities``
    solves afresh and keeps nothing.
    """
    if use_borda and kemenize:
        raise ValidationError("local improvement applies to the greedy variant only")
    _check_iterations(iterations)
    metadata: dict = {
        "family": "borda" if use_borda else "greedy",
        "kemenized": kemenize,
    }
    centers = _Centers(data)
    centers.check_feedback(use_borda)
    singletons = centers.singletons

    def center_for(etas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if use_borda:
            return centers.borda(etas)
        order = centers.greedy(etas)
        return (centers.kemenize(order, etas) if kemenize else order), singletons

    etas = np.ones(len(centers.arrays.graders))
    order, cuts = centers.unit("borda" if use_borda else "kemenized" if kemenize else "greedy")
    if not with_reliability:
        return Estimate(ranking=_weak_ranking(data.items, order, cuts), metadata=metadata)

    prior = reliability_prior or ReliabilityPrior()
    metadata["reliability_iterations"] = iterations
    changes, costs, converged = [], [], False
    total = order
    while len(changes) < iterations and not converged:
        last = etas
        etas, x_g = _reliabilities(centers.arrays, np.argsort(total), prior)
        changes.append(float(np.abs(np.log(etas) - np.log(last)).max()))
        cost = _cost(etas, x_g)
        order, cuts = center_for(etas)
        new_cost = centers.cost(order, etas)
        # Every swap local improvement makes lowers the cost, so the old center polished is a fallback.
        if kemenize and not new_cost < cost:
            order = centers.kemenize(total, etas)
            new_cost = centers.cost(order, etas)
        converged = not new_cost < cost
        total, cost = (total, cost) if converged else (order, new_cost)
        costs.append(cost)
    if converged:
        order, cuts = total, singletons

    reliabilities = prior._by_grader(data.graders, centers.arrays.graders, etas) if changes else None
    metadata.update(rounds=len(changes), converged=converged, center_cost=costs, reliability_change=changes)
    return Estimate(ranking=_weak_ranking(data.items, order, cuts), reliabilities=reliabilities, metadata=metadata)
