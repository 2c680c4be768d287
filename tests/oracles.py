"""Slow, independent reference implementations used as test oracles.

Everything here works on plain lists/tuples/dicts and enumerates by brute
force, deliberately sharing no code with the package under test; the
weighted Kemeny optimum, an integer program for ``scipy.optimize.milp``,
is the one that does not enumerate. The exceptions are the last sections: helpers on the package's data types that
only the tests need, the package's earlier dict-loop estimators, kept as
exact references for the compiled-array ones, its earlier per-grader
synthetic-data loops, kept as exact references for the array ones, its
earlier grader resampling and cardinal walk, kept as exact references for
the gathered arrays, and its full-batch likelihood kernels as they were
before they computed in work arrays (and the listwise one in its old row
layout), and its L-BFGS fits as they were
before they shared one objective, kept as bit-exact references, its pair
layout and per-grader SVRG as they were before the pairwise models moved
onto the blocked likelihood, its
two-pass JSON writer and its float writer, kept as the byte references for
the one-pass ones, its feedback compiler as it was before it
deduplicated tie rows by lexsort, and its greedy Mallows center as it
was before the strict pairs were listed item by item, kept as the
bit-exact reference for the end table, and its JSON dataset reader as
it was before it compiled the rankings in bulk, record by record, and its
cardinal CSV reader as it was before it checked the rows in bulk, row by
row, kept as the references for the parsed datasets and the messages of
their refusals.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import warnings
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np
from scipy.special import expit, log_ndtr, ndtr

from opg.config import _ETA_BOUNDS, ReliabilityPrior, ScorePrior
from opg.data import Dataset, Estimate, FeedbackArrays, GraderFeedback, _distinct_rows
from opg.errors import DataFormatError, EnumerationCapError, ValidationError
from opg.experiments import CurvePoint, ExperimentReport
from opg.mallows import MallowsParams, _check_eta, _newton_etas, greedy_mle_ranking
from opg.rankings import WeakRanking, ranking_from_scores
from opg.scoremodels import (
    _GRAD_TOLERANCE,
    _LOG_SQRT_2PI,
    _MAX_STEPS,
    SCORE_MODELS,
    Objective,
    _BlockBatch,
    _ProbitBatch,
    _lbfgs,
    _prepare,
)
from opg.synth import MallowsGraders, SynthConfig, _pad_ids, _prevailing_items_per_grader, _to_scale


def inversions(order: list[str], reference: list[str]) -> int:
    """Pairs ordered oppositely by the two total orders."""
    pos = {d: i for i, d in enumerate(reference)}
    count = 0
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if pos[order[i]] > pos[order[j]]:
                count += 1
    return count


def consistent_with_weak(order: list[str], groups: list[list[str]]) -> bool:
    """True if the total order respects every strict pair of the weak ranking."""
    level = {d: gi for gi, group in enumerate(groups) for d in group}
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if level[order[i]] > level[order[j]]:
                return False
    return True


def mallows_normalizer_brute(eta: float, k: int) -> float:
    items = [str(i) for i in range(k)]
    return sum(
        math.exp(-eta * inversions(list(perm), items)) for perm in itertools.permutations(items)
    )


def mallows_likelihood_brute(center: list[str], groups: list[list[str]], eta: float) -> float:
    """P(observed weak ranking | center) by full enumeration."""
    numerator = 0.0
    denominator = 0.0
    for perm in itertools.permutations(center):
        w = math.exp(-eta * inversions(list(perm), center))
        denominator += w
        if consistent_with_weak(list(perm), groups):
            numerator += w
    return numerator / denominator


def weighted_disagreements(order: list[str], groups: list[list[str]]) -> int:
    """Strict pairs of the weak ranking that the total order inverts."""
    level = {d: gi for gi, group in enumerate(groups) for d in group}
    pos = {d: i for i, d in enumerate(order)}
    count = 0
    items = sorted(level)
    for a, b in itertools.combinations(items, 2):
        if level[a] == level[b]:
            continue
        better, worse = (a, b) if level[a] < level[b] else (b, a)
        if pos[better] > pos[worse]:
            count += 1
    return count


def kemeny_cost(order: list[str], feedbacks: list[tuple[list[list[str]], float]]) -> float:
    """Total reliability-weighted disagreement of a candidate total order."""
    total = 0.0
    for groups, eta in feedbacks:
        sub = [d for d in order if any(d in g for g in groups)]
        total += eta * weighted_disagreements(sub, groups)
    return total


def exhaustive_kemeny(
    items: list[str], feedbacks: list[tuple[list[list[str]], float]]
) -> tuple[list[str], float]:
    """Best total order and its cost by trying all permutations."""
    best_order: list[str] | None = None
    best_cost = math.inf
    for perm in itertools.permutations(sorted(items)):
        cost = kemeny_cost(list(perm), feedbacks)
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_order = list(perm)
    assert best_order is not None
    return best_order, best_cost


def pair_weight_matrix(items: list[str], feedbacks: list[tuple[list[list[str]], float]]) -> np.ndarray:
    """w[a, b]: the reliability summed over the graders who rank a strictly above b, over sorted ``items``."""
    index = {d: i for i, d in enumerate(sorted(items))}
    w = np.zeros((len(index), len(index)))
    for groups, eta in feedbacks:
        for k, better in enumerate(groups):
            for worse in groups[k + 1:]:
                for a, b in itertools.product(better, worse):
                    w[index[a], index[b]] += eta
    return w


def kemeny_optimum(
    items: list[str], feedbacks: list[tuple[list[list[str]], float]]
) -> tuple[list[str], float]:
    """A best total order and its cost, from the integer program over x_ab = [a above b] for a < b,
    with 0 <= x_ab + x_bc - x_ac <= 1 on every triple a < b < c (Conitzer, Davenport & Kalagnanam
    2006), solved exactly by ``scipy.optimize.milp`` on a sparse matrix: one ranged row, three
    non-zeros, per triple."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    if len(items) < 3:
        return exhaustive_kemeny(items, feedbacks)
    items = sorted(items)
    n, w = len(items), pair_weight_matrix(items, feedbacks)
    first, second = np.triu_indices(n, 1)
    var = np.zeros((n, n), dtype=np.intp)
    var[first, second] = np.arange(len(first))
    a, b, c = np.array(list(itertools.combinations(range(n), 3))).T
    rows = np.repeat(np.arange(len(a)), 3)
    cols = np.stack((var[a, b], var[b, c], var[a, c]), axis=1).ravel()
    triangles = coo_array((np.tile([1.0, 1.0, -1.0], len(a)), (rows, cols)), shape=(len(a), len(first)))
    # x_ab = 1 costs w[b, a], the weight against a above b; x_ab = 0 costs w[a, b].
    result = milp(w[second, first] - w[first, second], integrality=np.ones(len(first)), bounds=Bounds(0, 1),
                  constraints=LinearConstraint(triangles.tocsr(), 0, 1), options={"mip_rel_gap": 0.0})
    assert result.success, result.message
    above = np.zeros((n, n))
    above[first, second] = np.round(result.x)
    above[second, first] = 1 - above[first, second]
    order = [items[i] for i in np.argsort(-above.sum(axis=1), kind="stable")]
    cost = sum(w[later, earlier] for earlier, later in itertools.combinations(map(items.index, order), 2))
    assert math.isclose(cost, result.fun + w[first, second].sum(), rel_tol=1e-9, abs_tol=1e-9)
    return order, cost


def pl_probability_brute(order: list[str], scores: dict[str, float], eta: float) -> float:
    """Sequential-choice probability of the exact total order."""
    remaining = list(order)
    prob = 1.0
    while len(remaining) > 1:
        weights = [math.exp(eta * scores[d]) for d in remaining]
        prob *= weights[0] / sum(weights)
        remaining = remaining[1:]
    return prob


def mals_cost(order: list[str], scores: dict[str, float]) -> float:
    """Score-gap cost: every pair the order inverts costs the score gap."""
    total = 0.0
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            gap = scores[order[j]] - scores[order[i]]
            if gap > 0:
                total += gap
    return total


def mals_likelihood_brute(groups: list[list[str]], scores: dict[str, float], eta: float) -> float:
    items = sorted(d for g in groups for d in g)
    numerator = 0.0
    denominator = 0.0
    for perm in itertools.permutations(items):
        w = math.exp(-eta * mals_cost(list(perm), scores))
        denominator += w
        if consistent_with_weak(list(perm), groups):
            numerator += w
    return numerator / denominator


def tau_kt_brute(
    target_groups: list[list[str]], predicted_groups: list[list[str]]
) -> float:
    """Strict target pairs: 1 if inverted, 1/2 if predicted ties them."""
    tlevel = {d: gi for gi, g in enumerate(target_groups) for d in g}
    plevel = {d: gi for gi, g in enumerate(predicted_groups) for d in g}
    total = 0.0
    for a, b in itertools.combinations(sorted(tlevel), 2):
        if tlevel[a] == tlevel[b]:
            continue
        better, worse = (a, b) if tlevel[a] < tlevel[b] else (b, a)
        if plevel[better] > plevel[worse]:
            total += 1.0
        elif plevel[better] == plevel[worse]:
            total += 0.5
    return total


def finite_difference(fn, x0: float, h: float = 1e-5) -> float:
    return (fn(x0 + h) - fn(x0 - h)) / (2 * h)


# ---------------------------------------------------------------------------
# Helpers on the package's data types that only the tests use.


def bt_pair_probability(s_i: float, s_j: float, eta: float = 1.0) -> float:
    """Logistic probability that the item scored ``s_i`` beats the one scored ``s_j``."""
    _check_eta(eta)
    return float(expit(eta * (s_i - s_j)))


def thurstone_pair_probability(s_i: float, s_j: float, eta: float = 1.0) -> float:
    """Probit probability that the item scored ``s_i`` beats the one scored ``s_j``.

    Each item's observed value is normal with variance 1/2 around its score
    (variance 1 for the difference), scaled by the grader reliability.
    """
    _check_eta(eta)
    return float(ndtr(math.sqrt(eta) * (s_i - s_j)))


def mals_log_likelihood(
    feedback: GraderFeedback,
    scores: Mapping[str, float],
    eta: float = 1.0,
) -> float:
    """Log probability of one grader's weak ranking given latent scores.

    Probability of a weak ranking is the sum of exp(-eta * weighted
    inversions against the score order) over its consistent total orders,
    normalized over all total orders of the grader's items. Exact; the
    grader's item count must not exceed ``ENUMERATION_CAP``.
    """
    _check_eta(eta)
    data = Dataset.from_feedback([feedback])
    batch = _prepare("mals", data)
    missing = [x for x in data.items if x not in scores]
    if missing:
        raise ValidationError(f"scores missing for items: {missing}")
    svec = np.array([float(scores[x]) for x in data.items])
    nll, _, _ = batch.evaluate(svec, np.array([eta]))
    return -float(nll[0])


class _PreferencePairBase(NamedTuple):
    better: str
    worse: str


class PreferencePair(_PreferencePairBase):
    """A strict pairwise preference: ``better`` is ranked above ``worse``."""

    __slots__ = ()

    def __new__(cls, better: str, worse: str):
        if better == worse:
            raise ValidationError(
                f"preference pair must relate two distinct items, got {better!r} twice"
            )
        return super().__new__(cls, better, worse)


def extract_preferences(ranking: WeakRanking) -> set[PreferencePair]:
    """All strict pairwise preferences implied by a weak ranking.

    Pairs are taken across tie groups only; tied items induce no preference.
    """
    pairs: set[PreferencePair] = set()
    groups = ranking.groups
    for i, better_group in enumerate(groups):
        for worse_group in groups[i + 1:]:
            for a in better_group:
                for b in worse_group:
                    pairs.add(PreferencePair(a, b))
    return pairs


def kendall_tau_distance(r1: WeakRanking, r2: WeakRanking) -> int:
    """Number of discordant pairs between two total orders over the same items."""
    if not (r1.is_total and r2.is_total):
        raise ValidationError("kendall_tau_distance is defined for total orders only")
    if r1.items != r2.items:
        raise ValidationError("rankings must cover the same item set")
    pos2 = {item: i for i, item in enumerate(r2.order())}
    seq = np.fromiter((pos2[x] for x in r1.order()), dtype=np.int64, count=len(r1))
    discordant = seq[:, None] > seq[None, :]
    return int(np.triu(discordant, k=1).sum())


def feedback_map(data: Dataset) -> dict[str, GraderFeedback]:
    """Each grader's feedback, by grader id."""
    return {fb.grader: fb for fb in data.feedback}


def score_weighted_kt_distance(
    r1: WeakRanking, r2: WeakRanking, scores: Mapping[str, float]
) -> float:
    """Sum of score gaps over pairs that ``r2`` orders against ``r1``.

    ``r1`` must be a total order consistent with ``scores`` (non-increasing
    along the order), so every counted gap is non-negative.
    """
    if not (r1.is_total and r2.is_total):
        raise ValidationError("score_weighted_kt_distance is defined for total orders only")
    if r1.items != r2.items:
        raise ValidationError("rankings must cover the same item set")
    order1 = r1.order()
    missing = [x for x in order1 if x not in scores]
    if missing:
        raise ValidationError(f"scores missing for items: {missing}")
    svec = np.array([scores[x] for x in order1], dtype=float)
    if not np.all(np.isfinite(svec)):
        raise ValidationError("scores must be finite")
    if np.any(np.diff(svec) > 0):
        raise ValidationError("r1 must be sorted consistently with the scores")
    pos2 = {item: i for i, item in enumerate(r2.order())}
    seq = np.fromiter((pos2[x] for x in order1), dtype=np.int64, count=len(order1))
    discordant = np.triu(seq[:, None] > seq[None, :], k=1)
    gaps = svec[:, None] - svec[None, :]
    return float((gaps * discordant).sum())


def consistent_total_orders(ranking: WeakRanking) -> Iterator[tuple[str, ...]]:
    """All total orders obtained by permuting items within each tie group."""
    per_group = [itertools.permutations(g) for g in ranking.groups]
    for combo in itertools.product(*per_group):
        yield tuple(itertools.chain.from_iterable(combo))


def experiment_report_from_dict(payload: dict[str, Any]) -> ExperimentReport:
    """Inverse of ``ExperimentReport.to_dict``."""
    curve = payload.get("curve")
    runtimes = payload.get("runtimes")
    return ExperimentReport(
        experiment=payload["experiment"],
        method=payload["method"],
        seed=payload["seed"],
        params=dict(payload.get("params", {})),
        ek_mean=payload.get("ek_mean"),
        ek_std=payload.get("ek_std"),
        curve=tuple(CurvePoint(p["level"], p["ek_mean"], p["ek_std"]) for p in curve)
        if curve is not None
        else None,
        identification_rate=payload.get("identification_rate"),
        deltas=tuple(payload["deltas"]) if payload.get("deltas") is not None else None,
        runtimes={k: (v[0], v[1]) for k, v in runtimes.items()}
        if runtimes is not None
        else None,
    )


# ---------------------------------------------------------------------------
# The earlier dict-loop implementation of the Mallows family, kept verbatim
# (renamed dict_*) so the compiled-array one in opg.mallows can be held to
# exactly equal answers. These use the package's data types.


def dict_cross_group_disagreements(center_rank: Mapping[str, int], fb: WeakRanking) -> int:
    """Count cross-group pairs of ``fb`` that the center orders the other way."""
    x = 0
    groups = fb.groups
    for i, better_group in enumerate(groups):
        for worse_group in groups[i + 1:]:
            for a in better_group:
                for b in worse_group:
                    if center_rank[a] > center_rank[b]:
                        x += 1
    return x


def dict_ordinal_feedback(data: Dataset) -> list[tuple[WeakRanking, float]]:
    out = []
    for fb in data.feedback:
        if fb.ordinal is None:
            raise ValidationError(f"grader {fb.grader!r} has no ordinal feedback")
        out.append((fb.grader, fb.ordinal))
    return out


def dict_greedy_mle_ranking(data: Dataset, params: MallowsParams | None = None) -> WeakRanking:
    """Total order that greedily maximizes the reliability-weighted likelihood.

    Repeatedly selects from the remaining candidates the item d minimizing

        x_d = sum_g eta_g * (|{d' above d in g}| - |{d' below d in g}|)

    with both counts restricted to remaining candidates in the grader's item
    set; pairs the grader ties contribute to neither count. Ties in x_d are
    broken by lexicographic item id. Items never graded by anyone are
    appended at the end (lexicographically) with a warning.
    """
    params = params or MallowsParams()
    if not data.items:
        raise ValidationError("dataset has no items")
    if not data.feedback:
        raise ValidationError("dataset has no feedback")
    feedback = dict_ordinal_feedback(data)

    graded: set[str] = set()
    for _, fb in feedback:
        graded.update(fb.items)
    ungraded = sorted(set(data.items) - graded)
    if ungraded:
        warnings.warn(f"items never graded by anyone are ranked last: {ungraded}", stacklevel=2)

    grader_ranks: list[dict[str, int]] = []
    etas: list[float] = []
    by_item: dict[str, list[int]] = {d: [] for d in graded}
    for gi, (grader, fb) in enumerate(feedback):
        ranks = fb.ranks()
        grader_ranks.append(ranks)
        etas.append(params.eta_for(grader))
        for d in ranks:
            by_item[d].append(gi)

    x = {d: 0.0 for d in graded}
    for gi, ranks in enumerate(grader_ranks):
        eta = etas[gi]
        items = list(ranks)
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                if ranks[a] < ranks[b]:
                    x[b] += eta
                    x[a] -= eta
                elif ranks[a] > ranks[b]:
                    x[a] += eta
                    x[b] -= eta

    active = set(graded)
    order: list[str] = []
    while active:
        best = min(active, key=lambda d: (x[d], d))
        order.append(best)
        active.remove(best)
        rank_best_by_grader = [(gi, grader_ranks[gi][best]) for gi in by_item[best]]
        for gi, rank_best in rank_best_by_grader:
            eta = etas[gi]
            for d, rank_d in grader_ranks[gi].items():
                if d not in active:
                    continue
                if rank_best < rank_d:
                    x[d] -= eta
                elif rank_best > rank_d:
                    x[d] += eta
    order.extend(ungraded)
    return WeakRanking.from_order(order)


def dict_borda_ranking(data: Dataset, params: MallowsParams | None = None) -> WeakRanking:
    """Items ordered by ascending reliability-weighted average rank.

    Each grader contributes its within-feedback rank of the item, weighted by
    the grader's reliability; equal averages form tie groups. Items graded by
    nobody form a final tie group (with a warning).
    """
    params = params or MallowsParams()
    if not data.items:
        raise ValidationError("dataset has no items")
    if not data.feedback:
        raise ValidationError("dataset has no feedback")
    feedback = dict_ordinal_feedback(data)

    weighted_sum: dict[str, float] = {}
    weight: dict[str, float] = {}
    for grader, fb in feedback:
        eta = params.eta_for(grader)
        for d, r in fb.ranks().items():
            weighted_sum[d] = weighted_sum.get(d, 0.0) + eta * r
            weight[d] = weight.get(d, 0.0) + eta
    ungraded = sorted(set(data.items) - weighted_sum.keys())
    if ungraded:
        warnings.warn(f"items never graded by anyone form the last tie group: {ungraded}", stacklevel=2)

    averages = {d: weighted_sum[d] / weight[d] for d in weighted_sum}
    ordered = sorted(averages, key=lambda d: (averages[d], d))
    groups: list[list[str]] = []
    for d in ordered:
        if groups and averages[d] == averages[groups[-1][0]]:
            groups[-1].append(d)
        else:
            groups.append([d])
    if ungraded:
        groups.append(list(ungraded))
    return WeakRanking(groups)


def dict_preference_weights(data: Dataset, params: MallowsParams) -> tuple[list[str], np.ndarray]:
    """Items and the matrix W[a, b] = total reliability preferring a over b."""
    items = sorted(data.items)
    index = {d: i for i, d in enumerate(items)}
    w = np.zeros((len(items), len(items)))
    for grader, fb in dict_ordinal_feedback(data):
        eta = params.eta_for(grader)
        ranks = fb.ranks()
        members = list(ranks)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if ranks[a] < ranks[b]:
                    w[index[a], index[b]] += eta
                elif ranks[a] > ranks[b]:
                    w[index[b], index[a]] += eta
    return items, w


def dict_weighted_kendall_cost(ranking: WeakRanking, data: Dataset, params: MallowsParams | None = None) -> float:
    """sum_g eta_g * X_g, summed exactly by ``math.fsum``, where X_g counts grader g's strict pairs
    that ``ranking`` orders the other way; a pair with an item ``ranking`` leaves out does not count."""
    params = params or MallowsParams()
    if not ranking.is_total:
        raise ValidationError("cost is defined for total orders only")
    position = {d: i for i, d in enumerate(ranking.order())}
    terms = []
    for grader, fb in dict_ordinal_feedback(data):
        ranks = fb.ranks()
        ranked = [d for d in ranks if d in position]
        x = sum(ranks[a] < ranks[b] and position[a] > position[b] for a in ranked for b in ranked)
        terms.append(params.eta_for(grader) * x)
    return math.fsum(terms)


def dict_local_kemenization(ranking: WeakRanking, data: Dataset, params: MallowsParams | None = None) -> WeakRanking:
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
    items, w = dict_preference_weights(data, params)
    index = {d: i for i, d in enumerate(items)}
    order = list(ranking.order())
    changed = True
    while changed:
        changed = False
        for i in range(len(order) - 1):
            a, b = order[i], order[i + 1]
            if w[index[b], index[a]] > w[index[a], index[b]]:
                order[i], order[i + 1] = b, a
                changed = True
    return WeakRanking.from_order(order)


def dict_reliability_problems(
    data: Dataset, center: WeakRanking
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Each grader's reliability problem against a total-order center, by dict loops.

    Returns the graders with ordinal feedback, X_g (cross-group pairs
    against the center) and the rows A_i(g) = (number of tie groups of size
    >= i) - 1 for i <= |D_g|, zero-padded to the most items any grader has.
    """
    if not center.is_total:
        raise ValidationError("center must be a total order")
    feedback = dict_ordinal_feedback(data)
    center_rank = center.ranks()

    graders: list[str] = []
    xs: list[float] = []
    coeff_rows: list[np.ndarray] = []
    mmax = max((len(fb) for _, fb in feedback), default=1)
    for grader, fb in feedback:
        missing = fb.items - center.items
        if missing:
            raise ValidationError(f"center does not rank items: {sorted(missing)}")
        graders.append(grader)
        xs.append(float(dict_cross_group_disagreements(center_rank, fb)))
        sizes = np.array([len(g) for g in fb.groups])
        m = len(fb)
        a = np.zeros(mmax)
        i = np.arange(1, m + 1)
        a[:m] = (sizes[None, :] >= i[:, None]).sum(axis=1) - 1.0
        coeff_rows.append(a)
    return graders, np.array(xs), np.array(coeff_rows)


def dict_fit_reliabilities(
    data: Dataset,
    center: WeakRanking,
    prior: ReliabilityPrior | None = None,
) -> dict[str, float]:
    """Per-grader MAP reliabilities given a fixed total-order center.

    The problems are assembled by ``dict_reliability_problems`` and solved,
    every grader's on its own, by the package's 1-D solver
    ``opg.mallows._newton_etas``. Graders without feedback get the prior
    mode.
    """
    prior = prior or ReliabilityPrior()
    graders, x_vec, coeff = dict_reliability_problems(data, center)
    result = {g: prior.mode for g in data.graders}
    if graders:
        result.update(zip(graders, _newton_etas(x_vec, coeff, prior).tolist()))
    return result


def golden_fit_reliabilities(
    data: Dataset,
    center: WeakRanking,
    prior: ReliabilityPrior | None = None,
) -> dict[str, float]:
    """``dict_fit_reliabilities`` by the earlier golden-section search, a baseline.

    Maximizes (shape-1)*ln(eta) - eta/scale + log-likelihood of the grader's
    feedback for each grader independently, by golden-section search on
    log10(eta) over [-3, 3] (tolerance 1e-6, both interior points evaluated
    afresh every step); the result is clamped to [1e-3, 1e3].

    The likelihood term reduces to -eta*X_g + sum_i A_i(g) * ln(1 - e^(-i*eta))
    where X_g counts cross-group pairs against the center and A_i(g) =
    (number of tie groups of size >= i) - 1 for i <= |D_g|; the normalizer
    denominators cancel because group sizes sum to |D_g|.
    """
    prior = prior or ReliabilityPrior()
    graders, x_vec, coeff = dict_reliability_problems(data, center)
    result = {g: prior.mode for g in data.graders}
    if not graders:
        return result

    irange = np.arange(1, coeff.shape[1] + 1, dtype=float)
    shape, scale = prior.shape, prior.scale

    def objective(z: np.ndarray) -> np.ndarray:
        eta = 10.0**z
        log_terms = np.log(-np.expm1(-eta[:, None] * irange[None, :]))
        ll = -eta * x_vec + (coeff * log_terms).sum(axis=1)
        return (shape - 1.0) * np.log(eta) - eta / scale + ll

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo = np.full(len(graders), -3.0)
    hi = np.full(len(graders), 3.0)
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
    eta_hat = np.clip(10.0 ** ((lo + hi) / 2.0), 1e-3, 1e3)
    for g, eta in zip(graders, eta_hat):
        result[g] = float(eta)
    return result


def dict_center_cost(center: WeakRanking, data: Dataset, params: MallowsParams) -> float:
    """sum_g eta_g * X_g of a total-order center, summed exactly by ``math.fsum``."""
    center_rank = center.ranks()
    return math.fsum(
        params.eta_for(grader) * dict_cross_group_disagreements(center_rank, fb)
        for grader, fb in dict_ordinal_feedback(data)
    )


def dict_fit_mallows(
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
    improvement (``kemenize``, greedy center only). With ``with_reliability``
    the center and per-grader reliabilities are re-estimated alternately for
    ``iterations`` rounds, starting from all reliabilities equal to 1. A
    round takes its new center (a tie group's items in id order) only if it
    costs less than the old one under the round's reliabilities; with
    ``kemenize`` it falls back to the old center after local improvement.
    A round that finds no cheaper center keeps the old one and ends the fit.
    """
    if use_borda and kemenize:
        raise ValidationError("local improvement applies to the greedy variant only")
    prior = reliability_prior or ReliabilityPrior()
    metadata: dict = {
        "family": "borda" if use_borda else "greedy",
        "kemenized": kemenize,
    }

    def center_for(params: MallowsParams) -> WeakRanking:
        if use_borda:
            return dict_borda_ranking(data, params)
        ranking = dict_greedy_mle_ranking(data, params)
        if kemenize:
            ranking = dict_local_kemenization(ranking, data, params)
        return ranking

    def drawn(center: WeakRanking) -> WeakRanking:
        return WeakRanking.from_order(item for group in center.groups for item in group)

    center = center_for(MallowsParams())
    etas: dict[str, float] | None = None
    if with_reliability:
        metadata["reliability_iterations"] = iterations
        costs: list[float] = []
        total_center = drawn(center) if iterations else center
        for _ in range(iterations):
            etas = dict_fit_reliabilities(data, total_center, prior)
            params = MallowsParams(etas)
            cost = dict_center_cost(total_center, data, params)
            center = center_for(params)
            candidate = drawn(center)
            new_cost = dict_center_cost(candidate, data, params)
            if kemenize and not new_cost < cost:
                center = candidate = dict_local_kemenization(total_center, data, params)
                new_cost = dict_center_cost(candidate, data, params)
            if not new_cost < cost:
                center = total_center
                costs.append(cost)
                break
            total_center = candidate
            costs.append(new_cost)
        metadata["center_cost"] = costs
    return Estimate(ranking=center, reliabilities=etas, metadata=metadata)


# ---------------------------------------------------------------------------
# The earlier dict-loop preparation, per-grader objective and SGD loops of
# opg.scoremodels, kept verbatim (renamed dict_*, the inverse-square-root
# step schedule written inline): the full-batch likelihoods must hold the
# same feedback as the per-grader terms and sum to the same objective, and
# every fit must reach an objective no worse than the per-grader SGD. The
# per-grader terms, which the full-batch likelihoods replaced, come first;
# the permutation model's term enumerates every order of a grader's items.

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class _PairTerm:
    """Strict pairwise preferences of one grader under the probit link."""

    __slots__ = ("global_idx", "wl", "ll")

    def __init__(self, global_idx: np.ndarray, wl: np.ndarray, ll: np.ndarray):
        self.global_idx = global_idx
        self.wl = wl
        self.ll = ll

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
        logphi = log_ndtr(z)
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


class _LogisticPairTerm:
    """Strict pairwise preferences of one grader under the logistic link."""

    __slots__ = ("global_idx", "wl", "ll")

    def __init__(self, global_idx: np.ndarray, wl: np.ndarray, ll: np.ndarray):
        self.global_idx = global_idx
        self.wl = wl
        self.ll = ll

    def value_and_grads(
        self, s: np.ndarray, eta: float, need_s: bool, need_eta: bool
    ) -> tuple[float, np.ndarray | None, float | None]:
        m = len(self.global_idx)
        if len(self.wl) == 0:
            return 0.0, (np.zeros(m) if need_s else None), (0.0 if need_eta else None)
        s_local = s[self.global_idx]
        dz = s_local[self.wl] - s_local[self.ll]
        z = eta * dz
        nll = float(np.logaddexp(0.0, -z).sum())
        grad_s = None
        grad_eta = None
        if need_s or need_eta:
            q = expit(-z)
            if need_s:
                grad_s = np.bincount(self.wl, weights=-eta * q, minlength=m) + np.bincount(
                    self.ll, weights=eta * q, minlength=m
                )
            if need_eta:
                grad_eta = -float((dz * q).sum())
        return nll, grad_s, grad_eta


class _ListTerm:
    """One grader's weak ranking under the sequential-choice model, each tie
    group by Efron's approximation, summed choice by choice: the l-th of a
    group's t choices (l = 0..t-1) is made against everything below the group
    plus (t - l) / t of the group. A grader without ties gets the exact
    sequential-choice likelihood."""

    __slots__ = ("global_idx", "groups_local")

    def __init__(self, global_idx: np.ndarray, groups_local: list[np.ndarray]):
        self.global_idx = global_idx
        self.groups_local = groups_local

    def value_and_grads(
        self, s: np.ndarray, eta: float, need_s: bool, need_eta: bool
    ) -> tuple[float, np.ndarray | None, float | None]:
        s_local = s[self.global_idx]
        u = (eta * s_local).tolist()
        nll, gu = 0.0, [0.0] * len(u)
        for gi, group in enumerate(self.groups_local):
            members = group.tolist()
            rest = [j for later in self.groups_local[gi + 1:] for j in later.tolist()]
            t = len(members)
            for l in range(t):
                # (item, its coefficient in this choice's denominator), summed shifted by the largest u.
                terms = [(j, 1.0) for j in rest] + [(j, (t - l) / t) for j in members]
                top = max(u[j] for j, _ in terms)
                weights = [(j, c * math.exp(u[j] - top)) for j, c in terms]
                denominator = sum(w for _, w in weights)
                nll += math.log(denominator) + top
                for j, w in weights:
                    gu[j] += w / denominator
            for j in members:
                nll -= u[j]
                gu[j] -= 1.0
        gu_arr = np.array(gu)
        grad_s = eta * gu_arr if need_s else None
        grad_eta = float(gu_arr @ s_local) if need_eta else None
        return nll, grad_s, grad_eta


_PERM_TABLES: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _perm_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inversion matrix over pairs, pair row index, pair col index) for m items.

    Row r of the inversion matrix flags, for permutation r of (0..m-1), which
    pairs (i, j) with i < j appear inverted (i below j). Tables up to m = 8
    are cached; m = 9 costs roughly 100 MB and is rebuilt on every call.
    """
    cached = _PERM_TABLES.get(m)
    if cached is not None:
        return cached
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int8)
    pos = np.argsort(perms, axis=1).astype(np.int8)
    pi, pj = np.triu_indices(m, k=1)
    inv = (pos[:, pi] > pos[:, pj]).astype(np.float64)
    if m < 9:
        _PERM_TABLES[m] = (inv, pi, pj)
    return inv, pi, pj


def _orders_logsumexp(
    svec: np.ndarray, eta: float, need_s: bool, need_eta: bool
) -> tuple[float, np.ndarray | None, float | None]:
    """log sum over all orders of exp(-eta * weighted inversions), with grads.

    ``svec`` holds the scores sorted descending (the reference order); an
    inverted pair costs its score gap. Returns the log-sum, its gradient with
    respect to ``svec``, and its eta derivative.
    """
    m = len(svec)
    if m <= 1:
        return 0.0, (np.zeros(m) if need_s else None), (0.0 if need_eta else None)
    inv, pi, pj = _perm_tables(m)
    gaps = svec[pi] - svec[pj]
    d = inv @ gaps
    a = -eta * d
    amax = float(a.max())
    w = np.exp(a - amax)
    total = float(w.sum())
    logz = amax + math.log(total)
    grad_s = None
    grad_eta = None
    if need_s or need_eta:
        p = w / total
        if need_s:
            dgap = -eta * (p @ inv)
            grad_s = np.bincount(pi, weights=dgap, minlength=m) - np.bincount(
                pj, weights=dgap, minlength=m
            )
        if need_eta:
            grad_eta = -float(p @ d)
    return logz, grad_s, grad_eta


def _sorted_desc(svals: np.ndarray) -> np.ndarray:
    """Indices sorting scores descending, equal scores by index (deterministic)."""
    return np.lexsort((np.arange(len(svals)), -svals))


class _WeightedPermTerm:
    """One grader's weak ranking under the score-weighted permutation model."""

    __slots__ = ("global_idx", "groups_local")

    def __init__(self, global_idx: np.ndarray, groups_local: list[np.ndarray]):
        self.global_idx = global_idx
        self.groups_local = groups_local

    def value_and_grads(
        self, s: np.ndarray, eta: float, need_s: bool, need_eta: bool
    ) -> tuple[float, np.ndarray | None, float | None]:
        m = len(self.global_idx)
        s_local = s[self.global_idx]
        grad_s = np.zeros(m) if need_s else None
        grad_eta = 0.0 if need_eta else None

        # Denominator: all total orders of the grader's items.
        perm = _sorted_desc(s_local)
        logz_den, g_sorted, de = _orders_logsumexp(s_local[perm], eta, need_s, need_eta)
        nll = logz_den
        if need_s:
            grad_s[perm] += g_sorted
        if need_eta:
            grad_eta += de

        # Numerator: cross-group pairs are fixed by the tie groups; a pair
        # scored against the group order costs its gap in every consistent
        # order. Within-group arrangements enumerate freely per group.
        x = 0.0
        for gi, better in enumerate(self.groups_local):
            for worse in self.groups_local[gi + 1:]:
                v = s_local[worse][:, None] - s_local[better][None, :]
                pos = v > 0.0
                if pos.any():
                    x += float(v[pos].sum())
                    if need_s:
                        np.add.at(grad_s, worse, eta * pos.sum(axis=1).astype(float))
                        np.add.at(grad_s, better, -eta * pos.sum(axis=0).astype(float))
        nll += eta * x
        if need_eta:
            grad_eta += x
        for group in self.groups_local:
            if len(group) < 2:
                continue
            gvals = s_local[group]
            gperm = _sorted_desc(gvals)
            logz_g, gg, de_g = _orders_logsumexp(gvals[gperm], eta, need_s, need_eta)
            nll -= logz_g
            if need_s:
                np.subtract.at(grad_s, group[gperm], gg)
            if need_eta:
                grad_eta -= de_g
        return nll, grad_s, grad_eta


@dataclass
class _TermsPrepared:
    """A model's likelihood over a dataset as one term per grader."""

    model: str
    items: tuple[str, ...]
    graders: tuple[str, ...]
    terms: list[Any]


def _total_objective(
    prep: _TermsPrepared,
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


def _initial_scores(model: str, data: Dataset, prep: _TermsPrepared) -> np.ndarray:
    if model != "mals":
        return np.zeros(len(prep.items))
    # Seed the weighted permutation model with a scaled-down version of the
    # greedy likelihood ranking: equally spaced scores in [-1, 1], times 0.1.
    # The fit, not the seed, places ungraded items, so the seed's warning is
    # not the user's.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="items never graded")
        ranking = greedy_mle_ranking(data)
    n = len(prep.items)
    spaced = np.linspace(1.0, -1.0, n) * 0.1
    index = {item: i for i, item in enumerate(prep.items)}
    s = np.zeros(n)
    for pos, item in enumerate(ranking.order()):
        s[index[item]] = spaced[pos]
    return s


def dict_prepare(model: str, data: Dataset, enumeration_cap: int = 9) -> _TermsPrepared:
    if model not in SCORE_MODELS:
        raise ValidationError(f"unknown score model {model!r}; expected one of {SCORE_MODELS}")
    if not data.feedback:
        raise ValidationError("dataset has no feedback")
    items = tuple(sorted(data.items))
    index = {item: i for i, item in enumerate(items)}
    terms: list[Any] = []
    graders: list[str] = []
    for fb in data.feedback:
        if fb.ordinal is None:
            raise ValidationError(f"grader {fb.grader!r} has no ordinal feedback")
        graders.append(fb.grader)
        member_index = {item: i for i, item in enumerate(fb.items)}
        global_idx = np.array([index[x] for x in fb.items], dtype=np.int64)
        ranking = fb.ordinal
        if model in ("bt", "thur"):
            wl: list[int] = []
            ll: list[int] = []
            groups = ranking.groups
            for gi, better in enumerate(groups):
                for worse in groups[gi + 1:]:
                    for a in better:
                        for b in worse:
                            wl.append(member_index[a])
                            ll.append(member_index[b])
            wl_arr, ll_arr = np.array(wl, dtype=np.int64), np.array(ll, dtype=np.int64)
            if model == "thur":
                terms.append(_PairTerm(global_idx, wl_arr, ll_arr))
            else:
                terms.append(_LogisticPairTerm(global_idx, wl_arr, ll_arr))
        else:
            groups_local = [np.array([member_index[x] for x in g], dtype=np.int64) for g in ranking.groups]
            if model == "pl":
                terms.append(_ListTerm(global_idx, groups_local))
                continue
            if len(fb.items) > enumeration_cap:
                raise EnumerationCapError(
                    f"grader {fb.grader!r} graded {len(fb.items)} items, above the exact-enumeration "
                    f"cap {enumeration_cap}; exclude this model or raise the cap"
                )
            terms.append(_WeightedPermTerm(global_idx, groups_local))
    return _TermsPrepared(model=model, items=items, graders=tuple(graders), terms=terms)


def dict_negative_log_posterior(
    model: str,
    data: Dataset,
    scores: Mapping[str, float],
    reliabilities: Mapping[str, float] | None = None,
    *,
    score_prior: ScorePrior | None = None,
    reliability_prior: ReliabilityPrior | None = None,
) -> Objective:
    """``opg.scoremodels.negative_log_posterior`` as a sum over per-grader terms."""
    score_prior = score_prior or ScorePrior()
    prep = dict_prepare(model, data)
    s = np.array([float(scores[x]) for x in prep.items])
    with_rel = reliabilities is not None
    etas = np.array([float(reliabilities[g]) for g in prep.graders]) if with_rel else np.ones(len(prep.graders))
    value = float(((s - score_prior.mean) ** 2).sum()) / (2.0 * score_prior.variance)
    grad_s = (s - score_prior.mean) / score_prior.variance
    grad_eta = np.zeros(len(prep.graders))
    for gi, term in enumerate(prep.terms):
        nll, gs, ge = term.value_and_grads(s, float(etas[gi]), need_s=True, need_eta=with_rel)
        value += nll
        grad_s[term.global_idx] += gs
        if with_rel:
            grad_eta[gi] = ge
    reliability_gradient = None
    if with_rel:
        rprior = reliability_prior or ReliabilityPrior()
        value += float((etas / rprior.scale - (rprior.shape - 1.0) * np.log(etas)).sum())
        grad_eta += 1.0 / rprior.scale - (rprior.shape - 1.0) / etas
        reliability_gradient = {g: float(grad_eta[i]) for i, g in enumerate(prep.graders)}
    return Objective(
        value=value,
        score_gradient={item: float(grad_s[i]) for i, item in enumerate(prep.items)},
        reliability_gradient=reliability_gradient,
    )


def dict_sgd_scores(
    prep: _TermsPrepared,
    s0: np.ndarray,
    etas: np.ndarray,
    max_epochs: int,
    rel_tolerance: float,
    rng: np.random.Generator,
    score_prior: ScorePrior,
    reliability_prior: ReliabilityPrior | None,
) -> np.ndarray:
    s = s0.copy()
    n_terms = len(prep.terms)
    prev = _total_objective(prep, s, etas, score_prior, reliability_prior)
    for epoch in range(1, max_epochs + 1):
        lr = 0.1 / math.sqrt(epoch)
        for gi in rng.permutation(n_terms):
            term = prep.terms[gi]
            _, gs, _ = term.value_and_grads(s, float(etas[gi]), need_s=True, need_eta=False)
            s -= lr * (s - score_prior.mean) / (score_prior.variance * n_terms)
            s[term.global_idx] -= lr * gs
        current = _total_objective(prep, s, etas, score_prior, reliability_prior)
        if abs(current - prev) / max(1.0, abs(prev)) < rel_tolerance:
            break
        prev = current
    return s


# The SGD reliability steps clamp log(eta) to [-this, this]: eta in [1e-3, 1e3].
_LOG_ETA_BOUND = 3.0 * math.log(10.0)


def dict_sgd_reliabilities(
    prep: _TermsPrepared,
    s: np.ndarray,
    etas0: np.ndarray,
    max_epochs: int,
    rel_tolerance: float,
    rng: np.random.Generator,
    score_prior: ScorePrior,
    reliability_prior: ReliabilityPrior,
) -> np.ndarray:
    """Stochastic gradient on log(eta) per grader (positivity is structural)."""
    z = np.log(etas0.copy())
    n_terms = len(prep.terms)
    shape, scale = reliability_prior.shape, reliability_prior.scale
    prev = _total_objective(prep, s, np.exp(z), score_prior, reliability_prior)
    for epoch in range(1, max_epochs + 1):
        lr = 0.1 / math.sqrt(epoch)
        for gi in rng.permutation(n_terms):
            eta = math.exp(z[gi])
            _, _, ge = prep.terms[gi].value_and_grads(s, eta, need_s=False, need_eta=True)
            gz = eta * ge + eta / scale - (shape - 1.0)
            z[gi] = min(max(z[gi] - lr * gz, -_LOG_ETA_BOUND), _LOG_ETA_BOUND)
        current = _total_objective(prep, s, np.exp(z), score_prior, reliability_prior)
        if abs(current - prev) / max(1.0, abs(prev)) < rel_tolerance:
            break
        prev = current
    return np.exp(z)


def dict_fit(
    model: str,
    data: Dataset,
    *,
    seed: int = 0,
    iterations: int = 10,
    max_epochs: int = 500,
    rel_tolerance: float = 1e-6,
    with_reliability: bool = False,
    score_prior: ScorePrior | None = None,
    reliability_prior: ReliabilityPrior | None = None,
    tie_epsilon: float = 1e-9,
    enumeration_cap: int = 9,
) -> Estimate:
    """MAP-fit a score model, optionally alternating with reliability updates.

    The score step runs seeded per-grader stochastic gradient descent from
    zero scores (the weighted permutation model starts from a scaled greedy
    ranking instead). With ``with_reliability``, reliability and score steps
    alternate for ``iterations`` rounds after an initial
    score fit at eta = 1; reliabilities follow gradient steps on log(eta),
    clamped to [1e-3, 1e3].
    """
    score_prior = score_prior or ScorePrior()
    rprior = reliability_prior or ReliabilityPrior()
    rng = np.random.default_rng(seed)
    prep = dict_prepare(model, data, enumeration_cap)

    s = _initial_scores(model, data, prep)
    etas = np.ones(len(prep.graders))
    s = dict_sgd_scores(prep, s, etas, max_epochs, rel_tolerance, rng, score_prior, None)
    reliabilities = None
    if with_reliability:
        for _ in range(iterations):
            etas = dict_sgd_reliabilities(prep, s, etas, max_epochs, rel_tolerance, rng, score_prior, rprior)
            s = dict_sgd_scores(prep, s, etas, max_epochs, rel_tolerance, rng, score_prior, rprior)
        reliabilities = {g: float(etas[i]) for i, g in enumerate(prep.graders)}
    scores = {item: float(s[i]) for i, item in enumerate(prep.items)}
    return Estimate(
        ranking=ranking_from_scores(scores, tie_epsilon),
        scores=scores,
        reliabilities=reliabilities,
        metadata={"model": model + ("+g" if with_reliability else "")},
    )


# ---------------------------------------------------------------------------
# The earlier per-grader set-up loops of opg.synth, kept verbatim (renamed
# *_oracle): a full ``lexsort`` per grader for the assignment, one
# ``rng.choice`` per inserted item for the permutation-noise graders and one
# normal draw per grader for the cardinal and lazy graders. ``simulate`` must
# reproduce them draw for draw, so every seeded dataset stays the same.


def balanced_assignment_oracle(
    items: list[str], graders: list[str], per_grader: int, rng: np.random.Generator
) -> dict[str, tuple[str, ...]]:
    n = len(items)
    if not 1 <= per_grader <= n:
        raise ValidationError(f"per_grader must be in [1, {n}], got {per_grader}")
    counts = np.zeros(n, dtype=np.int64)
    assignment: dict[str, tuple[str, ...]] = {}
    for grader in graders:
        priority = rng.permutation(n)
        order = np.lexsort((priority, counts))
        chosen = np.sort(order[:per_grader])
        counts[chosen] += 1
        assignment[grader] = tuple(items[i] for i in chosen)
    return assignment


def sample_mallows_feedback_oracle(
    truth: WeakRanking, subset: list[str], eta: float, seed: int | np.random.Generator = 0
) -> WeakRanking:
    if not (math.isfinite(eta) and eta > 0):
        raise ValidationError(f"eta must be finite and > 0, got {eta}")
    if not truth.is_total:
        raise ValidationError("truth must be a total order")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    subset_set = set(subset)
    missing = subset_set - truth.items
    if missing:
        raise ValidationError(f"truth does not rank items: {sorted(missing)}")
    reference = [x for x in truth.order() if x in subset_set]
    result: list[str] = []
    for i, item in enumerate(reference, start=1):
        below = (i - 1) - np.arange(i)  # items ending up below each insertion slot
        w = np.exp(-eta * below)
        pos = int(rng.choice(i, p=w / w.sum()))
        result.insert(pos, item)
    return WeakRanking.from_order(result)


def simulate_oracle(cfg: SynthConfig) -> tuple[Dataset, Estimate]:
    rng = np.random.default_rng(cfg.seed)
    items = _pad_ids("item", cfg.n_items)
    graders = _pad_ids("grader", cfg.n_graders)
    truth_vals = rng.normal(cfg.truth.mean, math.sqrt(cfg.truth.var), cfg.n_items)
    truth_scores = {items[i]: float(truth_vals[i]) for i in range(cfg.n_items)}
    truth = Estimate(
        ranking=ranking_from_scores(truth_scores, tie_epsilon=0.0),
        scores=truth_scores,
        metadata={"truth": True, "seed": cfg.seed},
    )
    assignment = balanced_assignment_oracle(items, graders, cfg.items_per_grader, rng)

    feedback: list[GraderFeedback] = []
    if isinstance(cfg.grader_model, MallowsGraders):
        for grader in graders:
            ranking = sample_mallows_feedback_oracle(truth.ranking, assignment[grader], cfg.grader_model.eta, rng)
            feedback.append(GraderFeedback.from_ordinal(grader, ranking))
    else:
        noise_std = 1.0 / math.sqrt(cfg.grader_model.eta)
        biases = rng.normal(0.0, cfg.grader_model.bias_std, cfg.n_graders)
        raw_rows = []
        for gi, grader in enumerate(graders):
            subset = assignment[grader]
            raw = (
                np.array([truth_scores[d] for d in subset])
                + biases[gi]
                + rng.normal(0.0, noise_std, len(subset))
            )
            raw_rows.append(raw)
        flat = _to_scale(np.concatenate(raw_rows))
        pos = 0
        for gi, grader in enumerate(graders):
            subset = assignment[grader]
            grades = {d: float(flat[pos + k]) for k, d in enumerate(subset)}
            pos += len(subset)
            feedback.append(GraderFeedback.from_cardinal(grader, grades))

    data = Dataset(items=tuple(items), graders=tuple(graders), feedback=tuple(feedback))
    if cfg.n_lazy:
        data = add_lazy_graders_oracle(data, cfg.n_lazy, seed=cfg.seed + 1)
    return data, truth


def add_lazy_graders_oracle(data: Dataset, n: int, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    existing = [g for fb in data.feedback if fb.cardinal for g in fb.cardinal.values()]
    grades_arr = np.array(existing)
    mean, std = float(grades_arr.mean()), float(grades_arr.std())
    per_grader = min(_prevailing_items_per_grader(data), len(data.items))

    taken = set(data.graders)
    names: list[str] = []
    k = 0
    while len(names) < n:
        candidate = f"lazy{k:03d}"
        if candidate not in taken:
            names.append(candidate)
        k += 1
    items = list(data.items)
    assignment = balanced_assignment_oracle(items, names, per_grader, rng)
    new_feedback = list(data.feedback)
    for grader in names:
        subset = assignment[grader]
        grades = {d: float(v) for d, v in zip(subset, rng.normal(mean, std, len(subset)))}
        new_feedback.append(GraderFeedback.from_cardinal(grader, grades))
    new_feedback.sort(key=lambda fb: fb.grader)
    return Dataset(
        items=data.items,
        graders=tuple(sorted(set(data.graders) | set(names))),
        feedback=tuple(new_feedback),
        lazy_graders=data.lazy_graders | set(names),
    )


# --- The package's earlier dataset rebuilds, kept as exact references for the gathered arrays ---


def resample_graders_oracle(data: Dataset, rng: np.random.Generator) -> Dataset:
    """Bootstrap resample of graders; duplicate draws get '#k' suffixes."""
    n = len(data.feedback)
    idx = rng.integers(0, n, n)
    seen: Counter[str] = Counter()
    new_feedback: list[GraderFeedback] = []
    lazy: set[str] = set()
    for i in idx:
        fb = data.feedback[int(i)]
        seen[fb.grader] += 1
        name = fb.grader if seen[fb.grader] == 1 else f"{fb.grader}#{seen[fb.grader]}"
        new_feedback.append(dataclasses.replace(fb, grader=name))
        if fb.grader in data.lazy_graders:
            lazy.add(name)
    new_feedback.sort(key=lambda fb: fb.grader)
    return Dataset(
        items=data.items,
        graders=tuple(sorted(fb.grader for fb in new_feedback)),
        feedback=tuple(new_feedback),
        lazy_graders=frozenset(lazy),
    )


def flat_strict_pairs(arrays: FeedbackArrays) -> tuple[np.ndarray, ...]:
    """(winner, loser, grader, incident_offsets, incident), read-only: the strict pairs as
    ``FeedbackArrays.build`` enumerated them over the flat entries, and their incident lists as
    ``FeedbackArrays._assemble`` derived them, before the pairs were listed from the blocks."""
    offsets, item, rank, n = arrays.offsets, arrays.item, arrays.rank, arrays.n_items
    n_graders, n_entries, counts = len(arrays.graders), len(item), np.diff(offsets)

    # Every entry pairs with the entries after it in its grader's slice.
    entry_grader = np.repeat(np.arange(n_graders), counts)
    after = offsets[entry_grader + 1] - np.arange(n_entries) - 1
    first = np.repeat(np.arange(n_entries), after)
    block = np.cumsum(after) - after
    second = first + 1 + np.arange(len(first)) - np.repeat(block, after)
    del after, block
    strict = rank[first] != rank[second]
    first, second = first[strict], second[strict]
    del strict
    winner, loser = item[first], item[second]
    pair_grader = entry_grader[first].astype(np.int32)
    del first, second, entry_grader

    ends = np.stack([winner, loser], axis=1).ravel()
    incident_offsets = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=n))))
    incident = np.argsort(ends, kind="stable").astype(np.int32)
    pairs = (winner, loser, pair_grader, incident_offsets, incident)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def incident_greedy(arrays: FeedbackArrays, etas: np.ndarray) -> np.ndarray:
    """``mallows._Centers.greedy`` as it was before the strict pairs were listed item by item,
    verbatim over ``flat_strict_pairs``: the greedy order of the item indices, ungraded items last."""
    winner, loser, grader, incident_offsets, incident = flat_strict_pairs(arrays)
    n_items = arrays.n_items
    graded = np.bincount(arrays.item, minlength=n_items) > 0
    graded, ungraded = np.flatnonzero(graded), np.flatnonzero(~graded)
    pair_eta = etas[grader]
    # End 2p of pair p is its winner and end 2p + 1 its loser; picking an
    # end's item changes x of the pair's other item by ``change``.
    other = np.stack([loser, winner], axis=1).ravel()
    change = np.stack([-pair_eta, pair_eta], axis=1).ravel()
    del pair_eta
    # So x starts as minus every change: each pair adds eta to its loser, then subtracts it from its winner.
    x = np.bincount(other, weights=-change, minlength=n_items).astype(float, copy=False)
    x[ungraded] = np.inf
    other, change = other[incident], change[incident]
    offsets = incident_offsets.tolist()
    order = np.empty(n_items, dtype=np.intp)
    for k in range(len(graded)):
        # Among equal x, argmin takes the lowest index: the lexicographically first id.
        best = int(x.argmin())
        order[k] = best
        x[best] = np.inf
        lo, hi = offsets[best], offsets[best + 1]
        np.add.at(x, other[lo:hi], change[lo:hi])
    order[len(graded):] = ungraded
    return order


def slots_kemenize(data: Dataset, order: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """``mallows._Centers.kemenize`` as it was before it read the end table, with each neighbour
    pair's weights read from ``dict_preference_weights`` under ``etas``, one per grader in feedback order."""
    n = len(data.items)
    params = MallowsParams(dict(zip(data.feedback_arrays.graders, etas.tolist())))
    items, w = dict_preference_weights(data, params)
    assert tuple(items) == data.items

    def prefers_lower(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        return w[lower, upper] > w[upper, lower]

    order = order.copy()
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
    return order


def dict_cardinal_observations(data: Dataset) -> tuple[list[str], tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """(items, graders, item_idx, grader_idx, grades) for all observations; the graders as a tuple."""
    if not data.feedback:
        raise ValidationError("dataset has no feedback")
    items = sorted(data.items)
    item_index = {d: i for i, d in enumerate(items)}
    graders: list[str] = []
    ii: list[int] = []
    gg: list[int] = []
    yy: list[float] = []
    for fb in data.feedback:
        if fb.cardinal is None:
            raise ValidationError(f"grader {fb.grader!r} has no cardinal feedback")
        gi = len(graders)
        graders.append(fb.grader)
        for d in fb.items:
            ii.append(item_index[d])
            gg.append(gi)
            yy.append(float(fb.cardinal[d]))
    return items, tuple(graders), np.array(ii), np.array(gg), np.array(yy)


# --- full-batch likelihood kernels, allocating every temporary ----------------


def pair_batch_evaluate(
    data: Dataset, probit: bool, s: np.ndarray, etas: np.ndarray, grads: bool = True, need_eta: bool = False
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """``PairBatch.evaluate`` of either link over ``data.feedback_arrays``'s
    strict pairs, each step a fresh array."""
    fa = data.feedback_arrays
    winner, loser, grader = (a.astype(np.intp) for a in flat_strict_pairs(fa)[:3])
    n_items, n_graders = len(data.items), len(fa.graders)
    dz = s[winner] - s[loser]
    scale = (np.sqrt(etas) if probit else etas)[grader]
    z = scale * dz
    if probit:
        log_term = -log_ndtr(z)
        q = np.exp(log_term - 0.5 * z * z - 0.5 * math.log(2.0 * math.pi)) if grads else None
    else:
        e = np.exp(-np.abs(z))
        log_term = np.maximum(-z, 0.0) + np.log1p(e)
        q = np.where(z >= 0.0, e, 1.0) / (1.0 + e) if grads else None
    nll = np.bincount(grader, weights=log_term, minlength=n_graders)
    if not grads:
        return nll, None, None
    w = scale * q
    grad_s = np.bincount(loser, weights=w, minlength=n_items)
    grad_s -= np.bincount(winner, weights=w, minlength=n_items)
    grad_eta = None
    if need_eta:
        grad_eta = -np.bincount(grader, weights=dz * q, minlength=n_graders)
        if probit:
            grad_eta /= 2.0 * np.sqrt(etas)
    return nll, grad_s, grad_eta


def pair_block_evaluate(
    batch: Any, s: np.ndarray, etas: np.ndarray, need_eta: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``_PairwiseBatch.evaluate`` of either link over its blocks, each step a fresh array."""
    nll = np.zeros(batch.n_graders)
    grad_s = np.zeros(batch.n_items)
    grad_eta = np.zeros(batch.n_graders) if need_eta else None
    probit = isinstance(batch, _ProbitBatch)
    scales = np.sqrt(etas) if probit else etas
    for graders, items, first, second, mask, ends, signs in batch.blocks:
        s_items = s[items]
        scale = scales[graders]
        z = (s_items[first] - s_items[second]) * scale
        if probit:
            log_term = -log_ndtr(z)
            q = np.exp(log_term - 0.5 * z * z - 0.5 * math.log(2.0 * math.pi))
        else:
            e = np.exp(-np.abs(z))
            log_term = np.maximum(-z, 0.0) + np.log1p(e)
            q = np.where(z >= 0.0, e, 1.0) / (1.0 + e)
        nll[graders] = (log_term * mask).sum(axis=0)
        gu = (q[ends] * signs).sum(axis=1)
        grad_s += np.bincount(items.ravel(), weights=(scale * gu).ravel(), minlength=batch.n_items)
        if need_eta:
            grad_eta[graders] = (gu * s_items).sum(axis=0)
    if need_eta and probit:
        grad_eta /= 2.0 * scales
    return nll, grad_s, grad_eta


def _logsumexp(t: np.ndarray) -> np.ndarray:
    top = t.max(axis=0)
    return top + np.log(np.exp(t - top).sum(axis=0))


def log_permanent(
    u: np.ndarray, layers: list[tuple[np.ndarray, ...]], log_masks: list[np.ndarray], grads: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """``_log_permanent``: the subset recursion with fresh layers and terms."""
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
        log_p = forward[r - 1][down] + u[members] * w[r - 1] + (back - logz)
        expected += w[r - 1] * (spread @ np.exp(log_p).reshape(-1, n_cols))
        _, _, outside, up, _ = layers[r - 1]
        back = _logsumexp(back[up] + u[outside] * w[r - 1]) + log_masks[r - 1]
    return logz, expected


def choice_block_kernel(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sequential-choice kernel of a (m, G) block without ties, allocating: each column's
    negative log-likelihood and its gradient in u."""
    lse = np.logaddexp.accumulate(u[::-1], axis=0)[::-1]
    return (lse - u).sum(axis=0), np.exp(u + np.logaddexp.accumulate(-lse, axis=0)) - 1.0


def list_batch_evaluate(
    batch: Any, s: np.ndarray, etas: np.ndarray, need_eta: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``_ListBatch.evaluate`` on feedback without ties, in the row layout it had
    before it shared the blocked loop: row r of a block is grader ``graders[r]``'s
    items, best first."""
    nll = np.zeros(batch.n_graders)
    grad_s = np.zeros(batch.n_items)
    grad_eta = np.zeros(batch.n_graders) if need_eta else None
    for graders, items in batch.blocks:
        items = items.T
        s_ord = s[items]
        eta = etas[graders][:, None]
        u = eta * s_ord
        suffix_lse = np.logaddexp.accumulate(u[:, ::-1], axis=1)[:, ::-1]
        nll[graders] = (suffix_lse - u).sum(axis=1)
        gu = np.exp(u + np.logaddexp.accumulate(-suffix_lse, axis=1)) - 1.0
        grad_s += np.bincount(items.ravel(), weights=(eta * gu).ravel(), minlength=batch.n_items)
        if need_eta:
            grad_eta[graders] = (gu * s_ord).sum(axis=1)
    return nll, grad_s, grad_eta


def perm_batch_evaluate(
    batch: Any, s: np.ndarray, etas: np.ndarray, grads: bool = True, need_eta: bool = False
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """``_PermBatch.evaluate`` over ``log_permanent``."""
    nll = np.zeros(batch.n_graders)
    grad_s = np.zeros(batch.n_items) if grads else None
    grad_eta = np.zeros(batch.n_graders) if grads and need_eta else None
    for graders, items, layers, log_masks in batch.blocks:
        s_items = s[items]
        eta = etas[graders]
        u = eta * s_items
        logz, expected = log_permanent(np.hstack((u, u)), layers, log_masks, grads)
        g = len(graders)
        nll[graders] = logz[:g] - logz[g:]
        if not grads:
            continue
        gu = expected[:, :g] - expected[:, g:]
        grad_s += np.bincount(items.ravel(), weights=(eta * gu).ravel(), minlength=batch.n_items)
        if need_eta:
            grad_eta[graders] = (gu * s_items).sum(axis=0)
    return nll, grad_s, grad_eta


# --- the score models' L-BFGS fits, each writing out its own objective ------


def lbfgs_scores(
    batch: _BlockBatch, s0: np.ndarray, etas: np.ndarray, score_prior: ScorePrior
) -> tuple[np.ndarray, int, float, bool]:
    """MAP scores for fixed reliabilities, by ``_lbfgs`` over the whole batch."""
    mean, variance = score_prior.mean, score_prior.variance

    def fun(s: np.ndarray) -> tuple[float, np.ndarray]:
        nll, grad, _ = batch.evaluate(s, etas)
        d = s - mean
        return float(nll.sum()) + float(d @ d) / (2.0 * variance), grad + d / variance

    return _lbfgs(fun, s0)


def lbfgs_joint(
    batch: _BlockBatch,
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


# --- the pair layout, before the pairwise models shared the blocked likelihood --


class PairBatch:
    """``scoremodels._PairBatch`` as it was before the pairwise models moved
    onto the blocked likelihood, verbatim: every grader's strict pairs under
    the logistic link or, with ``probit``, the probit link.

    A pair's probability is sigma(z) or Phi(z) at z = scale * (s_winner -
    s_loser), where the grader's link ``scale`` is eta or sqrt(eta).
    Grader g's pairs are ``pair_offsets[g]:pair_offsets[g + 1]`` and it
    ranked ``counts[g]`` items. ``evaluate`` returns each grader's negative
    log-likelihood, its gradient with respect to the scores (summed over
    graders) and, when asked, with respect to each grader's reliability.
    It computes in ``work``, arrays of one entry per pair that the batch
    allocates once, so that no evaluation maps in fresh pages for
    pair-sized temporaries; the arrays it returns are fresh. Its gathers
    are ``take`` with ``mode="clip"``, since with the default mode ``take``
    writes through a temporary; every index is in range. Only a probit
    batch imports ``scipy.special``, so that no other model pays for
    loading it.
    """

    def __init__(self, arrays: FeedbackArrays, n_items: int, probit: bool = False):
        self.winner, self.loser, self.grader = (a.astype(np.intp) for a in flat_strict_pairs(arrays)[:3])
        self.n_items = n_items
        self.n_graders = len(arrays.graders)
        self.pair_offsets = np.searchsorted(self.grader, np.arange(self.n_graders + 1)).tolist()
        self.counts = np.diff(arrays.offsets)
        self.probit = probit
        if probit:
            from scipy.special import log_ndtr

            self._log_ndtr = log_ndtr
        # The score gaps, the link scales, z, the log terms, q, exp(-|z|) and a
        # scratch array: seven arrays rather than one, so that at paper scale
        # each is small enough for malloc to reuse rather than map afresh.
        self.work = tuple(np.empty(len(self.winner)) for _ in range(7))

    def scale(self, etas: np.ndarray) -> np.ndarray:
        return np.sqrt(etas) if self.probit else etas

    def _terms(
        self,
        z: np.ndarray,
        log_term: np.ndarray | None = None,
        q: np.ndarray | None = None,
        e: np.ndarray | None = None,
        tmp: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each pair's -log P(winner above loser) at ``z`` and q = minus its
        derivative in z, written into ``log_term`` and ``q``, with ``e`` and
        ``tmp`` as scratch (fresh arrays where they are None)."""
        if self.probit:
            log_term = np.negative(self._log_ndtr(z, out=log_term), out=log_term)
            # phi(z) / Phi(z), from the log Phi the nll already has.
            q = np.multiply(0.5, z, out=q)
            q *= z
            np.subtract(log_term, q, out=q)
            q -= _LOG_SQRT_2PI
            return log_term, np.exp(q, out=q)
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

    def slopes(self, s: np.ndarray, scale: np.ndarray | float, pairs: slice = slice(None)) -> np.ndarray:
        """Minus the derivative of each pair's -log P in s_winner - s_loser, for
        the ``pairs`` given, at their link ``scale``."""
        dz = s[self.winner[pairs]] - s[self.loser[pairs]]
        return scale * self._terms(scale * dz)[1]

    def all_slopes(self, s: np.ndarray, pair_scale: np.ndarray) -> np.ndarray:
        """``slopes`` of every pair at its scale in ``pair_scale``, computed in
        ``work``, so they hold until its next use."""
        q = self._all_terms(s, pair_scale)[2]
        return np.multiply(pair_scale, q, out=self.work[0])

    def _all_terms(self, s: np.ndarray, pair_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every pair's score gap and ``_terms`` at its scale in ``pair_scale``, in ``work``."""
        dz, _, z, log_term, q, e, tmp = self.work
        np.subtract(s.take(self.winner, out=dz, mode="clip"), s.take(self.loser, out=tmp, mode="clip"), out=dz)
        return (dz, *self._terms(np.multiply(pair_scale, dz, out=z), log_term, q, e, tmp))

    def scatter(self, w: np.ndarray) -> np.ndarray:
        """The score gradient of pair slopes ``w`` (one per pair)."""
        grad_s = np.bincount(self.loser, weights=w, minlength=self.n_items)
        grad_s -= np.bincount(self.winner, weights=w, minlength=self.n_items)
        return grad_s

    def evaluate(
        self, s: np.ndarray, etas: np.ndarray, need_eta: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        scale, tmp = self.work[1], self.work[6]
        dz, log_term, q = self._all_terms(s, self.scale(etas).take(self.grader, out=scale, mode="clip"))
        nll = np.bincount(self.grader, weights=log_term, minlength=self.n_graders)
        grad_s = self.scatter(np.multiply(scale, q, out=tmp))
        grad_eta = None
        if need_eta:
            # d scale / d eta is 1 for the logistic link, 1 / (2 sqrt(eta)) for the probit one.
            grad_eta = -np.bincount(self.grader, weights=np.multiply(dz, q, out=tmp), minlength=self.n_graders)
            if self.probit:
                grad_eta /= 2.0 * np.sqrt(etas)
        return nll, grad_s, grad_eta


def svrg_scores(
    batch: PairBatch, s0: np.ndarray, etas: np.ndarray, score_prior: ScorePrior, rng: np.random.Generator
) -> tuple[np.ndarray, int, float, bool]:
    """``scoremodels._svrg_scores`` on the pair layout, verbatim: MAP scores
    for fixed reliabilities, by per-grader SVRG (Johnson & Zhang 2013);
    returns as ``_lbfgs`` does, counting epochs.

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
        snapshot_slopes = batch.all_slopes(s, pair_scale)
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


# --- the JSON writer as it was before it wrote in one pass -------------------


def jsonable(obj: Any) -> Any:
    """Plain JSON types with floats rounded to 12 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [jsonable(v) for v in sorted(obj)]
    return obj


def json_text(payload: Any) -> str:
    """The bytes every JSON writer of the package must emit for ``payload``."""
    return json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_number(x: float) -> str:
    """``dataio._number`` as it was before it read the digits off ``"%.12g" % x``: ``x``
    rounded to 12 significant digits through ``float``, then written by ``repr``."""
    text = float.__repr__(float("%.12g" % x))
    return _FLOAT_WORDS.get(text, text)


# --- the feedback compiler as it was before it deduplicated rows by lexsort ---


def build_feedback_arrays(data: Dataset) -> FeedbackArrays:
    """``FeedbackArrays.build`` verbatim from before its generators became ``map`` calls and
    ``np.unique(axis=0)`` a ``lexsort``: the exact reference for the compiled arrays."""
    rankings = []
    for fb in data.feedback:
        if fb.ordinal is None:
            raise ValidationError(f"grader {fb.grader!r} has no ordinal feedback")
        rankings.append(fb.ordinal)
    n_graders = len(rankings)
    index = {d: i for i, d in enumerate(data.items)}
    counts = np.fromiter((len(r) for r in rankings), dtype=np.intp, count=n_graders)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    flat = (index[d] for r in rankings for g in r.groups for d in g)
    item = np.fromiter(flat, dtype=np.int32, count=int(offsets[-1]))
    n_groups = np.fromiter((len(r.groups) for r in rankings), dtype=np.intp, count=n_graders)
    sizes = np.fromiter((len(g) for r in rankings for g in r.groups), dtype=np.intp, count=int(n_groups.sum()))
    group_grader = np.repeat(np.arange(n_graders), n_groups)
    group_start = np.cumsum(sizes) - sizes
    rank = np.repeat(group_start - offsets[group_grader] + 1, sizes).astype(np.int32)

    mmax = int(counts.max()) if n_graders else 1
    per_size = np.bincount(group_grader * mmax + sizes - 1, minlength=n_graders * mmax)
    at_least = per_size.reshape(n_graders, mmax)[:, ::-1].cumsum(axis=1)[:, ::-1]
    coeff, grader_coeff = np.unique(at_least - (np.arange(mmax) < counts[:, None]), axis=0, return_inverse=True)
    arrays = offsets, item, rank, coeff.astype(float), grader_coeff.astype(np.int32).ravel()
    for a in arrays:
        a.setflags(write=False)
    return FeedbackArrays(tuple(fb.grader for fb in data.feedback), len(data.items), *arrays)


# --- the feedback compiler as it was before it read the rank maps -------------


def groups_feedback_arrays(data: Dataset) -> FeedbackArrays:
    """``FeedbackArrays.build`` verbatim from before it read each ranking's rank map: entries and tie
    group sizes from a walk over every ranking's ``groups``."""
    rankings = []
    for fb in data.feedback:
        if fb.ordinal is None:
            raise ValidationError(f"grader {fb.grader!r} has no ordinal feedback")
        rankings.append(fb.ordinal)
    n_graders = len(rankings)
    index = {d: i for i, d in enumerate(data.items)}
    counts = np.fromiter(map(len, rankings), dtype=np.intp, count=n_graders)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    groups_of = [r.groups for r in rankings]
    groups = list(itertools.chain.from_iterable(groups_of))
    flat = map(index.__getitem__, itertools.chain.from_iterable(groups))
    item = np.fromiter(flat, dtype=np.int32, count=int(offsets[-1]))
    n_groups = np.fromiter(map(len, groups_of), dtype=np.intp, count=n_graders)
    sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
    group_grader = np.repeat(np.arange(n_graders), n_groups)
    group_start = np.cumsum(sizes) - sizes
    rank = np.repeat(group_start - offsets[group_grader] + 1, sizes).astype(np.int32)

    mmax = int(counts.max()) if n_graders else 1
    per_size = np.bincount(group_grader * mmax + sizes - 1, minlength=n_graders * mmax)
    at_least = per_size.reshape(n_graders, mmax)[:, ::-1].cumsum(axis=1)[:, ::-1]
    coeff, grader_coeff = _distinct_rows(at_least - (np.arange(mmax) < counts[:, None]))
    arrays = offsets, item, rank, coeff.astype(float), grader_coeff.astype(np.int32)
    for a in arrays:
        a.setflags(write=False)
    return FeedbackArrays(tuple(fb.grader for fb in data.feedback), len(data.items), *arrays)


# --- the JSON dataset reader as it was before it compiled in bulk ------------


def _records_ranking(groups: Any) -> WeakRanking:
    if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
        raise ValidationError("'ranking' must be a list of lists")
    if set(map(len, groups)) <= {1}:
        return WeakRanking.from_order([g[0] for g in groups])
    return WeakRanking(tuple(tuple(g) for g in groups))


def records_dataset_from_dict(payload: Any, source: str = "<json>") -> Dataset:
    """``dataio.dataset_from_dict`` record by record: a ``GraderFeedback`` per entry, then ``from_feedback``."""
    if not isinstance(payload, dict):
        raise DataFormatError(f"{source}: expected a JSON object at top level")
    items = payload.get("items")
    if not isinstance(items, list) or not all(isinstance(d, str) for d in items):
        raise DataFormatError(f"{source}: 'items' must be a list of id strings")
    graders_payload = payload.get("graders")
    if not isinstance(graders_payload, list):
        raise DataFormatError(f"{source}: 'graders' must be a list")
    feedback = []
    for entry in graders_payload:
        if not isinstance(entry, dict) or "id" not in entry or "ranking" not in entry:
            raise DataFormatError(f"{source}: each grader needs 'id' and 'ranking'")
        gid = entry["id"]
        if not isinstance(gid, str) or not gid:
            raise DataFormatError(f"{source}: grader id must be a non-empty string")
        try:
            ranking = _records_ranking(entry["ranking"])
        except ValidationError as exc:
            raise DataFormatError(f"{source}: grader {gid}: {exc}")
        grades_payload = entry.get("grades")
        if grades_payload is not None:
            if not isinstance(grades_payload, dict):
                raise DataFormatError(f"{source}: grader {gid}: 'grades' must be an object")
            try:
                grades = {str(d): float(v) for d, v in grades_payload.items()}
                fb = GraderFeedback(grader=gid, items=tuple(sorted(ranking.items)), ordinal=ranking, cardinal=grades)
            except (TypeError, ValueError, ValidationError) as exc:
                raise DataFormatError(f"{source}: grader {gid}: {exc}")
        else:
            fb = GraderFeedback.from_ordinal(gid, ranking)
        feedback.append(fb)
    lazy_payload = payload.get("lazy_graders", [])
    if not isinstance(lazy_payload, list) or not all(isinstance(g, str) for g in lazy_payload):
        raise DataFormatError(f"{source}: 'lazy_graders' must be a list of grader ids")
    try:
        return Dataset.from_feedback(feedback, items=items, lazy_graders=lazy_payload)
    except ValidationError as exc:
        raise DataFormatError(f"{source}: {exc}")


# --- the cardinal CSV reader as it was before it checked the rows in bulk ----


def records_dataset_from_csv(path: str) -> Dataset:
    """``dataio.parse_cardinal_csv`` row by row: one check after another on each row, a grade map per
    grader, then a ``GraderFeedback.from_cardinal`` record per grader and ``from_feedback``."""
    header_text = "grader_id,item_id,score"
    with open(path, encoding="utf-8", newline="") as fh:
        reader = _csv_rows(csv.reader(fh), path)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, expected header {header_text}")
        if header != header_text.split(","):
            raise DataFormatError(f"{path}: bad header {','.join(header)!r}, expected {header_text!r}")
        grades: dict[str, dict[str, float]] = {}
        first_line: dict[tuple[str, str], int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataFormatError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
            grader, item, raw = (field.strip() for field in row)
            if not grader or not item:
                raise DataFormatError(f"{path}: line {lineno}: empty grader or item id")
            try:
                score = float(raw)
            except ValueError:
                raise DataFormatError(f"{path}: line {lineno}: score {raw!r} is not a number")
            if not math.isfinite(score):
                raise DataFormatError(f"{path}: line {lineno}: score {raw!r} is not finite")
            key = (grader, item)
            if key in first_line:
                raise DataFormatError(
                    f"{path}: line {lineno}: duplicate grade for ({grader}, {item}), first seen on line {first_line[key]}"
                )
            first_line[key] = lineno
            grades.setdefault(grader, {})[item] = score
    return Dataset.from_feedback(GraderFeedback.from_cardinal(g, grades[g]) for g in sorted(grades))


def _csv_rows(reader, path: str):
    """The rows of a ``csv.reader``; a row it refuses raises a ``DataFormatError`` naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from exc
