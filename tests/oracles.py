"""Slow, independent reference implementations used as test oracles.

Everything here works on plain lists/tuples/dicts and enumerates by brute
force, deliberately sharing no code with the package under test. The one
exception is the last section: the package's earlier dict-loop Mallows
estimators, kept as exact references for the compiled-array ones.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Mapping

import numpy as np

from opg.config import ReliabilityPrior
from opg.data import Dataset, Estimate
from opg.errors import ValidationError
from opg.mallows import MallowsParams
from opg.rankings import WeakRanking, break_ties


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
    """Total reliability-weighted count of feedback pairs ordered against ``ranking``."""
    params = params or MallowsParams()
    if not ranking.is_total:
        raise ValidationError("cost is defined for total orders only")
    items, w = dict_preference_weights(data, params)
    index = {d: i for i, d in enumerate(items)}
    cost = 0.0
    order = [index[d] for d in ranking.order() if d in index]
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            cost += w[b, a]
    return float(cost)


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


def dict_fit_reliabilities(
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
    denominators cancel because group sizes sum to |D_g|.
    """
    prior = prior or ReliabilityPrior()
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

    result = {g: prior.mode for g in data.graders}
    if not graders:
        return result

    x_vec = np.array(xs)
    coeff = np.stack(coeff_rows)
    irange = np.arange(1, mmax + 1, dtype=float)
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


def dict_fit_mallows(
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
    prior = reliability_prior or ReliabilityPrior()
    rng = np.random.default_rng(seed)
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

    center = center_for(MallowsParams())
    etas: dict[str, float] | None = None
    if with_reliability:
        metadata["reliability_iterations"] = iterations
        for _ in range(iterations):
            total_center = center
            if not total_center.is_total:
                total_center = break_ties(center, rng)
                metadata["tie_break"] = "seeded"
            etas = dict_fit_reliabilities(data, total_center, prior)
            center = center_for(MallowsParams(etas))
    return Estimate(ranking=center, reliabilities=etas, metadata=metadata)
