"""Synthetic peer-grading data: truth, balanced assignment, noisy graders."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Estimate, GraderFeedback
from .errors import ValidationError
from .rankings import WeakRanking, ranking_from_scores

__all__ = [
    "NormalTruth",
    "MallowsGraders",
    "CardinalNormalGraders",
    "SynthConfig",
    "assign_reviewers",
    "sample_mallows_feedback",
    "simulate",
    "add_lazy_graders",
    "strip_lazy",
]

# Observed grades are mapped onto a 10-point scale with this location/spread
# (typical of classroom peer grading) and clamped to [1, 10].
_SCALE_MEAN = 8.0
_SCALE_STD = 1.3
_SCALE_RANGE = (1.0, 10.0)


@dataclass(frozen=True)
class NormalTruth:
    """True item quality drawn i.i.d. normal."""

    mean: float = 0.0
    var: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.var) and self.var > 0):
            raise ValidationError(f"truth variance must be > 0, got {self.var}")
        if not math.isfinite(self.mean):
            raise ValidationError("truth mean must be finite")


@dataclass(frozen=True)
class MallowsGraders:
    """Graders return a permutation-noise sample around the truth order."""

    eta: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValidationError(f"grader eta must be > 0, got {self.eta}")


@dataclass(frozen=True)
class CardinalNormalGraders:
    """Graders report truth plus a personal bias plus normal noise.

    ``eta`` is the noise precision (variance 1/eta); per-grader biases are
    drawn N(0, bias_std^2). Raw grades are affinely mapped onto the 10-point
    scale and clamped.
    """

    eta: float = 1.0
    bias_std: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValidationError(f"grader eta must be > 0, got {self.eta}")
        if not (math.isfinite(self.bias_std) and self.bias_std >= 0):
            raise ValidationError(f"bias_std must be >= 0, got {self.bias_std}")


@dataclass(frozen=True)
class SynthConfig:
    n_items: int = 40
    n_graders: int = 150
    items_per_grader: int = 7
    grader_model: MallowsGraders | CardinalNormalGraders = MallowsGraders()
    truth: NormalTruth = NormalTruth()
    n_lazy: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_items < 1 or self.n_graders < 1:
            raise ValidationError("need at least one item and one grader")
        if not 1 <= self.items_per_grader <= self.n_items:
            raise ValidationError(
                f"items_per_grader must be in [1, {self.n_items}], got {self.items_per_grader}"
            )
        if self.n_graders * self.items_per_grader < self.n_items:
            raise ValidationError(
                "infeasible assignment: "
                f"{self.n_graders} graders x {self.items_per_grader} items cannot cover "
                f"{self.n_items} items"
            )
        if self.n_lazy < 0:
            raise ValidationError(f"n_lazy must be >= 0, got {self.n_lazy}")


def _pad_ids(prefix: str, count: int) -> list[str]:
    width = max(3, len(str(max(count - 1, 0))))
    return [f"{prefix}{i:0{width}d}" for i in range(count)]


def _balanced_assignment(n: int, n_graders: int, per_grader: int, rng: np.random.Generator) -> np.ndarray:
    """Row g: the ``per_grader`` distinct item indices of grader g, ascending.

    Each grader in turn takes the currently least-assigned items, count ties
    broken by seeded random priorities: one ``rng.permutation(n)`` per
    grader. The key ``count * n + priority`` is unique, so the chosen set is
    exactly the ``per_grader`` smallest keys.
    """
    counts = np.zeros(n, dtype=np.int64)
    assigned = np.empty((n_graders, per_grader), dtype=np.intp)
    for g in range(n_graders):
        key = counts * n + rng.permutation(n)
        chosen = np.sort(np.argpartition(key, per_grader - 1)[:per_grader])
        counts[chosen] += 1
        assigned[g] = chosen
    return assigned


def _truth_and_assignment(cfg: SynthConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``simulate``'s first draws from ``rng``: each item's truth value, then the balanced assignment."""
    truth_vals = rng.normal(cfg.truth.mean, math.sqrt(cfg.truth.var), cfg.n_items)
    return truth_vals, _balanced_assignment(cfg.n_items, cfg.n_graders, cfg.items_per_grader, rng)


def assign_reviewers(cfg: SynthConfig) -> dict[str, tuple[str, ...]]:
    """The balanced random reviewer assignment of ``simulate(cfg)``'s graders, lazy ones excepted."""
    items = _pad_ids("item", cfg.n_items)
    graders = _pad_ids("grader", cfg.n_graders)
    _, assigned = _truth_and_assignment(cfg, np.random.default_rng(cfg.seed))
    return {grader: tuple(items[i] for i in row) for grader, row in zip(graders, assigned.tolist())}


def _mallows_orders(references: list[list], eta: float, u: np.ndarray) -> list[list]:
    """Permutation-noise samples of each row of ``references`` by repeated insertion.

    Row g lists grader g's items in truth order, best first, and ``u[g]``
    holds one uniform per item. Item i (1-based) lands j positions above the
    bottom of the i slots with probability proportional to exp(-eta * j).
    Its slot is what ``rng.choice(i, p=p)`` returns for the uniform
    ``u[g, i - 1]``: that call draws one ``random()`` and searches the
    normalised cumulative ``p``. So rows of ``rng.random`` give the same
    samples as one ``choice`` call per item.
    """
    slots = np.empty(u.shape, dtype=np.intp)
    for i in range(1, u.shape[1] + 1):
        below = (i - 1) - np.arange(i)  # items ending up below each insertion slot
        w = np.exp(-eta * below)
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        slots[:, i - 1] = cdf.searchsorted(u[:, i - 1], side="right")
    orders = []
    for reference, row in zip(references, slots.tolist()):
        order: list = []
        for item, pos in zip(reference, row):
            order.insert(pos, item)
        orders.append(order)
    return orders


def sample_mallows_feedback(
    truth: WeakRanking,
    subset: Iterable[str],
    eta: float,
    seed: int | np.random.Generator = 0,
) -> WeakRanking:
    """Sample a total order over ``subset`` from the permutation-noise model.

    Uses repeated insertion: items are inserted in truth order, the i-th item
    landing j positions above the bottom with probability proportional to
    exp(-eta * j). The result is an exact sample with probability
    proportional to exp(-eta * inversions against the truth restriction).
    Draws exactly one ``random()`` per item of ``subset``, in truth order.
    """
    if not (math.isfinite(eta) and eta > 0):
        raise ValidationError(f"eta must be finite and > 0, got {eta}")
    if not truth.is_total:
        raise ValidationError("truth must be a total order")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    subset_set = set(subset)
    missing = subset_set - truth.items
    if missing:
        raise ValidationError(f"truth does not rank items: {sorted(missing)}")
    reference = sorted(subset_set, key=truth.rank_of)
    (order,) = _mallows_orders([reference], eta, rng.random((1, len(reference))))
    return WeakRanking.from_order(order)


def _to_scale(raw: np.ndarray) -> np.ndarray:
    std = float(raw.std())
    if std == 0.0:
        centered = np.zeros_like(raw)
    else:
        centered = (raw - raw.mean()) / std
    return np.clip(_SCALE_MEAN + _SCALE_STD * centered, *_SCALE_RANGE)


def simulate(cfg: SynthConfig) -> tuple[Dataset, Estimate]:
    """Generate a synthetic dataset and the ground-truth estimate.

    Truth scores are drawn from the truth model and ranked; graders follow
    ``cfg.grader_model``. Cardinal graders produce grades on the 10-point
    scale with the induced ordinal ranking attached; permutation-noise
    graders produce ordinal feedback only. ``n_lazy`` lazy graders whose
    grades carry no signal are appended last.

    The draws from the ``cfg.seed`` generator come in a fixed order, which
    keeps every seeded dataset the same: the truth scores; one assignment
    permutation per grader; then either one uniform per grader and item
    (grader-major, each grader's items in truth order) for permutation-noise
    graders, or one bias per grader followed by one noise draw per grader
    and item (grader-major, items in id order) for cardinal graders. Lazy
    graders draw from a generator seeded ``cfg.seed + 1``.
    """
    rng = np.random.default_rng(cfg.seed)
    items = _pad_ids("item", cfg.n_items)
    graders = _pad_ids("grader", cfg.n_graders)
    truth_vals, assigned = _truth_and_assignment(cfg, rng)
    truth_scores = {items[i]: float(truth_vals[i]) for i in range(cfg.n_items)}
    truth = Estimate(
        ranking=ranking_from_scores(truth_scores, tie_epsilon=0.0),
        scores=truth_scores,
        metadata={"truth": True, "seed": cfg.seed},
    )

    feedback: list[GraderFeedback] = []
    if isinstance(cfg.grader_model, MallowsGraders):
        if not truth.ranking.is_total:
            raise ValidationError("truth must be a total order")
        rank = truth.ranking.ranks()
        position = np.array([rank[x] for x in items])
        references = np.take_along_axis(assigned, np.argsort(position[assigned], axis=1), axis=1)
        orders = _mallows_orders(references.tolist(), cfg.grader_model.eta, rng.random(assigned.shape))
        for grader, order in zip(graders, orders):
            ranking = WeakRanking.from_order([items[i] for i in order])
            feedback.append(GraderFeedback.from_ordinal(grader, ranking))
    else:
        noise_std = 1.0 / math.sqrt(cfg.grader_model.eta)
        biases = rng.normal(0.0, cfg.grader_model.bias_std, cfg.n_graders)
        raw = truth_vals[assigned] + biases[:, None] + rng.normal(0.0, noise_std, assigned.shape)
        grades = _to_scale(raw.ravel()).reshape(assigned.shape)
        for grader, row, values in zip(graders, assigned.tolist(), grades.tolist()):
            feedback.append(GraderFeedback.from_cardinal(grader, {items[i]: v for i, v in zip(row, values)}))

    data = Dataset(items=tuple(items), graders=tuple(graders), feedback=tuple(feedback))
    if cfg.n_lazy:
        data = add_lazy_graders(data, cfg.n_lazy, seed=cfg.seed + 1)
    return data, truth


def _prevailing_items_per_grader(data: Dataset) -> int:
    sizes = Counter(len(fb.items) for fb in data.feedback)
    return sorted(sizes.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def add_lazy_graders(data: Dataset, n: int, seed: int = 0) -> Dataset:
    """Append ``n`` lazy graders whose grades are noise.

    Lazy grades are drawn i.i.d. normal with the mean and variance of the
    existing grades (statistically indistinguishable marginally), so their
    induced rankings carry no information about the items. The new graders
    are labeled in ``lazy_graders`` and assigned items by the balanced
    scheme. Each gets the item count most existing graders have (the
    smaller count on a tie, and at most every item). The ``seed`` generator
    draws one assignment permutation per lazy grader, then one grade per
    lazy grader and item (grader-major, items in id order).
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    if n == 0:
        return data
    if not data.feedback:
        raise ValidationError("cannot match grade statistics: dataset has no feedback")
    existing = [g for fb in data.feedback if fb.cardinal for g in fb.cardinal.values()]
    if not existing:
        raise ValidationError("lazy graders need existing cardinal feedback to imitate")
    rng = np.random.default_rng(seed)
    grades_arr = np.array(existing)
    mean, std = float(grades_arr.mean()), float(grades_arr.std())
    per_grader = min(_prevailing_items_per_grader(data), len(data.items))

    taken = set(data.graders)
    candidates = (f"lazy{k:03d}" for k in itertools.count())
    names = list(itertools.islice((name for name in candidates if name not in taken), n))
    assigned = _balanced_assignment(len(data.items), n, per_grader, rng)
    draws = rng.normal(mean, std, assigned.shape)
    new_feedback = list(data.feedback)
    for grader, row, values in zip(names, assigned.tolist(), draws.tolist()):
        grades = {data.items[i]: v for i, v in zip(row, values)}
        new_feedback.append(GraderFeedback.from_cardinal(grader, grades))
    new_feedback.sort(key=lambda fb: fb.grader)
    return Dataset(
        items=data.items,
        graders=tuple(sorted(set(data.graders) | set(names))),
        feedback=tuple(new_feedback),
        lazy_graders=data.lazy_graders | set(names),
    )


def strip_lazy(data: Dataset) -> Dataset:
    """Dataset without the labeled lazy graders."""
    if not data.lazy_graders:
        return data
    keep = [fb for fb in data.feedback if fb.grader not in data.lazy_graders]
    return Dataset(
        items=data.items,
        graders=tuple(g for g in data.graders if g not in data.lazy_graders),
        feedback=tuple(keep),
        lazy_graders=frozenset(),
    )
