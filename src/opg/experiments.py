"""Evaluation protocols: bootstrap, consistency, downsampling, lazy-grader studies.

Repetition k of a protocol builds its trial dataset from seed s_k and fits it
with seed s_k, so results are reproducible. s_k = seed + k in ``bootstrap_ek``
(a grader resample), ``self_consistency`` (two halves, whose ties the same
generator breaks) and the lazy identification protocols (fresh lazy graders);
s_k = seed + i * reps + k at the i-th level of ``downsample_curve`` and the
i-th count of ``robustness_delta`` (whose baseline fit keeps the given seed).
"""

from __future__ import annotations

import copy
import dataclasses
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .data import Dataset, Estimate, GraderFeedback
from .dataio import _round12
from .errors import ValidationError
from .estimators import ModelOptions, fit_model, model_uses_reliability
from .metrics import TargetSet, _as_target_set, ek_error, strict_pair_count, tau_kt
from .rankings import WeakRanking, break_ties
from .synth import add_lazy_graders, strip_lazy

__all__ = [
    "CurvePoint",
    "ExperimentReport",
    "bootstrap_ek",
    "self_consistency",
    "downsample_curve",
    "lazy_identification",
    "lazy_identification_heuristic",
    "robustness_delta",
    "time_methods",
]


def _check_reps(reps: int, name: str = "reps") -> None:
    if reps < 1:
        raise ValidationError(f"{name} must be >= 1, got {reps}")


def _fits(
    method: str, options: ModelOptions | None, first: int, reps: int, trial: Callable[[int], Dataset]
) -> Iterator[tuple[Dataset, Estimate]]:
    """For s = first, ..., first + reps - 1: the trial dataset ``trial(s)`` and ``method``'s fit to it with seed s."""
    options = options or ModelOptions()
    for seed in range(first, first + reps):
        dataset = trial(seed)
        yield dataset, fit_model(method, dataset, dataclasses.replace(options, seed=seed))


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return _round12(float(arr.mean())), _round12(std)


@dataclass(frozen=True)
class CurvePoint:
    level: int
    ek_mean: float
    ek_std: float


@dataclass(frozen=True)
class ExperimentReport:
    """Serializable record of one protocol run."""

    experiment: str
    method: str
    seed: int
    params: dict[str, Any] = field(default_factory=dict)
    ek_mean: float | None = None
    ek_std: float | None = None
    curve: tuple[CurvePoint, ...] | None = None
    identification_rate: float | None = None
    deltas: tuple[float, ...] | None = None
    runtimes: dict[str, tuple[float, float]] | None = None

    def to_dict(self) -> dict[str, Any]:
        """Every field that is not None, with the curve points as dicts."""
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}


def _select_graders(data: Dataset, rows: Sequence[int], names: Sequence[str] | None = None) -> Dataset:
    """The graders at feedback positions ``rows`` of ``data``, in that order, renamed to ``names``
    if given. Lazy labels follow their graders; compiled arrays are gathered from ``data``'s, and the
    renamed records are built only when read. Only the names are checked: the rest is ``data``'s."""
    rows = np.asarray(rows, dtype=np.intp)
    graders = data._feedback_graders
    originals = [graders[r] for r in rows.tolist()]
    names = tuple(names or originals)
    if len(set(names)) != len(names):
        raise ValidationError("grader roster contains duplicates")
    lazy = data.lazy_graders and frozenset(n for g, n in zip(originals, names) if g in data.lazy_graders)

    def records() -> tuple[GraderFeedback, ...]:
        picked = map(data.feedback.__getitem__, rows.tolist())
        return tuple(fb if fb.grader == name else fb._renamed(name) for fb, name in zip(picked, names))

    return Dataset._derived(data.items, tuple(sorted(names)), lazy, records, _source=(data, rows, names))


def _resample_graders(data: Dataset, rng: np.random.Generator) -> Dataset:
    """Bootstrap resample of graders; the c copies of a grader g drawn c times are g, g#2, ..., g#c."""
    graders = data._feedback_graders
    n = len(graders)
    counts = np.bincount(rng.integers(0, n, n), minlength=n).tolist()
    # Copies of one record differ only in name, so the names need not follow the draw order.
    drawn = sorted([(g if k == 1 else f"{g}#{k}", i)
                    for i, (g, c) in enumerate(zip(graders, counts)) for k in range(1, c + 1)])
    names, rows = zip(*drawn)
    return _select_graders(data, rows, names)


def bootstrap_ek(
    data: Dataset,
    method: str,
    targets: TargetSet | Iterable[WeakRanking],
    reps: int = 1000,
    seed: int = 0,
    options: ModelOptions | None = None,
) -> tuple[float, float]:
    """Mean and std of the ranking error over grader bootstrap resamples."""
    _check_reps(reps)
    targets = _as_target_set(targets)
    fits = _fits(method, options, seed, reps, lambda s: _resample_graders(data, np.random.default_rng(s)))
    return _mean_std([ek_error(targets, est.ranking) for _, est in fits])


def self_consistency(
    data: Dataset,
    method: str,
    partitions: int = 20,
    seed: int = 0,
    options: ModelOptions | None = None,
) -> tuple[float, float]:
    """Agreement between fits on random halves of the graders.

    For each partition the graders are split into halves whose sizes differ
    by at most one, the method is fit on each half over the full item roster,
    and the two rankings are compared (ties broken with the partition seed).
    Low values mean the method extracts a stable ordering from half the data.
    """
    _check_reps(partitions, "partitions")
    n_graders = len(data._feedback_graders)
    if n_graders < 2:
        raise ValidationError("self-consistency needs at least two graders")
    options = options or ModelOptions()

    # Not a ``_fits`` loop: one generator draws the partition and then breaks both halves' ties.
    errors = []
    for rep in range(partitions):
        rng = np.random.default_rng(seed + rep)
        perm = rng.permutation(n_graders)
        half = len(perm) // 2
        parts = []
        for sel in (perm[:half], perm[half:]):
            sub = _select_graders(data, np.sort(sel))
            est = fit_model(method, sub, dataclasses.replace(options, seed=seed + rep))
            parts.append(break_ties(est.ranking, rng))
        errors.append(ek_error([parts[0]], parts[1]))
    return _mean_std(errors)


def _downsample(data: Dataset, axis: str, level: int, rng: np.random.Generator) -> Dataset:
    if axis == "reviewers":
        n_graders = len(data._feedback_graders)
        if not 1 <= level <= n_graders:
            raise ValidationError(f"level must be in [1, {n_graders}] for axis 'reviewers', got {level}")
        return _select_graders(data, np.sort(rng.choice(n_graders, size=level, replace=False)))
    if axis == "items_per_reviewer":
        if level < 1:
            raise ValidationError(f"level must be >= 1, got {level}")
        new_feedback = []
        for fb in data.feedback:
            if len(fb.items) > level:
                keep = set(rng.choice(len(fb.items), size=level, replace=False))
                subset = frozenset(d for k, d in enumerate(fb.items) if k in keep)
                ordinal = fb.ordinal.restrict(subset) if fb.ordinal is not None else None
                grades = {d: v for d, v in fb.cardinal.items() if d in subset} if fb.cardinal else None
                fb = GraderFeedback(grader=fb.grader, items=tuple(sorted(subset)), ordinal=ordinal, cardinal=grades)
            new_feedback.append(fb)
        return dataclasses.replace(data, feedback=tuple(new_feedback))
    raise ValidationError(f"unknown axis {axis!r}; use 'reviewers' or 'items_per_reviewer'")


def downsample_curve(
    data: Dataset,
    method: str,
    axis: str,
    levels: Sequence[int],
    targets: TargetSet | Iterable[WeakRanking],
    reps: int = 20,
    seed: int = 0,
    options: ModelOptions | None = None,
) -> tuple[CurvePoint, ...]:
    """Ranking error as data is thinned along ``axis`` at each level."""
    _check_reps(reps)
    if not levels:
        raise ValidationError("levels must be non-empty")
    targets = _as_target_set(targets)
    points = []
    for li, level in enumerate(map(int, levels)):
        fits = _fits(
            method, options, seed + li * reps, reps, lambda s: _downsample(data, axis, level, np.random.default_rng(s))
        )
        mean, std = _mean_std([ek_error(targets, est.ranking) for _, est in fits])
        points.append(CurvePoint(level=level, ek_mean=mean, ek_std=std))
    return tuple(points)


def _bottom_k(total_graders: int, bottom_k: int | None) -> int:
    if bottom_k is None:
        return max(1, round(0.125 * total_graders))
    if bottom_k < 1:
        raise ValidationError(f"bottom_k must be >= 1, got {bottom_k}")
    return bottom_k


def _lazy_identification_rate(
    data: Dataset,
    method: str,
    bottom_k: int | None,
    reps: int,
    seed: int,
    options: ModelOptions | None,
    resample: bool,
    suspects: Callable[[Dataset, Estimate], list[str]],
) -> float:
    """Trials as :func:`lazy_identification` runs them; ``suspects`` orders a
    trial's graders, most suspect first, from its estimate."""
    if not data.lazy_graders:
        raise ValidationError("dataset has no lazy graders labeled")
    _check_reps(reps)
    base = strip_lazy(data)
    n_lazy = len(data.lazy_graders)
    trials = (lambda s: add_lazy_graders(base, n_lazy, seed=s)) if resample else (lambda s: data)
    rates = []
    for trial, est in _fits(method, options, seed, reps, trials):
        flagged = set(suspects(trial, est)[: _bottom_k(len(trial.graders), bottom_k)])
        rates.append(len(flagged & trial.lazy_graders) / n_lazy)
    return _round12(float(np.mean(rates)))


def lazy_identification(
    data: Dataset,
    method: str,
    bottom_k: int | None = None,
    reps: int = 50,
    seed: int = 0,
    options: ModelOptions | None = None,
    resample: bool = True,
) -> float:
    """Fraction of lazy graders ranked among the least reliable.

    Each repetition replaces the labeled lazy graders with freshly drawn
    ones (``resample=False`` keeps the dataset's own labels, e.g. for null
    controls), fits a reliability-estimating method, sorts graders by
    estimated reliability ascending (ties by id), and checks how many lazy
    graders land in the bottom ``bottom_k`` (default 12.5% of graders).
    Returns the mean recovered fraction over repetitions.
    """
    if not model_uses_reliability(method):
        raise ValidationError(f"model {method!r} does not estimate reliabilities")

    def least_reliable(trial: Dataset, est: Estimate) -> list[str]:
        if est.reliabilities is None:
            raise ValidationError(f"model {method!r} returned no reliabilities")
        return sorted(trial.graders, key=lambda g: (est.reliabilities[g], g))

    return _lazy_identification_rate(data, method, bottom_k, reps, seed, options, resample, least_reliable)


def lazy_identification_heuristic(
    data: Dataset,
    method: str = "mal",
    bottom_k: int | None = None,
    reps: int = 50,
    seed: int = 0,
    options: ModelOptions | None = None,
    resample: bool = True,
) -> float:
    """Baseline: flag graders who disagree most with the aggregate ranking.

    Fits a method without reliability modeling and scores each grader by the
    normalized ranking error of their feedback against the aggregate
    restricted to their items. Graders with the largest disagreement are
    flagged. Comparable to :func:`lazy_identification` on the same data.
    """

    def most_disagreeing(trial: Dataset, est: Estimate) -> list[str]:
        errors: dict[str, float] = {}
        for fb in trial.feedback:
            predicted = est.ranking.restrict(fb.items)
            pairs = strict_pair_count(predicted)
            errors[fb.grader] = tau_kt(predicted, fb.ordinal) / pairs if pairs else 0.0
        return sorted(trial.graders, key=lambda g: (-errors.get(g, 0.0), g))

    return _lazy_identification_rate(data, method, bottom_k, reps, seed, options, resample, most_disagreeing)


def robustness_delta(
    data: Dataset,
    method: str,
    lazy_counts: Sequence[int],
    targets: TargetSet | Iterable[WeakRanking],
    reps: int = 20,
    seed: int = 0,
    options: ModelOptions | None = None,
) -> tuple[float, ...]:
    """Mean ranking-error shift caused by injecting lazy graders.

    For each count the error of the method on ``data`` plus that many fresh
    lazy graders is compared against the error on ``data`` alone; returns
    the signed mean difference per count (positive means lazy graders hurt).
    """
    _check_reps(reps)
    if not lazy_counts or any(c < 0 for c in lazy_counts):
        raise ValidationError("lazy_counts must be non-empty non-negative integers")
    targets = _as_target_set(targets)
    base_est = fit_model(method, data, options)
    base_ek = ek_error(targets, base_est.ranking)
    deltas = []
    for ci, count in enumerate(map(int, lazy_counts)):
        if count == 0:
            deltas.append(0.0)
            continue
        fits = _fits(method, options, seed + ci * reps, reps, lambda s: add_lazy_graders(data, count, seed=s))
        deltas.append(_round12(float(np.mean([ek_error(targets, est.ranking) - base_ek for _, est in fits]))))
    return tuple(deltas)


def time_methods(
    data: Dataset,
    methods: Sequence[str],
    reps: int = 3,
    options: ModelOptions | None = None,
) -> dict[str, tuple[float, float]]:
    """Wall-clock fit time per method: name -> (mean seconds, std). Each repetition fits a fresh copy
    of ``data``, made before its clock starts, so it compiles its own arrays and reads no center an
    earlier fit kept."""
    _check_reps(reps)
    out: dict[str, tuple[float, float]] = {}
    for method in methods:
        times = []
        for _ in range(reps):
            fresh = copy.copy(data)
            start = time.perf_counter()
            fit_model(method, fresh, options)
            times.append(time.perf_counter() - start)
        out[method] = _mean_std(times)
    return out
