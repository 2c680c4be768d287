"""Ranking error metrics: tie-aware Kendall error and cardinal errors."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rankings import WeakRanking

__all__ = ["TargetSet", "tau_kt", "strict_pair_count", "ek_error", "cardinal_errors"]


@dataclass(frozen=True)
class TargetSet:
    """Non-empty collection of target rankings over one common item set."""

    targets: tuple[WeakRanking, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        if not self.targets:
            raise ValidationError("target set must be non-empty")
        first = self.targets[0].items
        for t in self.targets[1:]:
            if t.items != first:
                raise ValidationError("all targets must cover the same item set")

    @property
    def items(self) -> frozenset[str]:
        return self.targets[0].items


def _as_target_set(targets: TargetSet | Iterable[WeakRanking]) -> TargetSet:
    return targets if isinstance(targets, TargetSet) else TargetSet(tuple(targets))


def _rank_vectors(target: WeakRanking, predicted: WeakRanking) -> tuple[np.ndarray, np.ndarray]:
    if target.items != predicted.items:
        raise ValidationError("target and predicted rankings must cover the same items")
    items = sorted(target.items)
    rt = np.array([target.rank_of(x) for x in items], dtype=np.int64)
    rp = np.array([predicted.rank_of(x) for x in items], dtype=np.int64)
    return rt, rp


def tau_kt(target: WeakRanking, predicted: WeakRanking) -> float:
    """Pairwise error of ``predicted`` against the strict pairs of ``target``.

    Each pair the target orders strictly counts 1 when the prediction orders
    it the opposite way and 1/2 when the prediction ties it. Pairs tied in
    the target express indifference and never count.
    """
    rt, rp = _rank_vectors(target, predicted)
    strict = rt[:, None] < rt[None, :]
    inverted = rp[:, None] > rp[None, :]
    inverted &= strict
    tied = rp[:, None] == rp[None, :]
    tied &= strict
    return float(np.count_nonzero(inverted) + 0.5 * np.count_nonzero(tied))


def strict_pair_count(ranking: WeakRanking) -> int:
    """Number of strictly ordered pairs; the maximum attainable tau_kt."""
    n = len(ranking)
    return n * (n - 1) // 2 - sum(len(g) * (len(g) - 1) // 2 for g in ranking.groups)


def ek_error(targets: TargetSet | Iterable[WeakRanking], predicted: WeakRanking) -> float:
    """Mean normalized pairwise error against a set of targets, in percent.

    Each target contributes tau_kt / (its strict pair count); the mean is
    scaled to [0, 100]. A uniformly random total order scores about 50.
    """
    tset = _as_target_set(targets)
    total = 0.0
    for t in tset.targets:
        pairs = strict_pair_count(t)
        if pairs == 0:
            raise ValidationError("a target with no strict pairs cannot be scored")
        total += tau_kt(t, predicted) / pairs
    return 100.0 * total / len(tset.targets)


def cardinal_errors(
    predicted: Mapping[str, float], target: Mapping[str, float]
) -> tuple[float, float]:
    """(MAE, RMSE) after affinely rescaling predictions to the target scale.

    Predictions are mapped to the target's mean and standard deviation before
    the errors are computed, so only relative placement matters.
    """
    if set(predicted) != set(target):
        raise ValidationError("predicted and target scores must cover the same items")
    if len(predicted) < 2:
        raise ValidationError("cardinal errors need at least two items")
    items = sorted(predicted)
    p = np.array([predicted[x] for x in items], dtype=float)
    t = np.array([target[x] for x in items], dtype=float)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise ValidationError("scores must be finite")
    p_std = float(p.std())
    t_std = float(t.std())
    if p_std == 0.0:
        raise ValidationError("predicted scores are constant; rescaling is undefined")
    if t_std == 0.0:
        raise ValidationError("target scores are constant; rescaling is undefined")
    rescaled = (p - p.mean()) / p_std * t_std + t.mean()
    diff = rescaled - t
    mae = float(np.mean(np.abs(diff)))
    rmse = float(np.sqrt(np.mean(diff**2)))
    return mae, rmse
