"""Shared configuration: the score and reliability priors."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["ScorePrior", "ReliabilityPrior"]


@dataclass(frozen=True)
class ScorePrior:
    """Independent normal prior on each latent score."""

    mean: float = 0.0
    variance: float = 9.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise ValidationError(f"score prior variance must be > 0, got {self.variance}")
        if not math.isfinite(self.mean):
            raise ValidationError("score prior mean must be finite")


@dataclass(frozen=True)
class ReliabilityPrior:
    """Gamma prior on each grader reliability, shape/scale parametrization.

    Every "+g" model, ``ncs+g`` included, uses this one prior.

    Log-density contribution (up to constants): (shape-1)*ln(eta) - eta/scale.
    """

    shape: float = 10.0
    scale: float = 0.1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.shape) and self.shape >= 1.0):
            raise ValidationError(f"reliability prior shape must be >= 1, got {self.shape}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValidationError(f"reliability prior scale must be > 0, got {self.scale}")

    @property
    def mode(self) -> float:
        return (self.shape - 1.0) * self.scale

    def _by_grader(self, roster: Sequence[str], graders: Sequence[str], etas: np.ndarray) -> dict[str, float]:
        """Every ``roster`` grader's reliability, in roster order: ``etas`` for the ``graders`` fitted, and
        for the rest, who gave no feedback, their MAP: the mode, kept in the bounds every fit keeps a
        reliability in."""
        fitted = dict(zip(graders, etas.tolist()))
        if graders == roster:
            return fitted
        return {**dict.fromkeys(roster, float(np.clip(self.mode, *_ETA_BOUNDS))), **fitted}


# Every "+g" fit keeps each reliability within these bounds.
_ETA_BOUNDS = (1e-3, 1e3)


def _check_iterations(iterations: int) -> None:
    """Reject a negative number of alternating reliability rounds."""
    if iterations < 0:
        raise ValidationError(f"iterations must be >= 0, got {iterations}")
