"""Shared configuration: the score and reliability priors."""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _check_iterations(iterations: int) -> None:
    """Reject a negative number of alternating reliability rounds."""
    if iterations < 0:
        raise ValidationError(f"iterations must be >= 0, got {iterations}")
