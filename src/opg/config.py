"""Shared configuration dataclasses: priors and optimizer settings."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = ["ScorePrior", "ReliabilityPrior", "SgdConfig"]


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


@dataclass(frozen=True)
class SgdConfig:
    """Stochastic gradient settings shared by the iterative fitters.

    An epoch visits every grader once in a seeded shuffled order, with step
    size 0.1 / sqrt(epoch); fitting stops when the relative objective change
    over an epoch drops below ``rel_tolerance`` or after ``max_epochs``.
    ``alternating_iterations`` is the number of reliability/score rounds
    used by the "+g" variants. The full-batch ``bt`` and ``pl`` fits take
    no SGD steps: of these fields only ``seed`` (which breaks ``pl``'s
    ties) and ``alternating_iterations`` apply to them, the latter as the
    least number of rounds (they go on until the reliabilities settle).
    """

    max_epochs: int = 500
    rel_tolerance: float = 1e-6
    seed: int = 0
    alternating_iterations: int = 10

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ValidationError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (math.isfinite(self.rel_tolerance) and self.rel_tolerance >= 0):
            raise ValidationError(f"rel_tolerance must be >= 0, got {self.rel_tolerance}")
        if self.alternating_iterations < 0:
            raise ValidationError(
                f"alternating_iterations must be >= 0, got {self.alternating_iterations}"
            )
