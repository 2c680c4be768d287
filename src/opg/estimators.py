"""Model registry: one entry point for every estimator by name."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cardinal, mallows, scoremodels
from .config import ReliabilityPrior, ScorePrior, _check_iterations
from .data import Dataset, Estimate
from .errors import ValidationError
from .rankings import _check_tie_epsilon

__all__ = ["MODEL_NAMES", "ModelOptions", "fit_model", "model_uses_reliability"]


@dataclass(frozen=True)
class ModelOptions:
    """Shared knobs for fitting; defaults match the documented priors.

    ``seed`` seeds every random draw of a fit (tie breaks, plain ``thur``'s
    SVRG order). ``iterations`` bounds the alternating rounds of
    ``mal+g``, ``malbc+g``, ``mal+kg`` and ``ncs+g``; the score models'
    "+g" fits have no rounds. Both must be >= 0. ``tie_epsilon`` must be
    finite and >= 0.
    """

    seed: int = 0
    iterations: int = 10
    score_prior: ScorePrior = field(default_factory=ScorePrior)
    reliability_prior: ReliabilityPrior = field(default_factory=ReliabilityPrior)
    ncs: cardinal.NcsHyperparams = field(default_factory=cardinal.NcsHyperparams)
    tie_epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        _check_iterations(self.iterations)
        _check_tie_epsilon(self.tie_epsilon)


# name -> (family, with_reliability, needs_cardinal)
_REGISTRY: dict[str, tuple[str, bool, bool]] = {
    "scavg": ("scavg", False, True),
    "ncs": ("ncs", False, True),
    "ncs+g": ("ncs", True, True),
    "mal": ("mal", False, False),
    "mal+g": ("mal", True, False),
    "malbc": ("malbc", False, False),
    "malbc+g": ("malbc", True, False),
    "mal+k": ("mal+k", False, False),
    "mal+kg": ("mal+k", True, False),
    "mals": ("mals", False, False),
    "mals+g": ("mals", True, False),
    "bt": ("bt", False, False),
    "bt+g": ("bt", True, False),
    "thur": ("thur", False, False),
    "thur+g": ("thur", True, False),
    "pl": ("pl", False, False),
    "pl+g": ("pl", True, False),
}

MODEL_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def model_uses_reliability(name: str) -> bool:
    if name not in _REGISTRY:
        raise ValidationError(f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}")
    return _REGISTRY[name][1]


def fit_model(name: str, data: Dataset, options: ModelOptions | None = None) -> Estimate:
    """Fit the named model and return its estimate.

    Cardinal models (scavg, ncs*) require numeric grades from every grader;
    all other models consume the ordinal feedback (attached automatically
    when a dataset is built from grades).
    """
    if name not in _REGISTRY:
        raise ValidationError(f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}")
    options = options or ModelOptions()
    family, with_rel, needs_cardinal = _REGISTRY[name]
    if needs_cardinal and not data.has_full_cardinal():
        raise ValidationError(f"model {name!r} needs cardinal grades from every grader")
    if not needs_cardinal and not data.has_full_ordinal():
        raise ValidationError(f"model {name!r} needs ordinal feedback from every grader")

    if family == "scavg":
        est = cardinal.scavg(data, tie_epsilon=options.tie_epsilon)
    elif family == "ncs":
        est = cardinal.ncs_fit(
            data,
            options.ncs,
            iterations=options.iterations,
            with_bias_and_reliability=with_rel,
            reliability_prior=options.reliability_prior,
            tie_epsilon=options.tie_epsilon,
        )
    elif family in ("mal", "malbc", "mal+k"):
        est = mallows.fit_mallows(
            data,
            use_borda=family == "malbc",
            kemenize=family == "mal+k",
            with_reliability=with_rel,
            iterations=options.iterations,
            reliability_prior=options.reliability_prior,
            seed=options.seed,
        )
    else:
        est = scoremodels.fit(
            family,
            data,
            seed=options.seed,
            with_reliability=with_rel,
            score_prior=options.score_prior,
            reliability_prior=options.reliability_prior,
            tie_epsilon=options.tie_epsilon,
        )
    # Every family builds a fresh metadata dict per fit, so naming the model in place touches no other estimate.
    est.metadata["model"] = name
    return est
