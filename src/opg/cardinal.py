"""Cardinal baselines: per-item averaging and a normal grading model.

The normal model treats each observed grade as the item's latent score plus
a grader bias and zero-mean normal noise with per-grader precision (the
reliability). Priors: normal on scores and biases, gamma on reliabilities.
The plain variant fixes all reliabilities at 1 and uses no bias, which
makes the MAP scores a closed-form shrunken mean; the "+g" variant
maximizes the joint posterior by exact coordinate updates.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .config import _ETA_BOUNDS, ReliabilityPrior, _check_iterations
from .data import Dataset, Estimate
from .errors import ValidationError
from .rankings import WeakRanking, ranking_from_scores

__all__ = ["NcsHyperparams", "scavg", "ncs_fit", "ncs_negative_log_posterior"]

# A "+g" fit has converged once its last round moved no log(eta) by more than this.
_SETTLED_LOG_ETA = 1e-5


@dataclass(frozen=True)
class NcsHyperparams:
    """Priors for the normal grading model.

    ``mu0`` is the score prior mean (None uses the grand mean of all
    observed grades), ``gamma0`` the score prior precision and ``gamma1``
    the bias prior precision.
    """

    mu0: float | None = None
    gamma0: float = 0.1
    gamma1: float = 1.0

    def __post_init__(self) -> None:
        if self.mu0 is not None and not math.isfinite(self.mu0):
            raise ValidationError("mu0 must be finite")
        for name in ("gamma0", "gamma1"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValidationError(f"{name} must be finite and > 0, got {v}")


def _cardinal_observations(data: Dataset) -> tuple[list[str], tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """(items, graders, item_idx, grader_idx, grades) for all observations, read from
    ``data.cardinal_arrays``: grader by grader in feedback order, each grader's items sorted.
    The graders are a tuple, so they equal a roster of exactly the graders with feedback."""
    if not data.feedback:
        raise ValidationError("dataset has no feedback")
    offsets, ii, yy = data.cardinal_arrays
    gg = np.repeat(np.arange(len(data.feedback)), np.diff(offsets))
    return list(data.items), tuple(fb.grader for fb in data.feedback), ii, gg, yy


def scavg(data: Dataset, tie_epsilon: float = 1e-9) -> Estimate:
    """Score each item by the mean of its grades.

    Items nobody graded get no score and form a final tie group (with a
    warning).
    """
    items, _, ii, _, yy = _cardinal_observations(data)
    n = len(items)
    counts = np.bincount(ii, minlength=n)
    sums = np.bincount(ii, weights=yy, minlength=n)
    scores = {items[i]: float(sums[i] / counts[i]) for i in range(n) if counts[i] > 0}
    ungraded = [items[i] for i in range(n) if counts[i] == 0]
    ranking = ranking_from_scores(scores, tie_epsilon)
    if ungraded:
        warnings.warn(f"items never graded by anyone form the last tie group: {ungraded}", stacklevel=2)
        ranking = WeakRanking(list(ranking.groups) + [tuple(ungraded)])
    return Estimate(ranking=ranking, scores=scores, metadata={"model": "scavg"})


def ncs_negative_log_posterior(
    data: Dataset,
    scores: Mapping[str, float],
    biases: Mapping[str, float],
    reliabilities: Mapping[str, float],
    hp: NcsHyperparams | None = None,
    *,
    reliability_prior: ReliabilityPrior | None = None,
) -> tuple[float, dict[str, float], dict[str, float], dict[str, float]]:
    """Joint negative log-posterior of the normal model, with gradients.

    Returns (value, score gradient, bias gradient, reliability gradient);
    additive constants independent of all parameters are dropped.
    """
    hp = hp or NcsHyperparams()
    prior = reliability_prior or ReliabilityPrior()
    items, graders, ii, gg, yy = _cardinal_observations(data)
    mu0 = float(np.mean(yy)) if hp.mu0 is None else hp.mu0
    s = np.array([float(scores[d]) for d in items])
    b = np.array([float(biases[g]) for g in graders])
    eta = np.array([float(reliabilities[g]) for g in graders])
    if not (np.all(np.isfinite(eta)) and np.all(eta > 0)):
        raise ValidationError("reliabilities must be finite and > 0")
    r = yy - s[ii] - b[gg]
    n_g = np.bincount(gg, minlength=len(graders)).astype(float)
    value = (
        0.5 * hp.gamma0 * float(((s - mu0) ** 2).sum())
        + 0.5 * hp.gamma1 * float((b**2).sum())
        + float((eta / prior.scale - (prior.shape - 1.0) * np.log(eta)).sum())
        - 0.5 * float((n_g * np.log(eta)).sum())
        + 0.5 * float((eta[gg] * r**2).sum())
    )
    grad_s = hp.gamma0 * (s - mu0) - np.bincount(ii, weights=eta[gg] * r, minlength=len(items))
    grad_b = hp.gamma1 * b - np.bincount(gg, weights=eta[gg] * r, minlength=len(graders))
    ssr = np.bincount(gg, weights=r**2, minlength=len(graders))
    grad_eta = 1.0 / prior.scale - (prior.shape - 1.0) / eta - 0.5 * n_g / eta + 0.5 * ssr
    return (
        value,
        {d: float(grad_s[i]) for i, d in enumerate(items)},
        {g: float(grad_b[i]) for i, g in enumerate(graders)},
        {g: float(grad_eta[i]) for i, g in enumerate(graders)},
    )


def ncs_fit(
    data: Dataset,
    hp: NcsHyperparams | None = None,
    *,
    iterations: int = 10,
    with_bias_and_reliability: bool = False,
    reliability_prior: ReliabilityPrior | None = None,
    tie_epsilon: float = 1e-9,
) -> Estimate:
    """MAP scores under the normal grading model.

    Plain variant: reliabilities fixed at 1, no bias; the posterior mode is
    the closed form (gamma0 * mu0 + sum of grades) / (gamma0 + count) per
    item. "+g" variant: exact coordinate updates of scores, biases, and
    reliabilities for ``iterations`` rounds, under ``reliability_prior``.
    Biases are constrained to sum to zero; the bias step maximizes the
    conditional posterior subject to that constraint, so each round is
    monotone in the constrained joint posterior. Reliabilities are clamped
    to [1e-3, 1e3]. ``metadata`` of a "+g" fit records the largest change
    of log(eta) in each round (``reliability_change``) and whether the last
    one is at most 1e-5 (``converged``); the rounds run are ``iterations``
    either way.

    Items nobody graded get the prior mean as score, with a warning; a "+g"
    fit gives roster graders without feedback the reliability prior's mode,
    kept in [1e-3, 1e3], and bias 0, the bias prior's mean, outside the
    sum-to-zero constraint.
    """
    hp = hp or NcsHyperparams()
    prior = reliability_prior or ReliabilityPrior()
    _check_iterations(iterations)
    items, graders, ii, gg, yy = _cardinal_observations(data)
    n, g_count = len(items), len(graders)
    mu0 = float(np.mean(yy)) if hp.mu0 is None else hp.mu0
    n_d = np.bincount(ii, minlength=n).astype(float)
    ungraded = [items[i] for i in range(n) if n_d[i] == 0]
    if ungraded:
        warnings.warn(f"items never graded by anyone get the prior mean: {ungraded}", stacklevel=2)

    # Plain closed form doubles as the +g initialization.
    s = (hp.gamma0 * mu0 + np.bincount(ii, weights=yy, minlength=n)) / (hp.gamma0 + n_d)
    reliabilities = None
    metadata: dict = {"model": "ncs", "mu0": mu0}
    if with_bias_and_reliability:
        b = np.zeros(g_count)
        eta = np.ones(g_count)
        n_g = np.bincount(gg, minlength=g_count).astype(float)
        changes: list[float] = []
        for _ in range(iterations):
            # Scores: precision-weighted mean of prior and bias-corrected grades.
            w = np.bincount(ii, weights=eta[gg], minlength=n)
            wy = np.bincount(ii, weights=eta[gg] * (yy - b[gg]), minlength=n)
            s = (hp.gamma0 * mu0 + wy) / (hp.gamma0 + w)
            # Biases: conditional maximizer subject to sum(b) = 0.
            t = np.bincount(gg, weights=yy - s[ii], minlength=g_count)
            denom = hp.gamma1 + eta * n_g
            lam = float((eta * t / denom).sum() / (1.0 / denom).sum())
            b = (eta * t - lam) / denom
            # Reliabilities: gamma-posterior mode from squared residuals.
            r = yy - s[ii] - b[gg]
            ssr = np.bincount(gg, weights=r**2, minlength=g_count)
            new_eta = (prior.shape - 1.0 + 0.5 * n_g) / (1.0 / prior.scale + 0.5 * ssr)
            new_eta = np.clip(new_eta, *_ETA_BOUNDS)
            changes.append(float(np.abs(np.log(new_eta) - np.log(eta)).max()))
            eta = new_eta
        reliabilities, biases = prior._by_grader(data.graders, graders, eta), dict(zip(graders, b.tolist()))
        metadata = {
            "model": "ncs+g",
            "mu0": mu0,
            "biases": biases if graders == data.graders else {**dict.fromkeys(data.graders, 0.0), **biases},
            "reliability_change": changes,
            "converged": bool(changes) and changes[-1] <= _SETTLED_LOG_ETA,
        }
    scores = {items[i]: float(s[i]) for i in range(n)}
    return Estimate(
        ranking=ranking_from_scores(scores, tie_epsilon),
        scores=scores,
        reliabilities=reliabilities,
        metadata=metadata,
    )
