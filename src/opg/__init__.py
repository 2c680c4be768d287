"""Ordinal peer grading: rank aggregation and grade estimation from peer feedback.

Peer feedback arrives as rankings (possibly with ties) or numeric grades.
The estimators here merge it into one ordering or score vector, optionally
learning how reliable each grader is along the way. See :data:`MODEL_NAMES`
for the available methods and :func:`fit_model` for the entry point.
"""

from .config import ReliabilityPrior, ScorePrior
from .data import Dataset, Estimate, GraderFeedback, induced_ordinal
from .errors import DataFormatError, EnumerationCapError, OpgError, ValidationError
from .estimators import MODEL_NAMES, ModelOptions, fit_model
from .metrics import TargetSet, cardinal_errors, ek_error, strict_pair_count, tau_kt
from .rankings import WeakRanking, break_ties, ranking_from_scores
from .synth import (
    CardinalNormalGraders,
    MallowsGraders,
    NormalTruth,
    SynthConfig,
    add_lazy_graders,
    sample_mallows_feedback,
    simulate,
    strip_lazy,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CardinalNormalGraders",
    "DataFormatError",
    "Dataset",
    "EnumerationCapError",
    "Estimate",
    "GraderFeedback",
    "MallowsGraders",
    "MODEL_NAMES",
    "ModelOptions",
    "NormalTruth",
    "OpgError",
    "ReliabilityPrior",
    "ScorePrior",
    "SynthConfig",
    "TargetSet",
    "ValidationError",
    "WeakRanking",
    "add_lazy_graders",
    "break_ties",
    "cardinal_errors",
    "ek_error",
    "fit_model",
    "induced_ordinal",
    "ranking_from_scores",
    "sample_mallows_feedback",
    "simulate",
    "strict_pair_count",
    "strip_lazy",
    "tau_kt",
]
