"""Dataset containers: per-grader feedback, datasets, their compiled arrays, and estimates."""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from .errors import ValidationError
from .rankings import WeakRanking, ranking_from_scores

__all__ = ["GraderFeedback", "Dataset", "FeedbackArrays", "Estimate", "induced_ordinal"]


def induced_ordinal(grades: Mapping[str, float]) -> WeakRanking:
    """Ordinal ranking induced by cardinal grades: descending, exact ties grouped."""
    return ranking_from_scores(grades, tie_epsilon=0.0)


@dataclass(frozen=True)
class GraderFeedback:
    """One grader's feedback on the items they graded.

    At least one of ``ordinal`` (a weak ranking over exactly ``items``) and
    ``cardinal`` (item -> grade) must be present. Treat instances as
    immutable after construction.
    """

    grader: str
    items: tuple[str, ...]
    ordinal: WeakRanking | None = None
    cardinal: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.grader, str) or not self.grader:
            raise ValidationError(f"grader id must be a non-empty string, got {self.grader!r}")
        items = tuple(sorted(self.items))
        if not items:
            raise ValidationError(f"grader {self.grader!r} has no items")
        if len(set(items)) != len(items):
            raise ValidationError(f"grader {self.grader!r} lists duplicate items")
        object.__setattr__(self, "items", items)
        if self.ordinal is None and self.cardinal is None:
            raise ValidationError(f"grader {self.grader!r} has neither ordinal nor cardinal feedback")
        if self.ordinal is not None and self.ordinal.items != frozenset(items):
            raise ValidationError(f"ordinal feedback of grader {self.grader!r} does not cover its items")
        if self.cardinal is not None:
            if set(self.cardinal) != set(items):
                raise ValidationError(f"cardinal feedback of grader {self.grader!r} does not cover its items")
            for item, grade in self.cardinal.items():
                if not math.isfinite(grade):
                    raise ValidationError(
                        f"grade of grader {self.grader!r} for item {item!r} is not finite: {grade}"
                    )
            object.__setattr__(self, "cardinal", dict(self.cardinal))

    @classmethod
    def from_ordinal(cls, grader: str, ranking: WeakRanking) -> "GraderFeedback":
        return cls(grader=grader, items=tuple(sorted(ranking.items)), ordinal=ranking)

    @classmethod
    def from_cardinal(cls, grader: str, grades: Mapping[str, float]) -> "GraderFeedback":
        """Cardinal feedback with the induced ordinal ranking attached."""
        return cls(
            grader=grader,
            items=tuple(sorted(grades)),
            ordinal=induced_ordinal(grades),
            cardinal=dict(grades),
        )


@dataclass(frozen=True)
class Dataset:
    """Item and grader rosters plus at most one feedback record per grader."""

    items: tuple[str, ...]
    graders: tuple[str, ...]
    feedback: tuple[GraderFeedback, ...]
    lazy_graders: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        items = tuple(sorted(self.items))
        graders = tuple(sorted(self.graders))
        if len(set(items)) != len(items):
            raise ValidationError("item roster contains duplicates")
        if len(set(graders)) != len(graders):
            raise ValidationError("grader roster contains duplicates")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "graders", graders)
        object.__setattr__(self, "feedback", tuple(self.feedback))
        object.__setattr__(self, "lazy_graders", frozenset(self.lazy_graders))
        item_set = set(items)
        grader_set = set(graders)
        seen: set[str] = set()
        for fb in self.feedback:
            if fb.grader not in grader_set:
                raise ValidationError(f"feedback from unknown grader {fb.grader!r}")
            if fb.grader in seen:
                raise ValidationError(f"grader {fb.grader!r} has more than one feedback record")
            seen.add(fb.grader)
            extra = set(fb.items) - item_set
            if extra:
                raise ValidationError(f"grader {fb.grader!r} graded unknown items: {sorted(extra)}")
        unknown_lazy = self.lazy_graders - grader_set
        if unknown_lazy:
            raise ValidationError(f"lazy labels for unknown graders: {sorted(unknown_lazy)}")

    @classmethod
    def from_feedback(
        cls,
        feedback: Iterable[GraderFeedback],
        items: Iterable[str] | None = None,
        lazy_graders: Iterable[str] = (),
    ) -> "Dataset":
        """Build a dataset, deriving rosters from the feedback when omitted."""
        records = sorted(feedback, key=lambda fb: fb.grader)
        graders = tuple(fb.grader for fb in records)
        if items is None:
            roster: set[str] = set()
            for fb in records:
                roster.update(fb.items)
            items = roster
        return cls(
            items=tuple(sorted(items)),
            graders=graders,
            feedback=tuple(records),
            lazy_graders=frozenset(lazy_graders),
        )

    def feedback_map(self) -> dict[str, GraderFeedback]:
        return {fb.grader: fb for fb in self.feedback}

    def has_full_ordinal(self) -> bool:
        return all(fb.ordinal is not None for fb in self.feedback)

    def has_full_cardinal(self) -> bool:
        return all(fb.cardinal is not None for fb in self.feedback)

    @cached_property
    def feedback_arrays(self) -> "FeedbackArrays":
        """The ordinal feedback compiled to integer arrays, built on first use."""
        return FeedbackArrays.build(self)


@dataclass(frozen=True, eq=False)
class FeedbackArrays:
    """Every grader's ordinal feedback as read-only integer arrays.

    Items are indices into the sorted ``Dataset.items``; graders are
    positions in ``Dataset.feedback``. Grader g's entries are the slice
    ``offsets[g]:offsets[g + 1]`` (a CSR layout), best tie group first and
    lexicographic within a group, which is the order of
    ``WeakRanking.ranks()``. Strict pairs run grader by grader and, within
    a grader, over its entries i < j in row-major order.
    """

    graders: tuple[str, ...]
    offsets: np.ndarray  # (G + 1,) CSR offsets into the entry arrays
    item: np.ndarray  # (E,) item of each entry
    rank: np.ndarray  # (E,) 1 + number of the grader's items in strictly better groups
    winner: np.ndarray  # (P,) better item of each strict pair
    loser: np.ndarray  # (P,) worse item of each strict pair
    pair_grader: np.ndarray  # (P,) grader of each strict pair
    coeff: np.ndarray  # (C, max items) distinct rows A_i = (tie groups of size >= i) - 1 for i <= |D_g|, else 0
    grader_coeff: np.ndarray  # (G,) row of coeff of each grader
    incident_offsets: np.ndarray  # (n + 1,) CSR offsets of each item's pairs
    incident: np.ndarray  # (2P,) each item's pairs in pair order, as 2 * pair + (1 if it is the loser)

    @classmethod
    def build(cls, data: Dataset) -> "FeedbackArrays":
        """Compile ``data``'s feedback; every grader must have ordinal feedback."""
        rankings = []
        for fb in data.feedback:
            if fb.ordinal is None:
                raise ValidationError(f"grader {fb.grader!r} has no ordinal feedback")
            rankings.append(fb.ordinal)
        n, n_graders = len(data.items), len(rankings)
        index = {d: i for i, d in enumerate(data.items)}
        counts = np.fromiter((len(r) for r in rankings), dtype=np.intp, count=n_graders)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        n_entries = int(offsets[-1])
        item = np.fromiter(
            (index[d] for r in rankings for g in r.groups for d in g), dtype=np.int32, count=n_entries
        )
        del index
        n_groups = np.fromiter((len(r.groups) for r in rankings), dtype=np.intp, count=n_graders)
        sizes = np.fromiter((len(g) for r in rankings for g in r.groups), dtype=np.intp, count=int(n_groups.sum()))
        group_grader = np.repeat(np.arange(n_graders), n_groups)
        group_start = np.cumsum(sizes) - sizes
        rank = np.repeat(group_start - offsets[group_grader] + 1, sizes).astype(np.int32)

        mmax = int(counts.max()) if n_graders else 1
        per_size = np.bincount(group_grader * mmax + sizes - 1, minlength=n_graders * mmax)
        at_least = per_size.reshape(n_graders, mmax)[:, ::-1].cumsum(axis=1)[:, ::-1]
        coeff, grader_coeff = np.unique(at_least - (np.arange(mmax) < counts[:, None]), axis=0, return_inverse=True)
        del n_groups, sizes, group_grader, group_start, per_size, at_least

        # Every entry pairs with the entries after it in its grader's slice.
        entry_grader = np.repeat(np.arange(n_graders), counts)
        after = offsets[entry_grader + 1] - np.arange(n_entries) - 1
        first = np.repeat(np.arange(n_entries), after)
        block = np.cumsum(after) - after
        second = first + 1 + np.arange(len(first)) - np.repeat(block, after)
        del after, block
        strict = rank[first] != rank[second]
        first, second = first[strict], second[strict]
        del strict
        winner, loser = item[first], item[second]
        pair_grader = entry_grader[first].astype(np.int32)
        del first, second, entry_grader

        ends = np.stack([winner, loser], axis=1).ravel()
        incident = np.argsort(ends, kind="stable").astype(np.int32)
        incident_offsets = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=n))))
        del ends

        arrays = cls(
            tuple(fb.grader for fb in data.feedback), offsets, item, rank, winner, loser, pair_grader,
            coeff.astype(float), grader_coeff.astype(np.int32).ravel(), incident_offsets, incident,
        )
        for value in vars(arrays).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        return arrays


@dataclass(frozen=True)
class Estimate:
    """Result of an estimation run.

    ``ranking`` always covers the estimator's item roster. ``scores`` and
    ``reliabilities`` are present only for models that produce them.
    ``metadata`` records run details such as seeded tie-breaking.
    """

    ranking: WeakRanking
    scores: dict[str, float] | None = None
    reliabilities: dict[str, float] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scores is not None:
            unknown = set(self.scores) - self.ranking.items
            if unknown:
                raise ValidationError(f"scores for unranked items: {sorted(unknown)}")
            for item, s in self.scores.items():
                if not math.isfinite(s):
                    raise ValidationError(f"estimated score for {item!r} is not finite: {s}")
        if self.reliabilities is not None:
            for grader, eta in self.reliabilities.items():
                if not (math.isfinite(eta) and eta > 0):
                    raise ValidationError(f"reliability of {grader!r} must be finite and > 0, got {eta}")
