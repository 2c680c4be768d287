"""Dataset containers: per-grader feedback, datasets, their compiled arrays, and estimates."""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import Any, NamedTuple

import numpy as np

from .errors import ValidationError
from .rankings import WeakRanking, ranking_from_scores

__all__ = ["GraderFeedback", "Dataset", "FeedbackArrays", "EndTable", "Estimate", "induced_ordinal"]


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
        item_set = frozenset(items)
        if not items:
            raise ValidationError(f"grader {self.grader!r} has no items")
        if len(item_set) != len(items):
            raise ValidationError(f"grader {self.grader!r} lists duplicate items")
        object.__setattr__(self, "items", items)
        if self.ordinal is None and self.cardinal is None:
            raise ValidationError(f"grader {self.grader!r} has neither ordinal nor cardinal feedback")
        if self.ordinal is not None and self.ordinal.items != item_set:
            raise ValidationError(f"ordinal feedback of grader {self.grader!r} does not cover its items")
        if self.cardinal is not None:
            if self.cardinal.keys() != item_set:
                raise ValidationError(f"cardinal feedback of grader {self.grader!r} does not cover its items")
            for item, grade in self.cardinal.items():
                if not math.isfinite(grade):
                    raise ValidationError(
                        f"grade of grader {self.grader!r} for item {item!r} is not finite: {grade}"
                    )
            object.__setattr__(self, "cardinal", dict(self.cardinal))

    @classmethod
    def _unchecked(cls, grader: str, items: tuple[str, ...], ordinal, cardinal) -> "GraderFeedback":
        """A record of checked fields, set as the dataclass sets them: inline, with no ``__dict__``."""
        fb, set_field = object.__new__(cls), object.__setattr__
        set_field(fb, "grader", grader)
        set_field(fb, "items", items)
        set_field(fb, "ordinal", ordinal)
        set_field(fb, "cardinal", cardinal)
        return fb

    @classmethod
    def from_ordinal(cls, grader: str, ranking: WeakRanking) -> "GraderFeedback":
        """Ordinal feedback; a ``WeakRanking`` already holds unique items, so only the id is checked."""
        if not isinstance(grader, str) or not grader:
            raise ValidationError(f"grader id must be a non-empty string, got {grader!r}")
        return cls._unchecked(grader, tuple(sorted(ranking._rank)), ranking, None)

    def _renamed(self, grader: str) -> "GraderFeedback":
        """This record under another grader id, copied without repeating the checks it passed."""
        return self._unchecked(grader, self.items, self.ordinal, self.cardinal)

    @classmethod
    def from_cardinal(cls, grader: str, grades: Mapping[str, float]) -> "GraderFeedback":
        """Cardinal feedback with the induced ordinal ranking attached."""
        return cls(
            grader=grader,
            items=tuple(grades),
            ordinal=induced_ordinal(grades),
            cardinal=dict(grades),
        )


@dataclass(frozen=True)
class Dataset:
    """Item and grader rosters plus at most one feedback record per grader.

    Every value derived from the records (``feedback_arrays``, the compiled
    ordinal feedback; ``cardinal_arrays``, see ``_scan_grades``;
    ``has_full_ordinal()``, ``has_full_cardinal()`` and ``_feedback_graders``),
    and the ``feedback`` of a ``_derived`` dataset, follows one rule, and is
    kept once made. The code that builds the dataset presets it, or leaves a
    callable that makes it on first read; where it does neither, or the
    callable returns None, its default maker in ``_MAKERS`` makes it then from
    the records, by a compile, a gather or a scan. Both parses preset one
    kind of arrays and leave the other and the records to callables: a JSON
    parse (``dataio._compiled``) presets ``feedback_arrays`` and makes
    ``cardinal_arrays`` from its grade maps, a CSV parse
    (``dataio._parse_cardinal_rows``) presets ``cardinal_arrays`` and
    compiles the rankings its grades induce. A grader subset
    (``experiments._select_graders``) leaves callables that gather from its
    parent's. Equality, ``repr``, ``dataclasses.replace``, pickling, copying
    and writing the dataset out read the records; the fits and the
    protocols' grader resampling do not.
    """

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
            if not item_set.issuperset(fb.items):
                extra = set(fb.items) - item_set
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

    @classmethod
    def _derived(cls, items: tuple[str, ...], graders: tuple[str, ...], lazy: frozenset[str],
                 later: dict[str, Callable[[], Any]], **preset: Any) -> "Dataset":
        """The dataset of checked rosters whose derived values, ``feedback`` among them, are ``preset`` or
        made on first read by the callables of ``later``, under the rule of ``Dataset``."""
        data = object.__new__(cls)
        vars(data).update(items=items, graders=graders, lazy_graders=lazy, _later=later, **preset)
        return data

    def __getattr__(self, name: str) -> Any:
        # Reached only for a name not in ``vars``: a derived value read for the first time, made and kept here.
        later = vars(self).get("_later", {}).get(name)
        value = later() if later else None
        if value is None:
            if name not in _MAKERS:
                raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
            value = _MAKERS[name](self)
        vars(self)[name] = value
        return value

    def __reduce__(self) -> tuple:
        # Pickle and copy rebuild the dataset from its fields, so its cached arrays are derived again, read-only.
        return type(self), (self.items, self.graders, self.feedback, self.lazy_graders)

    def has_full_ordinal(self) -> bool:
        return self._full_ordinal

    def has_full_cardinal(self) -> bool:
        return self._full_cardinal


def _scan_grades(data: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The default maker of ``cardinal_arrays``: every grader's grades, read from the records, as the
    read-only CSR arrays (offsets, item, grade) of ``_grade_csr``, graders in ``feedback`` order."""
    for fb in data.feedback:
        if fb.cardinal is None:
            raise ValidationError(f"grader {fb.grader!r} has no cardinal feedback")
    return _grade_arrays(data.items, [fb.cardinal for fb in data.feedback])


def _grade_arrays(items: tuple[str, ...], maps: list) -> tuple[np.ndarray, ...] | None:
    """The ``cardinal_arrays`` of one grade map per grader over the roster ``items``, or None if a grader has
    none: the one layout of grade maps, of the records and of the JSON parse."""
    if None in maps:
        return None
    index = dict(zip(items, range(len(items))))
    grader = np.repeat(np.arange(len(maps)), list(map(len, maps)))
    item = np.fromiter(map(index.__getitem__, chain.from_iterable(maps)), np.intp)
    grade = np.fromiter(chain.from_iterable(map(dict.values, maps)), float)
    return _grade_csr(grader, item, grade, len(maps))


def _grade_csr(grader: np.ndarray, item: np.ndarray, grade: np.ndarray, n_graders: int) -> tuple[np.ndarray, ...]:
    """Grades given entry by entry, as a grader, an item and a grade array, laid out as read-only CSR arrays
    (offsets, item, grade): grader g's grades are the slice ``offsets[g]:offsets[g + 1]``, by item index."""
    order = np.lexsort((item, grader))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(grader, minlength=n_graders))))
    return _read_only(offsets, item[order], grade[order])


# The default maker of each derived value of a ``Dataset``, from its records.
_MAKERS: dict[str, Callable[[Dataset], Any]] = {
    "feedback_arrays": lambda data: FeedbackArrays.build(data),
    "cardinal_arrays": _scan_grades,
    "_full_ordinal": lambda data: all(fb.ordinal is not None for fb in data.feedback),
    "_full_cardinal": lambda data: all(fb.cardinal is not None for fb in data.feedback),
    # The roster itself where it lists the graders in feedback order, as from records: no copy is kept.
    "_feedback_graders": lambda data: data.graders if (g := tuple(fb.grader for fb in data.feedback)) == data.graders else g,
}


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _csr_take(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR offsets of the rows ``rows`` of a layout, and the old index of each of their entries."""
    counts = offsets[rows + 1] - offsets[rows]
    taken = np.concatenate(([0], np.cumsum(counts)))
    return taken, np.repeat(offsets[rows] - taken[:-1], counts) + np.arange(taken[-1])


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)``: the distinct rows in signed lexicographic
    order and each row's index among them, from one ``lexsort`` and a compare of adjacent rows."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _strict_pairs(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The position pairs i < j of an (m, G) block's ``ranks`` in row-major order, and the (pairs, G)
    mask of those each grader ranks strictly, which i wins: the one enumeration of strict pairs."""
    first, second = np.triu_indices(len(ranks), 1)
    return first, second, ranks[first] < ranks[second]


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of keys in [0, ``bound``): of 16-bit keys a radix sort."""
    return np.argsort(keys.astype(np.uint16) if bound <= 1 << 16 else keys, kind="stable")


class EndTable(NamedTuple):
    """Every strict pair listed under each of its two items, item by item: item d's ends are the
    slice ``offsets[d]:offsets[d + 1]``, in pair order (by grader, then over the grader's entries
    i < j in row-major order), as listed from the strict masks of ``FeedbackArrays.blocks``."""

    offsets: np.ndarray  # (n + 1,) CSR offsets of each item's ends
    other: np.ndarray  # (2P,) int32: the other item of the end's pair
    key: np.ndarray  # (2P,) int32: 2 * grader of the pair + (1 if the end's item loses it)


@dataclass(frozen=True, eq=False)
class FeedbackArrays:
    """Every grader's ordinal feedback as read-only integer arrays, one entry per ranked item.

    ``_compile`` lays them out from each entry's item index, each tie group's
    size and each grader's number of groups, which ``build`` (a dataset's
    default maker of them), the JSON parse and the CSV parse each map from
    their own input; ``take`` gathers a grader subset's from its parent's,
    for ``experiments._select_graders``.
    Items are indices into the ``n_items`` sorted ``Dataset.items``; graders
    are positions in ``Dataset.feedback``. Grader g's entries are the slice
    ``offsets[g]:offsets[g + 1]`` (a CSR layout), best tie group first and
    lexicographic within a group, as in ``WeakRanking.ranks()``. ``blocks``,
    which every ordinal model reads, groups the graders by ranking length,
    each group with its strict-pair masks, on first use and keeps them: 0.5
    MB for 6,000 graders of 7 items. ``ends``, read only by the Mallows
    centres, lists the strict pairs item by item from those masks on first
    use and keeps them: 16 bytes a pair, 2.0 MB for the same graders.
    ``_unit_centers`` keeps the Mallows centres at reliabilities 1 that
    ``mallows._Centers.unit`` computes for the fits and for the helpers called
    without reliabilities: at most three read-only orders of the n items (the
    greedy center, its local Kemenization and the Borda order), 8n bytes each,
    plus the Borda cuts. ``_solved_reliabilities`` keeps, per
    ``ReliabilityPrior`` and per tie pattern (a ``coeff`` row, see
    ``_tie_patterns``), the η of each X from 0 to the pattern's p strict
    pairs, NaN until a ``mallows.fit_mallows`` round solves it: p + 1 floats
    per pattern and prior, 22 for 7 items ranked strictly. The first round
    solves every X where the patterns take no more values of X than there
    are graders (see ``mallows._reliabilities``). ``take`` hands the table to
    the subset it gathers, so a later round, fit or grader subset of the same
    ``coeff`` width solves nothing it holds; a copy, a pickle or a
    ``dataclasses.replace`` has arrays of its own, which keep nothing yet.
    """

    graders: tuple[str, ...]
    n_items: int
    offsets: np.ndarray  # (G + 1,) CSR offsets into the entry arrays
    item: np.ndarray  # (E,) item of each entry
    rank: np.ndarray  # (E,) 1 + number of the grader's items in strictly better groups
    coeff: np.ndarray  # (C, max items) distinct rows A_i = (tie groups of size >= i) - 1 for i <= |D_g|, else 0
    grader_coeff: np.ndarray  # (G,) row of coeff of each grader

    @classmethod
    def build(cls, data: Dataset) -> "FeedbackArrays":
        """Compile ``data``'s feedback; every grader must have ordinal feedback."""
        for fb in data.feedback:
            if fb.ordinal is None:
                raise ValidationError(f"grader {fb.grader!r} has no ordinal feedback")
        rankings = [fb.ordinal.groups for fb in data.feedback]
        groups = list(chain.from_iterable(rankings))
        index = dict(zip(data.items, range(len(data.items))))
        item = np.fromiter(map(index.__getitem__, chain.from_iterable(groups)), np.int32)
        sizes = np.fromiter(map(len, groups), np.intp, len(groups))
        per_grader = np.fromiter(map(len, rankings), np.intp, len(rankings))
        return cls._compile(tuple(fb.grader for fb in data.feedback), len(data.items), item, sizes, per_grader)

    @classmethod
    def _compile(cls, graders: tuple[str, ...], n_items: int, item: np.ndarray, sizes: np.ndarray,
                 per_grader: np.ndarray) -> "FeedbackArrays":
        """The arrays of ``graders``' rankings, given as each entry's ``item`` index, ranking after ranking,
        best tie group first and ascending within a group, each tie group's size in ``sizes`` and each
        grader's number of groups in ``per_grader``: the one layout from item indices, of ``build`` and of
        both parses, each of which maps and checks its own input."""
        n_graders = len(per_grader)
        # A tie group's entries share the rank 1 + its first entry's place in its grader's slice.
        ends = np.cumsum(sizes)
        offsets = np.concatenate(([0], ends[np.cumsum(per_grader) - 1]))
        group_grader = np.repeat(np.arange(n_graders), per_grader)
        rank = np.repeat(ends - sizes - offsets[group_grader] + 1, sizes).astype(np.int32)
        counts = np.diff(offsets)
        mmax = int(counts.max()) if n_graders else 1
        per_size = np.bincount(group_grader * mmax + sizes - 1, minlength=n_graders * mmax)
        at_least = per_size.reshape(n_graders, mmax)[:, ::-1].cumsum(axis=1)[:, ::-1]
        coeff, grader_coeff = _distinct_rows(at_least - (np.arange(mmax) < counts[:, None]))
        arrays = offsets, item.astype(np.int32, copy=False), rank, coeff.astype(float), grader_coeff.astype(np.int32)
        return cls(graders, n_items, *_read_only(*arrays))

    def _records(self, items: tuple[str, ...], grades: list) -> tuple[GraderFeedback, ...]:
        """Every grader's record, built unchecked: its ranking over the roster ``items`` as ``_compile`` took
        it in, and its entry of ``grades`` (a grade map or None per grader, in ``graders`` order). A tie group
        starts at each entry whose rank is its 1-based place in its grader's slice."""
        ids = [items[i] for i in self.item.tolist()]
        entry_grader = np.repeat(np.arange(len(self.graders)), np.diff(self.offsets))
        starts = np.flatnonzero(self.rank == np.arange(len(ids)) - self.offsets[entry_grader] + 1)
        firsts, starts = np.searchsorted(starts, self.offsets).tolist(), starts.tolist() + [len(ids)]
        groups = list(zip(ids)) if len(starts) > len(ids) else [tuple(ids[a:b]) for a, b in zip(starts, starts[1:])]
        slices, ranks = list(map(slice, bounds := self.offsets.tolist(), bounds[1:])), self.rank.tolist()
        rank_maps = map(dict, map(zip, map(ids.__getitem__, slices), map(ranks.__getitem__, slices)))
        rankings = list(map(WeakRanking._of, map(tuple, map(groups.__getitem__, map(slice, firsts, firsts[1:]))), rank_maps))
        ranked = map(tuple, map(sorted, map(attrgetter("_rank"), rankings)))
        return tuple(map(GraderFeedback._unchecked, self.graders, ranked, rankings, grades))

    def take(self, rows: np.ndarray, graders: tuple[str, ...]) -> "FeedbackArrays":
        """The arrays of the graders at positions ``rows``, in that order, named ``graders``: equal,
        array for array, to ``build`` on their feedback. Unused ``coeff`` rows go, and the rest lose
        the columns past the widest grader, zero in every kept row, so their order stays."""
        offsets, entries = _csr_take(self.offsets, rows)
        used, grader_coeff = np.unique(self.grader_coeff[rows], return_inverse=True)
        coeff = self.coeff[used, : int(np.diff(offsets).max()) if len(rows) else 1]
        arrays = offsets, self.item[entries], self.rank[entries], coeff, grader_coeff.astype(np.int32).ravel()
        taken = FeedbackArrays(graders, self.n_items, *_read_only(*arrays))
        vars(taken)["_solved_reliabilities"] = self._solved_reliabilities
        return taken

    @cached_property
    def blocks(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Per ranking length m, ascending, read-only: its graders, ascending, their entries, (m, G) by
        grader column, and the ``_strict_pairs`` (first, second, strict) of their ranks."""
        counts, blocks = np.diff(self.offsets), []
        for m in np.flatnonzero(np.bincount(counts)).tolist():  # np.unique would import numpy.ma, ~15 ms
            graders = np.flatnonzero(counts == m)
            entries = self.offsets[graders] + np.arange(m)[:, None]
            blocks.append(_read_only(graders, entries, *_strict_pairs(self.rank[entries])))
        return tuple(blocks)

    @cached_property
    def ends(self) -> EndTable:
        """Every block's strict pairs, put in pair order by a stable sort on grader where the graders
        of several blocks interleave, then listed under each of their items by a stable sort on item."""
        pairs = [np.empty((3, 0), dtype=np.int32)]
        for graders, entries, first, second, strict in self.blocks:
            items, mine = self.item[entries], strict.T
            grader = np.repeat(graders.astype(np.int32), np.count_nonzero(strict, axis=0))
            pairs.append(np.stack((items[first].T[mine], items[second].T[mine], grader)))
        winner, loser, grader = np.concatenate(pairs, axis=1)
        if len(self.blocks) > 1:
            in_order = _stable_order(grader, len(self.graders))
            winner, loser, grader = winner[in_order], loser[in_order], grader[in_order]
        # End 2p is pair p's winner and end 2p + 1 its loser.
        item = np.stack((winner, loser), axis=1).ravel()
        by_item = _stable_order(item, self.n_items)
        other = np.stack((loser, winner), axis=1).ravel()[by_item]
        key = np.stack((2 * grader, 2 * grader + 1), axis=1).ravel()[by_item]
        offsets = np.concatenate(([0], np.cumsum(np.bincount(item, minlength=self.n_items))))
        return EndTable(*_read_only(offsets, other, key))

    @cached_property
    def _unit_centers(self) -> dict[str, tuple[np.ndarray, ...]]:
        """The Mallows centres at reliabilities 1 by kind, each filled in once by ``mallows._Centers.unit``."""
        return {}

    @cached_property
    def _tie_patterns(self) -> tuple[list[bytes], np.ndarray, np.ndarray]:
        """Per ``coeff`` row, its key in ``_solved_reliabilities`` (the row's bytes) and the p + 1 values its
        X can take, where p = -sum_i (i - 1)*A_i is its number of strict pairs; per grader, where its row's
        values start when they are laid out row after row. The row alone fixes a Mallows reliability
        problem, and its bytes hold its width, so a narrower subset keys problems of its own."""
        counts = 1 - (self.coeff @ np.arange(self.coeff.shape[1])).astype(np.intp)
        keys = [row.tobytes() for row in self.coeff]
        return keys, counts, (np.cumsum(counts) - counts)[self.grader_coeff]

    @cached_property
    def _solved_reliabilities(self) -> dict[Any, dict[bytes, np.ndarray]]:
        """Per prior, per tie pattern, the η of each X, NaN until ``mallows._reliabilities`` solves it; ``take``
        hands it on."""
        return {}


@dataclass(frozen=True)
class Estimate:
    """Result of an estimation run.

    ``ranking`` always covers the estimator's item roster. ``scores`` and
    ``reliabilities`` are present only for models that produce them.
    ``metadata`` records run details such as the solver's steps and whether it converged.
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
