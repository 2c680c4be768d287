"""Weak rankings (orderings with ties).

A weak ranking is an ordered sequence of tie groups, best group first.
The rank of an item is 1 + the number of items in strictly better groups,
so tied items share a rank and rank 1 is best.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

import numpy as np

from .errors import ValidationError

__all__ = ["WeakRanking", "ranking_from_scores", "break_ties"]


class WeakRanking:
    """Immutable ordering of item ids with ties.

    ``groups`` is a tuple of tie groups (tuples of item ids, each sorted
    lexicographically), best group first. Items appear exactly once.
    """

    __slots__ = ("_groups", "_rank")

    def __init__(self, groups: Iterable[Iterable[str]]):
        canon: list[tuple[str, ...]] = []
        rank: dict[str, int] = {}
        for group in groups:
            g = tuple(sorted(group))
            if not g:
                raise ValidationError("tie groups must be non-empty")
            # 1 + the number of items in better groups, all of them ranked by now.
            first = len(rank) + 1
            for item in g:
                if not isinstance(item, str) or not item:
                    raise ValidationError(f"item ids must be non-empty strings, got {item!r}")
                if item in rank:
                    raise ValidationError(f"item {item!r} appears in more than one tie group")
                rank[item] = first
            canon.append(g)
        if not canon:
            raise ValidationError("a ranking must contain at least one tie group")
        self._groups, self._rank = tuple(canon), rank

    @classmethod
    def from_order(cls, order: Iterable[str]) -> "WeakRanking":
        """Build a total order (all groups singletons), best first."""
        items = tuple(order)
        if not (set(map(type, items)) == {str} and all(items) and len(set(items)) == len(items)):
            # The constructor takes str subclasses, and raises the error of anything else.
            return cls([item] for item in items)
        ranking = cls.__new__(cls)
        ranking._groups, ranking._rank = tuple(zip(items)), dict(zip(items, range(1, len(items) + 1)))
        return ranking

    @property
    def groups(self) -> tuple[tuple[str, ...], ...]:
        return self._groups

    @property
    def items(self) -> frozenset[str]:
        return frozenset(self._rank)

    @property
    def is_total(self) -> bool:
        return len(self._groups) == len(self._rank)

    def __len__(self) -> int:
        return len(self._rank)

    def __contains__(self, item: str) -> bool:
        return item in self._rank

    def rank_of(self, item: str) -> int:
        try:
            return self._rank[item]
        except KeyError:
            raise ValidationError(f"item {item!r} is not ranked") from None

    def ranks(self) -> dict[str, int]:
        """Item -> rank map (1 + number of strictly better items)."""
        return dict(self._rank)

    def order(self) -> tuple[str, ...]:
        """Items best to worst; only defined for total orders."""
        if not self.is_total:
            raise ValidationError("ranking contains ties; no unique total order")
        return tuple(g[0] for g in self._groups)

    def restrict(self, subset: Iterable[str]) -> "WeakRanking":
        """Ranking induced on ``subset``, dropping groups that become empty."""
        keep = set(subset)
        missing = keep - self._rank.keys()
        if missing:
            raise ValidationError(f"cannot restrict to unranked items: {sorted(missing)}")
        groups = [tuple(x for x in g if x in keep) for g in self._groups]
        return WeakRanking(g for g in groups if g)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeakRanking):
            return NotImplemented
        return self._groups == other._groups

    def __hash__(self) -> int:
        return hash(self._groups)

    def __repr__(self) -> str:
        body = " > ".join("{" + ",".join(g) + "}" for g in self._groups)
        return f"WeakRanking({body})"


def _check_tie_epsilon(tie_epsilon: float) -> None:
    if not (tie_epsilon >= 0.0 and math.isfinite(tie_epsilon)):
        raise ValidationError(f"tie_epsilon must be finite and >= 0, got {tie_epsilon}")


def ranking_from_scores(scores: Mapping[str, float], tie_epsilon: float = 1e-9) -> WeakRanking:
    """Rank items by descending score, merging near-ties into tie groups.

    Items whose scores differ by at most ``tie_epsilon`` are merged, applied
    transitively along the sorted score sequence (a chain of small gaps forms
    one group even if its endpoints differ by more than the epsilon).
    """
    if not scores:
        raise ValidationError("scores must be non-empty")
    _check_tie_epsilon(tie_epsilon)
    for item, s in scores.items():
        if not math.isfinite(s):
            raise ValidationError(f"score for {item!r} is not finite: {s}")
    ordered = sorted(scores, key=lambda x: (-scores[x], x))
    groups: list[list[str]] = [[ordered[0]]]
    for prev, item in zip(ordered, ordered[1:]):
        if scores[prev] - scores[item] <= tie_epsilon:
            groups[-1].append(item)
        else:
            groups.append([item])
    return WeakRanking(groups)


def break_ties(ranking: WeakRanking, rng: np.random.Generator) -> WeakRanking:
    """Total order obtained by shuffling each tie group with ``rng``, best group first."""
    return WeakRanking.from_order([g[i] for g in ranking.groups for i in rng.permutation(len(g))])
