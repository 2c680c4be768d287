import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from opg.errors import ValidationError
from opg.rankings import WeakRanking, break_ties, kendall_tau_distance, ranking_from_scores
from oracles import (
    PreferencePair,
    consistent_total_orders,
    extract_preferences,
    score_weighted_kt_distance,
)


@st.composite
def weak_rankings(draw, min_items=1, max_items=7):
    n = draw(st.integers(min_items, max_items))
    items = [f"x{i}" for i in range(n)]
    perm = draw(st.permutations(items))
    cuts = draw(st.sets(st.integers(1, n - 1)) if n > 1 else st.just(set()))
    bounds = [0, *sorted(cuts), n]
    groups = [perm[a:b] for a, b in zip(bounds, bounds[1:])]
    return WeakRanking(groups)


class TestWeakRanking:
    def test_groups_canonical_and_rank(self):
        r = WeakRanking([("b", "a"), ("c",)])
        assert r.groups == (("a", "b"), ("c",))
        assert r.rank_of("a") == 1
        assert r.rank_of("b") == 1
        assert r.rank_of("c") == 3
        assert len(r) == 3
        assert not r.is_total

    def test_equality_ignores_within_group_order(self):
        assert WeakRanking([("a", "b")]) == WeakRanking([("b", "a")])
        assert hash(WeakRanking([("a", "b")])) == hash(WeakRanking([("b", "a")]))
        assert WeakRanking([("a",), ("b",)]) != WeakRanking([("b",), ("a",)])

    def test_validation(self):
        with pytest.raises(ValidationError):
            WeakRanking([("a",), ("a",)])
        with pytest.raises(ValidationError):
            WeakRanking([()])
        with pytest.raises(ValidationError):
            WeakRanking([("",)])
        with pytest.raises(ValidationError):
            WeakRanking([])

    def test_restrict(self):
        r = WeakRanking([("a", "b"), ("c",), ("d",)])
        assert r.restrict({"b", "d"}) == WeakRanking([("b",), ("d",)])
        with pytest.raises(ValidationError):
            r.restrict({"z"})

    def test_order_requires_total(self):
        assert WeakRanking.from_order(["c", "a"]).order() == ("c", "a")
        with pytest.raises(ValidationError):
            WeakRanking([("a", "b")]).order()

    def test_preference_pair_distinct(self):
        assert PreferencePair("a", "b").better == "a"
        with pytest.raises(ValidationError):
            PreferencePair("a", "a")

    @given(weak_rankings())
    def test_ranks_match_definition(self, r):
        better = 0
        for group in r.groups:
            for item in group:
                assert r.rank_of(item) == 1 + better
            better += len(group)


class TestExtractPreferences:
    def test_strict_chain_all_pairs(self):
        r = WeakRanking([("a",), ("b",), ("c",)])
        assert extract_preferences(r) == {
            PreferencePair("a", "b"),
            PreferencePair("a", "c"),
            PreferencePair("b", "c"),
        }

    def test_all_tied_no_pairs(self):
        assert extract_preferences(WeakRanking([("a", "b")])) == set()

    def test_cross_group_only(self):
        r = WeakRanking([("a", "b"), ("c",)])
        assert extract_preferences(r) == {PreferencePair("a", "c"), PreferencePair("b", "c")}

    @given(weak_rankings())
    def test_count_formula(self, r):
        sizes = [len(g) for g in r.groups]
        expected = sum(a * b for a, b in itertools.combinations(sizes, 2))
        prefs = extract_preferences(r)
        assert len(prefs) == expected
        n = len(r)
        assert (len(prefs) == n * (n - 1) // 2) == r.is_total


class TestKendallTau:
    def test_identity(self):
        r = WeakRanking.from_order(["a", "b", "c"])
        assert kendall_tau_distance(r, r) == 0

    def test_reversal(self):
        r1 = WeakRanking.from_order(["a", "b", "c"])
        r2 = WeakRanking.from_order(["c", "b", "a"])
        assert kendall_tau_distance(r1, r2) == 3

    def test_two_swaps(self):
        r1 = WeakRanking.from_order(["a", "b", "c", "d"])
        r2 = WeakRanking.from_order(["b", "a", "d", "c"])
        assert kendall_tau_distance(r1, r2) == 2

    def test_rejects_ties_and_mismatch(self):
        with pytest.raises(ValidationError):
            kendall_tau_distance(WeakRanking([("a", "b")]), WeakRanking.from_order(["a", "b"]))
        with pytest.raises(ValidationError):
            kendall_tau_distance(
                WeakRanking.from_order(["a", "b"]), WeakRanking.from_order(["a", "c"])
            )

    @given(st.integers(1, 7), st.randoms(use_true_random=False))
    def test_symmetric_and_complementary(self, n, rnd):
        items = [f"x{i}" for i in range(n)]
        p1 = items[:]
        p2 = items[:]
        rnd.shuffle(p1)
        rnd.shuffle(p2)
        r1, r2 = WeakRanking.from_order(p1), WeakRanking.from_order(p2)
        d12 = kendall_tau_distance(r1, r2)
        assert d12 == kendall_tau_distance(r2, r1)
        assert d12 == oracles.inversions(p1, p2)
        reversed_r2 = WeakRanking.from_order(p2[::-1])
        assert d12 + kendall_tau_distance(r1, reversed_r2) == n * (n - 1) // 2


class TestScoreWeightedKt:
    def test_zero_on_identity(self):
        r = WeakRanking.from_order(["a", "b"])
        assert score_weighted_kt_distance(r, r, {"a": 2.0, "b": 1.0}) == 0.0

    def test_single_inversion_weight(self):
        r1 = WeakRanking.from_order(["a", "b"])
        r2 = WeakRanking.from_order(["b", "a"])
        assert score_weighted_kt_distance(r1, r2, {"a": 2.0, "b": 1.0}) == pytest.approx(1.0)

    def test_equal_scores_zero(self):
        r1 = WeakRanking.from_order(["a", "b", "c"])
        r2 = WeakRanking.from_order(["c", "b", "a"])
        scores = {d: 1.5 for d in "abc"}
        assert score_weighted_kt_distance(r1, r2, scores) == 0.0

    def test_requires_score_sorted_first_argument(self):
        r1 = WeakRanking.from_order(["b", "a"])
        with pytest.raises(ValidationError):
            score_weighted_kt_distance(
                r1, WeakRanking.from_order(["a", "b"]), {"a": 2.0, "b": 1.0}
            )

    def test_two_items_gap_times_kendall(self):
        # with a single pair the weighted distance is exactly gap * distance
        r1 = WeakRanking.from_order(["a", "b"])
        r2 = WeakRanking.from_order(["b", "a"])
        scores = {"a": 0.7, "b": 0.2}
        expected = 0.5 * kendall_tau_distance(r1, r2)
        assert score_weighted_kt_distance(r1, r2, scores) == pytest.approx(expected)

    @given(st.integers(2, 6), st.randoms(use_true_random=False))
    def test_matches_pair_sum_oracle(self, n, rnd):
        items = [f"x{i}" for i in range(n)]
        scores = {d: float(10 - 2 * i + (i % 2)) for i, d in enumerate(items)}
        ordered = sorted(items, key=lambda d: -scores[d])
        other = items[:]
        rnd.shuffle(other)
        pos = {d: i for i, d in enumerate(other)}
        expected = sum(
            scores[a] - scores[b]
            for i, a in enumerate(ordered)
            for b in ordered[i + 1 :]
            if pos[a] > pos[b]
        )
        got = score_weighted_kt_distance(
            WeakRanking.from_order(ordered), WeakRanking.from_order(other), scores
        )
        assert got == pytest.approx(expected)


class TestRankingFromScores:
    def test_descending(self):
        assert ranking_from_scores({"a": 2.0, "b": 1.0}) == WeakRanking([("a",), ("b",)])

    def test_exact_tie(self):
        assert ranking_from_scores({"a": 1.0, "b": 1.0}) == WeakRanking([("a", "b")])

    def test_epsilon_merge_transitive(self):
        eps = 1e-6
        scores = {"a": 1.0, "b": 1.0 + eps / 2, "c": 0.0}
        assert ranking_from_scores(scores, tie_epsilon=eps) == WeakRanking([("a", "b"), ("c",)])

    def test_chain_merge(self):
        # consecutive gaps each within epsilon collapse into one group
        scores = {"a": 0.0, "b": 1e-10, "c": 2e-10}
        assert ranking_from_scores(scores, tie_epsilon=1e-10) == WeakRanking([("a", "b", "c")])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            ranking_from_scores({"a": float("nan")})
        with pytest.raises(ValidationError):
            ranking_from_scores({})

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
    def test_zero_epsilon_distinct_scores_total(self, raw):
        scores = {f"x{i}": float(v) + i * 1e3 for i, v in enumerate(raw)}
        r = ranking_from_scores(scores, tie_epsilon=0.0)
        assert r.is_total
        ordered = r.order()
        vals = [scores[d] for d in ordered]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestHelpers:
    def test_break_ties_deterministic_and_consistent(self):
        r = WeakRanking([("a", "b"), ("c",)])
        t1 = break_ties(r, np.random.default_rng(5))
        t2 = break_ties(r, np.random.default_rng(5))
        assert t1 == t2
        assert t1.is_total
        assert t1.order().index("c") == 2

    def test_consistent_total_orders(self):
        r = WeakRanking([("a", "b"), ("c",)])
        orders = set(consistent_total_orders(r))
        assert orders == {("a", "b", "c"), ("b", "a", "c")}

    @settings(max_examples=30)
    @given(weak_rankings(max_items=5))
    def test_consistent_count(self, r):
        import math

        expected = math.prod(math.factorial(len(g)) for g in r.groups)
        assert sum(1 for _ in consistent_total_orders(r)) == expected
