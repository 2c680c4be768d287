import itertools
import math
import warnings

import numpy as np
import pytest

import oracles
from conftest import make_ordinal_dataset, random_weak_ranking
from opg.config import ReliabilityPrior
from opg.data import Dataset, GraderFeedback
from opg.errors import ValidationError
from opg.experiments import _resample_graders
from opg.mallows import (
    MallowsParams,
    borda_ranking,
    fit_mallows,
    fit_reliabilities,
    greedy_mle_ranking,
    local_kemenization,
    mallows_log_likelihood,
    mallows_log_normalizer,
    mallows_normalizer,
    _slot_weights,
    weighted_kendall_cost,
)
from opg.rankings import WeakRanking


class TestNormalizer:
    def test_single_item(self):
        assert mallows_normalizer(1.0, 1) == pytest.approx(1.0)

    def test_two_items(self):
        assert mallows_normalizer(1.0, 2) == pytest.approx(1.0 + math.exp(-1.0), rel=1e-12)

    def test_three_items(self):
        expected = (1.0 + math.exp(-1.0)) * (1.0 + math.exp(-1.0) + math.exp(-2.0))
        assert mallows_normalizer(1.0, 3) == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            mallows_normalizer(1.0, 0)
        with pytest.raises(ValidationError):
            mallows_normalizer(0.0, 3)
        with pytest.raises(ValidationError):
            mallows_normalizer(-1.0, 3)

    @pytest.mark.parametrize("eta", [0.1, 1.0, 3.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_brute_force(self, eta, k):
        brute = oracles.mallows_normalizer_brute(eta, k)
        assert mallows_normalizer(eta, k) == pytest.approx(brute, rel=1e-9)


class TestLogLikelihood:
    def _feedback(self, groups):
        return GraderFeedback.from_ordinal("g", WeakRanking(groups))

    def test_all_tied_is_certain(self):
        center = WeakRanking.from_order(["a", "b", "c"])
        fb = self._feedback([("a", "b", "c")])
        assert mallows_log_likelihood(center, fb, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_agreeing_total_order(self):
        center = WeakRanking.from_order(["a", "b", "c"])
        fb = self._feedback([("a",), ("b",), ("c",)])
        expected = -mallows_log_normalizer(1.0, 3)
        assert mallows_log_likelihood(center, fb, 1.0) == pytest.approx(expected, rel=1e-12)
        # -log((1 + e**-1) * (1 + e**-1 + e**-2)), frozen from the closed form.
        assert expected == pytest.approx(-0.7208676519626033, rel=1e-12)

    def test_leading_tie_pair(self):
        center = WeakRanking.from_order(["a", "b", "c"])
        fb = self._feedback([("a", "b"), ("c",)])
        expected = mallows_log_normalizer(1.0, 2) - mallows_log_normalizer(1.0, 3)
        assert mallows_log_likelihood(center, fb, 1.0) == pytest.approx(expected, rel=1e-12)
        brute = oracles.mallows_likelihood_brute(["a", "b", "c"], [["a", "b"], ["c"]], 1.0)
        assert mallows_log_likelihood(center, fb, 1.0) == pytest.approx(
            math.log(brute), rel=1e-12
        )

    def test_subset_of_center(self):
        center = WeakRanking.from_order(["a", "b", "c", "d", "e"])
        fb = self._feedback([("d",), ("b",)])
        brute = oracles.mallows_likelihood_brute(["b", "d"], [["d"], ["b"]], 2.0)
        assert mallows_log_likelihood(center, fb, 2.0) == pytest.approx(
            math.log(brute), rel=1e-9
        )

    @pytest.mark.parametrize("eta", [0.1, 1.0, 3.0])
    def test_matches_brute_force_random_tie_patterns(self, eta, rng):
        items = [f"x{i}" for i in range(6)]
        for trial in range(25):
            m = int(rng.integers(2, 7))
            subset = sorted(rng.choice(items, size=m, replace=False).tolist())
            center_order = [d for d in items if d in subset]
            groups = random_weak_ranking(rng, subset)
            fb = self._feedback(groups)
            center = WeakRanking.from_order(center_order)
            brute = oracles.mallows_likelihood_brute(center_order, groups, eta)
            got = mallows_log_likelihood(center, fb, eta)
            assert got == pytest.approx(math.log(brute), rel=1e-9)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_probabilities_sum_to_one_over_total_orders(self, m):
        items = [f"x{i}" for i in range(m)]
        center = WeakRanking.from_order(items)
        total = 0.0
        for perm in itertools.permutations(items):
            fb = self._feedback([(d,) for d in perm])
            total += math.exp(mallows_log_likelihood(center, fb, 1.3))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_requires_ordinal(self):
        center = WeakRanking.from_order(["a", "b"])
        fb = GraderFeedback(
            grader="g", items=("a", "b"), ordinal=None, cardinal={"a": 1.0, "b": 2.0}
        )
        with pytest.raises(ValidationError):
            mallows_log_likelihood(center, fb, 1.0)


class TestGreedy:
    def test_single_grader_reproduced(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"], ["c"]]})
        assert greedy_mle_ranking(data) == WeakRanking.from_order(["a", "b", "c"])

    def test_two_identical_graders(self):
        groups = [["b"], ["c"], ["a"]]
        data = make_ordinal_dataset({"g1": groups, "g2": groups})
        assert greedy_mle_ranking(data) == WeakRanking.from_order(["b", "c", "a"])

    def test_majority_matches_exhaustive_kemeny(self):
        data = make_ordinal_dataset(
            {
                "g1": [["a"], ["b"], ["c"]],
                "g2": [["a"], ["b"], ["c"]],
                "g3": [["b"], ["c"], ["a"]],
            }
        )
        result = greedy_mle_ranking(data)
        assert result == WeakRanking.from_order(["a", "b", "c"])
        feedbacks = [([["a"], ["b"], ["c"]], 1.0)] * 2 + [([["b"], ["c"], ["a"]], 1.0)]
        _, best_cost = oracles.exhaustive_kemeny(["a", "b", "c"], feedbacks)
        got_cost = oracles.kemeny_cost(list(result.order()), feedbacks)
        assert got_cost == pytest.approx(best_cost)

    def test_empty_dataset_rejected(self):
        data = Dataset(items=("a",), graders=(), feedback=())
        with pytest.raises(ValidationError):
            greedy_mle_ranking(data)

    def test_ungraded_items_appended_with_warning(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]]}, items=("a", "b", "z"))
        with pytest.warns(UserWarning):
            result = greedy_mle_ranking(data)
        assert result.order() == ("a", "b", "z")

    def test_grader_relabeling_invariance(self, rng):
        items = [f"x{i}" for i in range(5)]
        rankings = {}
        for g in range(4):
            rankings[f"g{g}"] = random_weak_ranking(rng, items)
        relabeled = {f"zz{g}": groups for g, groups in enumerate(rankings.values())}
        assert greedy_mle_ranking(make_ordinal_dataset(rankings)) == greedy_mle_ranking(
            make_ordinal_dataset(relabeled)
        )

    def test_reliability_scaling_invariance(self, rng):
        items = [f"x{i}" for i in range(5)]
        rankings = {f"g{g}": random_weak_ranking(rng, items) for g in range(4)}
        data = make_ordinal_dataset(rankings)
        etas = {f"g{g}": float(rng.uniform(0.2, 3.0)) for g in range(4)}
        scaled = {g: 7.5 * e for g, e in etas.items()}
        assert greedy_mle_ranking(data, MallowsParams(etas)) == greedy_mle_ranking(
            data, MallowsParams(scaled)
        )

    def test_greedy_near_kemeny_on_random_instances(self, rng):
        # small instances: greedy+kemenization should usually hit the optimum
        hits = 0
        trials = 40
        for _ in range(trials):
            n = int(rng.integers(3, 6))
            items = [f"x{i}" for i in range(n)]
            rankings = {}
            for g in range(int(rng.integers(2, 5))):
                m = int(rng.integers(2, n + 1))
                subset = sorted(rng.choice(items, size=m, replace=False).tolist())
                rankings[f"g{g}"] = random_weak_ranking(rng, subset)
            data = make_ordinal_dataset(rankings, items=tuple(items))
            polished = local_kemenization(greedy_mle_ranking(data), data)
            feedbacks = [(rankings[g], 1.0) for g in sorted(rankings)]
            _, best = oracles.exhaustive_kemeny(items, feedbacks)
            got = oracles.kemeny_cost(list(polished.order()), feedbacks)
            assert got <= best * 1.5 + 1e-9
            if got <= best + 1e-9:
                hits += 1
        assert hits >= trials * 0.7


class TestBorda:
    def test_single_grader(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"], ["c"]]})
        assert borda_ranking(data) == WeakRanking.from_order(["a", "b", "c"])

    def test_symmetric_pair_ties(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]], "g2": [["b"], ["a"]]})
        assert borda_ranking(data) == WeakRanking([("a", "b")])

    def test_average_rank_example(self):
        data = make_ordinal_dataset(
            {"g1": [["a"], ["b"], ["c"]], "g2": [["b"], ["a"], ["c"]]}
        )
        assert borda_ranking(data) == WeakRanking([("a", "b"), ("c",)])

    def test_ungraded_items_last_group_with_warning(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]]}, items=("a", "b", "y", "z"))
        with pytest.warns(UserWarning):
            result = borda_ranking(data)
        assert result.groups[-1] == ("y", "z")

    def test_reliability_weighting_moves_average(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]], "g2": [["b"], ["a"]]})
        params = MallowsParams({"g1": 3.0, "g2": 1.0})
        assert borda_ranking(data, params) == WeakRanking.from_order(["a", "b"])


class TestLocalKemenization:
    def test_already_optimal_unchanged(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"], ["c"]]})
        r = WeakRanking.from_order(["a", "b", "c"])
        assert local_kemenization(r, data) == r

    def test_single_swap(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]], "g2": [["a"], ["b"]]})
        out = local_kemenization(WeakRanking.from_order(["b", "a"]), data)
        assert out == WeakRanking.from_order(["a", "b"])

    def test_full_reversal_recovered(self):
        groups = [["a"], ["b"], ["c"]]
        data = make_ordinal_dataset({f"g{i}": groups for i in range(3)})
        out = local_kemenization(WeakRanking.from_order(["c", "b", "a"]), data)
        assert out == WeakRanking.from_order(["a", "b", "c"])

    def test_never_increases_cost(self, rng):
        items = [f"x{i}" for i in range(6)]
        for _ in range(25):
            rankings = {f"g{g}": random_weak_ranking(rng, items) for g in range(3)}
            data = make_ordinal_dataset(rankings)
            start = WeakRanking.from_order([items[i] for i in rng.permutation(6)])
            out = local_kemenization(start, data)
            assert weighted_kendall_cost(out, data) <= weighted_kendall_cost(start, data) + 1e-12

    def test_requires_total_input(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]]})
        with pytest.raises(ValidationError):
            local_kemenization(WeakRanking([("a", "b")]), data)


def _grid_search_eta(x_cross: int, group_sizes: list[int], m: int, prior: ReliabilityPrior):
    """Dense grid MAP oracle for a single grader's reliability."""
    etas = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 2_000_001))

    def log_z(eta, k):
        i = np.arange(1, k + 1)[:, None]
        return np.log1p(-np.exp(-i * eta)).sum(axis=0) - k * np.log1p(-np.exp(-eta))

    obj = (prior.shape - 1) * np.log(etas) - etas / prior.scale - etas * x_cross
    obj = obj - log_z(etas, m)
    for size in group_sizes:
        if size > 1:
            obj = obj + log_z(etas, size)
    return float(etas[int(np.argmax(obj))])


class TestFitReliabilities:
    def test_agreement_beats_reversal(self):
        center = WeakRanking.from_order(["a", "b", "c", "d"])
        data = make_ordinal_dataset(
            {
                "good": [["a"], ["b"], ["c"], ["d"]],
                "bad": [["d"], ["c"], ["b"], ["a"]],
            }
        )
        etas = fit_reliabilities(data, center)
        assert etas["good"] > etas["bad"]

    def test_all_ties_gets_prior_mode(self):
        center = WeakRanking.from_order(["a", "b", "c"])
        data = make_ordinal_dataset({"g": [["a", "b", "c"]]})
        etas = fit_reliabilities(data, center)
        assert etas["g"] == pytest.approx(ReliabilityPrior().mode, rel=1e-4)

    def test_missing_feedback_gets_prior_mode(self):
        center = WeakRanking.from_order(["a", "b"])
        fb = (GraderFeedback.from_ordinal("g1", WeakRanking([("a",), ("b",)])),)
        data = Dataset(items=("a", "b"), graders=("g1", "g2"), feedback=fb)
        etas = fit_reliabilities(data, center)
        assert etas["g2"] == pytest.approx(ReliabilityPrior().mode)

    def test_matches_grid_search_oracle(self):
        center = WeakRanking.from_order(["a", "b", "c", "d"])
        # one inversion vs center: b placed above a
        data = make_ordinal_dataset({"g": [["b"], ["a"], ["c"], ["d"]]})
        etas = fit_reliabilities(data, center)
        expected = _grid_search_eta(x_cross=1, group_sizes=[1, 1, 1, 1], m=4, prior=ReliabilityPrior())
        assert etas["g"] == pytest.approx(expected, rel=1e-4)

    def test_grid_oracle_with_ties(self):
        center = WeakRanking.from_order(["a", "b", "c", "d", "e"])
        # groups {a,c} then {b,d,e}: cross pairs inverted vs center = (c,b)? c<b no.
        # cross pairs: (a,b)ok (a,d)ok (a,e)ok (c,b) inverted (c,d)ok (c,e)ok -> X=1
        data = make_ordinal_dataset({"g": [["a", "c"], ["b", "d", "e"]]})
        etas = fit_reliabilities(data, center)
        expected = _grid_search_eta(x_cross=1, group_sizes=[2, 3], m=5, prior=ReliabilityPrior())
        assert etas["g"] == pytest.approx(expected, rel=1e-4)

    def test_identical_graders_identical_reliability(self):
        center = WeakRanking.from_order(["a", "b", "c"])
        data = make_ordinal_dataset(
            {"g1": [["b"], ["a"], ["c"]], "g2": [["b"], ["a"], ["c"]]}
        )
        etas = fit_reliabilities(data, center)
        assert etas["g1"] == pytest.approx(etas["g2"], rel=1e-12)

    def test_custom_prior_respected(self):
        center = WeakRanking.from_order(["a", "b", "c"])
        data = make_ordinal_dataset({"g": [["a", "b", "c"]]})
        prior = ReliabilityPrior(shape=4.0, scale=0.5)
        etas = fit_reliabilities(data, center, prior=prior)
        assert etas["g"] == pytest.approx(prior.mode, rel=1e-4)


class TestFitMallows:
    def test_plain_metadata(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"], ["c"]]})
        est = fit_mallows(data)
        assert est.ranking == WeakRanking.from_order(["a", "b", "c"])
        assert est.reliabilities is None
        assert est.metadata["kemenized"] is False

    def test_borda_plus_kemenize_rejected(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]]})
        with pytest.raises(ValidationError):
            fit_mallows(data, use_borda=True, kemenize=True)

    def test_reliability_fit_returns_positive_etas(self):
        data = make_ordinal_dataset(
            {
                "g1": [["a"], ["b"], ["c"], ["d"]],
                "g2": [["a"], ["b"], ["c"], ["d"]],
                "g3": [["d"], ["c"], ["b"], ["a"]],
            }
        )
        est = fit_mallows(data, with_reliability=True, iterations=3)
        assert est.reliabilities is not None
        assert all(v > 0 for v in est.reliabilities.values())
        assert est.reliabilities["g1"] > est.reliabilities["g3"]
        assert est.metadata["reliability_iterations"] == 3

    def test_deterministic_given_seed(self):
        data = make_ordinal_dataset(
            {
                "g1": [["a"], ["b", "c"]],
                "g2": [["b"], ["a", "c"]],
                "g3": [["c"], ["a"], ["b"]],
            }
        )
        a = fit_mallows(data, use_borda=True, with_reliability=True, seed=5)
        b = fit_mallows(data, use_borda=True, with_reliability=True, seed=5)
        assert a.ranking == b.ranking
        assert a.reliabilities == b.reliabilities


VARIANTS = [
    {},
    {"with_reliability": True},
    {"use_borda": True},
    {"use_borda": True, "with_reliability": True},
    {"kemenize": True},
    {"kemenize": True, "with_reliability": True},
]


def _random_dataset(rng, n_items=9, n_graders=8, min_items=2, max_items=6, extra_items=()):
    """Random tied feedback over random subsets of unequal size."""
    items = [f"x{i}" for i in range(n_items)]
    rankings = {}
    for g in range(n_graders):
        m = int(rng.integers(min_items, max_items + 1))
        subset = sorted(rng.choice(items, size=m, replace=False).tolist())
        rankings[f"g{g}"] = random_weak_ranking(rng, subset)
    return make_ordinal_dataset(rankings, items=tuple(items) + tuple(extra_items))


def _learned_params(data):
    """Non-integer reliabilities, as a reliability round would produce."""
    center = oracles.dict_greedy_mle_ranking(data)
    return MallowsParams(oracles.dict_fit_reliabilities(data, center))


@pytest.mark.filterwarnings("ignore:items never graded")
class TestMatchesDictOracles:
    """The compiled-array estimators give exactly the dict-loop answers."""

    def _datasets(self, rng):
        for trial in range(12):
            data = _random_dataset(rng, min_items=1 + trial % 3, max_items=3 + trial % 5)
            yield data, MallowsParams()
            yield data, _learned_params(data)

    def test_greedy(self, rng):
        for data, params in self._datasets(rng):
            assert greedy_mle_ranking(data, params) == oracles.dict_greedy_mle_ranking(data, params)

    def test_borda(self, rng):
        for data, params in self._datasets(rng):
            assert borda_ranking(data, params) == oracles.dict_borda_ranking(data, params)

    def test_pair_weights_match_dense_matrix(self, rng):
        for data, params in self._datasets(rng):
            items, dense = oracles.dict_preference_weights(data, params)
            assert tuple(items) == data.items
            keys, weights = _slot_weights(data, params)
            sparse = np.zeros_like(dense)
            sparse[np.divmod(keys, len(items))] = weights
            assert np.array_equal(sparse, dense)

    def test_kendall_cost_and_kemenization(self, rng):
        for data, params in self._datasets(rng):
            start = WeakRanking.from_order([data.items[i] for i in rng.permutation(len(data.items))])
            assert weighted_kendall_cost(start, data, params) == oracles.dict_weighted_kendall_cost(
                start, data, params
            )
            assert local_kemenization(start, data, params) == oracles.dict_local_kemenization(
                start, data, params
            )

    def test_cross_group_counts(self, rng):
        for data, _ in self._datasets(rng):
            center = WeakRanking.from_order([data.items[i] for i in rng.permutation(len(data.items))])
            arrays = data.feedback_arrays
            position = np.array([center.rank_of(d) for d in data.items])
            against = position[arrays.winner] > position[arrays.loser]
            counts = np.bincount(arrays.pair_grader[against], minlength=len(arrays.graders))
            ranks = center.ranks()
            expected = [oracles.dict_cross_group_disagreements(ranks, fb.ordinal) for fb in data.feedback]
            assert counts.tolist() == expected

    def test_reliabilities(self, rng):
        for data, _ in self._datasets(rng):
            center = WeakRanking.from_order([data.items[i] for i in rng.permutation(len(data.items))])
            assert fit_reliabilities(data, center) == oracles.dict_fit_reliabilities(data, center)

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: "-".join(sorted(v)) or "plain")
    def test_fit_mallows(self, variant, rng):
        for trial in range(6):
            data = _random_dataset(rng, n_items=10, n_graders=12, max_items=3 + trial)
            assert fit_mallows(data, iterations=3, **variant) == oracles.dict_fit_mallows(
                data, iterations=3, **variant
            )

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: "-".join(sorted(v)) or "plain")
    def test_fit_mallows_on_resampled_graders(self, variant, rng):
        base = _random_dataset(rng, n_items=8, n_graders=6)
        for _ in range(4):
            data = _resample_graders(base, rng)
            assert any("#" in g for g in data.graders)
            assert fit_mallows(data, iterations=3, **variant) == oracles.dict_fit_mallows(
                data, iterations=3, **variant
            )

    def test_feedback_without_strict_pairs(self):
        data = make_ordinal_dataset({"g1": [["a", "b"]], "g2": [["c"]], "g3": [["a", "b", "c"]]})
        for variant in VARIANTS:
            assert fit_mallows(data, iterations=2, **variant) == oracles.dict_fit_mallows(
                data, iterations=2, **variant
            )

    def test_ungraded_items_still_warn(self, rng):
        data = _random_dataset(rng, extra_items=("z0", "z1"))
        params = _learned_params(data)
        with pytest.warns(UserWarning, match=r"ranked last: \['z0', 'z1'\]"):
            got = greedy_mle_ranking(data, params)
        with pytest.warns(UserWarning):
            assert got == oracles.dict_greedy_mle_ranking(data, params)
        with pytest.warns(UserWarning, match=r"last tie group: \['z0', 'z1'\]"):
            got = borda_ranking(data, params)
        with pytest.warns(UserWarning):
            assert got == oracles.dict_borda_ranking(data, params)
        with pytest.warns(UserWarning):
            for variant in VARIANTS:
                assert fit_mallows(data, iterations=2, **variant) == oracles.dict_fit_mallows(
                    data, iterations=2, **variant
                )
