import copy
import dataclasses
import importlib.util
import itertools
import math
import os
import pickle
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import oracles
from conftest import make_ordinal_dataset, random_weak_ranking
from opg import experiments, mallows
from opg.config import ReliabilityPrior
from opg.data import Dataset, FeedbackArrays, GraderFeedback
from opg.dataio import (
    _json_text,
    dataset_from_dict,
    estimate_to_dict,
    parse_ordinal_json,
    write_estimate,
    write_ordinal_json,
)
from opg.errors import ValidationError
from opg.estimators import fit_model
from opg.experiments import _resample_graders, _select_graders, bootstrap_ek, downsample_curve, self_consistency
from opg.metrics import TargetSet, ek_error
from opg.mallows import (
    MallowsParams,
    _Centers,
    _newton_etas,
    _positions,
    _weak_ranking,
    borda_ranking,
    fit_mallows,
    fit_reliabilities,
    greedy_mle_ranking,
    local_kemenization,
    mallows_log_likelihood,
    mallows_log_normalizer,
    mallows_normalizer,
    weighted_kendall_cost,
)
from opg.rankings import WeakRanking
from opg.synth import CardinalNormalGraders, MallowsGraders, SynthConfig, simulate
from test_parse_compiled import payloads


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


class TestRefusals:
    """The center and ranking checks of the public helpers, each with its message."""

    data = make_ordinal_dataset({"g1": [["a"], ["b", "c"]], "g2": [["c"], ["a"]]})
    tied = WeakRanking([("a",), ("b", "c")])
    partial = WeakRanking.from_order(["a", "c"])

    def test_fit_reliabilities(self):
        with pytest.raises(ValidationError, match="^center must be a total order$"):
            fit_reliabilities(self.data, self.tied)
        with pytest.raises(ValidationError, match=re.escape("center does not rank items: ['b', 'c']")):
            fit_reliabilities(self.data, WeakRanking.from_order(["a"]))
        with pytest.raises(ValidationError, match=re.escape("center does not rank items: ['b']")):
            fit_reliabilities(self.data, self.partial)

    def test_mallows_log_likelihood(self):
        fb = self.data.feedback[0]
        with pytest.raises(ValidationError, match="^center must be a total order$"):
            mallows_log_likelihood(self.tied, fb, 1.0)
        with pytest.raises(ValidationError, match=re.escape("center does not rank items: ['b']")):
            mallows_log_likelihood(self.partial, fb, 1.0)

    def test_weighted_kendall_cost(self):
        with pytest.raises(ValidationError, match="^cost is defined for total orders only$"):
            weighted_kendall_cost(self.tied, self.data)

    def test_local_kemenization(self):
        with pytest.raises(ValidationError, match="^local improvement requires a total order$"):
            local_kemenization(self.tied, self.data)
        for ranking in (self.partial, WeakRanking.from_order(["a", "b", "c", "d"])):
            with pytest.raises(ValidationError, match="^ranking must cover exactly the dataset's items$"):
                local_kemenization(ranking, self.data)


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

    def test_a_dataset_without_feedback_gets_prior_modes(self):
        data = Dataset(items=("a", "b"), graders=("g1", "g2"), feedback=())
        etas = fit_reliabilities(data, WeakRanking.from_order(["a", "b"]))
        assert etas == {"g1": pytest.approx(ReliabilityPrior().mode), "g2": pytest.approx(ReliabilityPrior().mode)}

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

    def test_a_tied_borda_center_is_broken_in_id_order(self):
        """The first round fits the reliabilities against the Borda center with its ties in id order."""
        data = make_ordinal_dataset(
            {
                "g1": [["a"], ["b", "c"]],
                "g2": [["b"], ["a", "c"]],
                "g3": [["c"], ["a"], ["b"]],
            }
        )
        center = borda_ranking(data)
        assert not center.is_total
        est = fit_mallows(data, use_borda=True, with_reliability=True, iterations=1)
        by_id = WeakRanking.from_order(item for group in center.groups for item in group)
        assert est.reliabilities == fit_reliabilities(data, by_id)
        assert "tie_break" not in est.metadata
        assert fit_mallows(data, use_borda=True, with_reliability=True) == fit_mallows(
            data, use_borda=True, with_reliability=True
        )


VARIANTS = [
    {},
    {"with_reliability": True},
    {"use_borda": True},
    {"use_borda": True, "with_reliability": True},
    {"kemenize": True},
    {"kemenize": True, "with_reliability": True},
]


class TestKemenyCertificate:
    """How far the Mallows centres are from the weighted Kemeny optimum, by ``oracles.kemeny_optimum``."""

    def test_the_integer_program_matches_exhaustive_search(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 7))
            items = [f"x{i}" for i in range(n)]
            feedbacks = []
            for _ in range(int(rng.integers(1, 6))):
                subset = sorted(rng.choice(items, size=int(rng.integers(1, n + 1)), replace=False).tolist())
                feedbacks.append((random_weak_ranking(rng, subset), float(rng.choice([0.5, 1.0, 2.5]))))
            order, cost = oracles.kemeny_optimum(items, feedbacks)
            assert sorted(order) == items and cost == pytest.approx(oracles.kemeny_cost(order, feedbacks))
            assert cost == pytest.approx(oracles.exhaustive_kemeny(items, feedbacks)[1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_centre_beats_the_optimum_at_paper_scale(self, seed):
        data, truth = simulate(SynthConfig(40, 150, 7, seed=seed))
        feedbacks = [([list(g) for g in fb.ordinal.groups], 1.0) for fb in data.feedback]
        _, optimum = oracles.kemeny_optimum(list(data.items), feedbacks)
        w = oracles.pair_weight_matrix(list(data.items), feedbacks)
        assert np.minimum(w, w.T).sum() / 2 <= optimum
        orders = {model: fit_model(model, data).ranking.order() for model in ("mal", "mal+k")}
        orders["truth"] = truth.ranking.order()
        costs = {name: oracles.kemeny_cost(list(order), feedbacks) for name, order in orders.items()}
        print(f"seed {seed}: Kemeny optimum {optimum:g};", ", ".join(
            f"{name} {cost:g} (+{cost / optimum - 1:.1%})" for name, cost in costs.items()))
        assert all(cost >= optimum for cost in costs.values())


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


RELIABILITY_VARIANTS = [variant for variant in VARIANTS if variant.get("with_reliability")]


def _seeded_classes():
    """Small simulated classes, with strict (permutation-noise) and tied (cardinal) feedback."""
    for seed in range(3):
        for graders in (MallowsGraders(1.0), CardinalNormalGraders(1.0, 0.5)):
            cfg = SynthConfig(n_items=20, n_graders=60, items_per_grader=5, grader_model=graders, seed=seed)
            yield simulate(cfg)[0]


PLAIN_VARIANTS = [variant for variant in VARIANTS if not variant.get("with_reliability")]


class TestOnePath:
    """Every fit and public helper runs on ``_Centers``; a plain fit is a ``+g`` fit's first center."""

    def test_helpers_on_a_dataset_without_feedback(self):
        data = Dataset(items=("a", "b", "c"), graders=("g1",), feedback=())
        ranking = WeakRanking.from_order(["b", "a", "c"])
        for params in (None, MallowsParams(), MallowsParams({"g1": 2.0})):
            assert local_kemenization(ranking, data, params) == ranking
            assert weighted_kendall_cost(ranking, data, params) == 0.0
        for estimator in (greedy_mle_ranking, borda_ranking, fit_mallows):
            with pytest.raises(ValidationError, match="^dataset has no feedback$"):
                estimator(data)

    @pytest.mark.parametrize("variant", PLAIN_VARIANTS, ids=lambda v: "-".join(sorted(v)) or "plain")
    def test_a_plain_fit_builds_one_core_and_reads_no_reliabilities(self, variant, rng, monkeypatch):
        calls = {"eta_for": 0, "centers": 0}
        eta_for, init = MallowsParams.eta_for, _Centers.__init__

        def counted_eta_for(self, grader):
            calls["eta_for"] += 1
            return eta_for(self, grader)

        def counted_init(self, data):
            calls["centers"] += 1
            init(self, data)

        data = _random_dataset(rng, extra_items=("z",))
        with pytest.warns(UserWarning, match="never graded"):
            center = borda_ranking(data) if variant.get("use_borda") else greedy_mle_ranking(data)
        want = local_kemenization(center, data) if variant.get("kemenize") else center
        monkeypatch.setattr(MallowsParams, "eta_for", counted_eta_for)
        monkeypatch.setattr(_Centers, "__init__", counted_init)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = fit_mallows(data, **variant)
        where = "form the last tie group" if variant.get("use_borda") else "are ranked last"
        assert [str(w.message) for w in caught] == [f"items never graded by anyone {where}: ['z']"]
        assert calls == {"eta_for": 0, "centers": 1}
        assert est.ranking == want and est.reliabilities is None
        family = "borda" if variant.get("use_borda") else "greedy"
        assert est.metadata == {"family": family, "kemenized": bool(variant.get("kemenize"))}


class TestStoppingAtTheFixedPoint:
    @pytest.mark.parametrize("variant", RELIABILITY_VARIANTS, ids=lambda v: "-".join(sorted(v)))
    def test_stopping_where_the_center_repeats_changes_no_answer(self, variant):
        for data in _seeded_classes():
            full = fit_mallows(data, iterations=10, **variant)
            rounds = full.metadata["rounds"]
            assert full.metadata["converged"] is True and rounds < 10
            for iterations in (rounds, rounds + 1):
                est = fit_mallows(data, iterations=iterations, **variant)
                assert est.ranking == full.ranking
                assert est.reliabilities == full.reliabilities
                assert est.metadata["rounds"] == rounds and est.metadata["converged"] is True

    @pytest.mark.parametrize("variant", RELIABILITY_VARIANTS, ids=lambda v: "-".join(sorted(v)))
    def test_a_fit_cut_off_before_it_settles_is_not_converged(self, variant):
        cut = 0
        for data in _seeded_classes():
            rounds = fit_mallows(data, **variant).metadata["rounds"]
            if rounds > 1:
                est = fit_mallows(data, iterations=rounds - 1, **variant)
                assert est.metadata["converged"] is False and est.metadata["rounds"] == rounds - 1
                cut += 1
        assert cut > 0
        none = fit_mallows(next(_seeded_classes()), iterations=0, **variant)
        assert none.reliabilities is None
        assert none.metadata["rounds"] == 0 and none.metadata["converged"] is False

    def test_one_solver_matches_fresh_searches_on_every_center(self, rng):
        for trial in range(4):
            data = _random_dataset(rng, n_items=6, n_graders=10, max_items=3 + trial)
            arrays = data.feedback_arrays
            for _ in range(15):
                position = rng.permutation(len(data.items))
                center = WeakRanking.from_order([data.items[i] for i in np.argsort(position)])
                expected = oracles.dict_fit_reliabilities(data, center)
                etas, _ = mallows._reliabilities(arrays, position, ReliabilityPrior())
                assert dict(zip(arrays.graders, etas.tolist())) == expected

    def test_a_tied_center_read_as_a_total_order_keeps_id_order(self, rng):
        items = tuple(f"x{i}" for i in range(9))
        index = {d: i for i, d in enumerate(items)}
        for _ in range(20):
            ranking = WeakRanking(random_weak_ranking(rng, list(items)))
            order = np.array([index[d] for g in ranking.groups for d in g])
            cuts = np.cumsum([len(g) for g in ranking.groups])[:-1]
            assert _weak_ranking(items, order, cuts) == ranking
            total = _weak_ranking(items, order, np.arange(1, len(items)))
            assert total == WeakRanking.from_order(d for g in ranking.groups for d in sorted(g))


def _reliability_objective(x, a, eta, prior):
    """f(eta) of one grader's reliability problem, term by term."""
    ll = -eta * x + sum(a_i * math.log(-math.expm1(-i * eta)) for i, a_i in enumerate(a, 1))
    return (prior.shape - 1.0) * math.log(eta) - eta / prior.scale + ll


def _reliability_classes():
    """Seeded 40 x 150 classes of 5, 7 and 9 items per grader, strict and tied,
    each with two random total orders and the greedy ranking as centers."""
    for m in (5, 7, 9):
        for graders in (MallowsGraders(1.0), CardinalNormalGraders(1.0, 0.5)):
            cfg = SynthConfig(n_items=40, n_graders=150, items_per_grader=m, grader_model=graders, seed=m)
            data = simulate(cfg)[0]
            rng = np.random.default_rng(m)
            centers = [WeakRanking.from_order(rng.permutation(data.items).tolist()) for _ in range(2)]
            yield data, centers + [greedy_mle_ranking(data)]


class TestNewtonReliabilities:
    """The Mallows reliability step solves each grader's 1-D MAP problem to the optimum."""

    def test_optimum_matches_a_bounded_scalar_search(self, monkeypatch):
        prior = ReliabilityPrior()
        calls = []
        slopes = mallows._reliability_slopes
        monkeypatch.setattr(mallows, "_reliability_slopes", lambda *args: calls.append(1) or slopes(*args))
        interior = 0
        for data, centers in _reliability_classes():
            for center in centers:
                calls.clear()
                got = fit_reliabilities(data, center, prior)
                # Both bounds, then every Newton step of the slowest problem: a fall-back to bisection needs ~40.
                assert 2 <= len(calls) <= 10
                golden = oracles.golden_fit_reliabilities(data, center, prior)
                graders, xs, coeff = oracles.dict_reliability_problems(data, center)
                solved = {}
                for grader, x, a in zip(graders, xs.tolist(), coeff.tolist()):
                    if (x, tuple(a)) not in solved:
                        solved[x, tuple(a)] = minimize_scalar(
                            lambda z: -_reliability_objective(x, a, 10.0**z, prior),
                            bounds=(-3.0, 3.0), method="bounded", options={"xatol": 1e-10},
                        ).x
                    eta = got[grader]
                    assert abs(math.log10(eta) - solved[x, tuple(a)]) <= 1e-7
                    assert _reliability_objective(x, a, eta, prior) >= _reliability_objective(x, a, golden[grader], prior)
                    if 1e-3 < eta < 1e3:
                        interior += 1
                        g, _ = slopes(np.log([eta]), np.array([x]), np.array([a]), prior)
                        assert abs(g[0]) <= 1e-9 * (1.0 + x)
        assert interior > 0

    def test_slopes_match_finite_differences(self, rng):
        prior = ReliabilityPrior(shape=3.0, scale=0.5)
        h = 1e-5
        for data, centers in _reliability_classes():
            _, xs, coeff = oracles.dict_reliability_problems(data, centers[0])
            for k in rng.choice(len(xs), size=5, replace=False):
                x, a = xs[k], coeff[k]
                u = rng.uniform(math.log(1e-2), math.log(1e2), size=3)
                g, dg = mallows._reliability_slopes(u, np.full(3, x), np.tile(a, (3, 1)), prior)
                for j in range(3):
                    f_up = _reliability_objective(x, a, math.exp(u[j] + h), prior)
                    f_down = _reliability_objective(x, a, math.exp(u[j] - h), prior)
                    assert g[j] == pytest.approx((f_up - f_down) / (2 * h), rel=1e-6, abs=1e-6)
                    ends = np.array([u[j] + h, u[j] - h])
                    g_ends, _ = mallows._reliability_slopes(ends, np.full(2, x), np.tile(a, (2, 1)), prior)
                    assert dg[j] == pytest.approx((g_ends[0] - g_ends[1]) / (2 * h), rel=1e-6, abs=1e-6)

    def test_zero_padding_changes_no_eta(self):
        """A problem's η is the same at every ``coeff`` width, whatever longest ranking its class has:
        the zeros that pad a row to 7-17 columns add nothing to sums taken in order."""
        prior = ReliabilityPrior()
        # Seven items in tie groups of sizes 3, 2, 1, 1, and seven strict ones.
        for row in ([3.0, 1.0, 0.0, -1.0, -1.0, -1.0, -1.0], [6.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0]):
            x = np.arange(22.0)
            etas = [_newton_etas(x, np.tile(row + [0.0] * (width - 7), (len(x), 1)), prior) for width in range(7, 18)]
            assert all(np.array_equal(got, etas[0]) for got in etas[1:])

    def test_optima_beyond_the_bounds_are_clamped_exactly(self):
        strict = np.array([[6.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0]])
        # Every pair of seven items against the center, under a prior without a pull away from 0.
        assert _newton_etas(np.array([21.0]), strict, ReliabilityPrior(shape=1.0, scale=0.1)).tolist() == [1e-3]
        # No pair against the center, under a prior whose mode is 2000.
        assert _newton_etas(np.array([0.0]), strict, ReliabilityPrior(shape=2001.0, scale=1.0)).tolist() == [1e3]

    def test_graders_without_pairs_or_ties_get_the_prior_mode(self):
        data = make_ordinal_dataset(
            {"all-tied": [["a", "b", "c"]], "one-item": [["d"]], "strict": [["a"], ["b"], ["c"], ["d"]]}
        )
        center = WeakRanking.from_order(["b", "a", "d", "c"])
        for prior in (ReliabilityPrior(), ReliabilityPrior(shape=3.0, scale=0.7), ReliabilityPrior(shape=1.0)):
            etas = fit_reliabilities(data, center, prior)
            assert etas["all-tied"] == etas["one-item"] == max(prior.mode, 1e-3)
            assert etas["strict"] != prior.mode

    @pytest.mark.parametrize("variant", RELIABILITY_VARIANTS, ids=lambda v: "-".join(sorted(v)))
    def test_reliability_change_per_round(self, variant):
        for data in _seeded_classes():
            full = fit_mallows(data, iterations=3, **variant)
            changes = full.metadata["reliability_change"]
            assert len(changes) == full.metadata["rounds"] and min(changes) >= 0.0
            # The first round is measured against all reliabilities at 1.
            previous = np.zeros(len(data.graders))
            for rounds in range(1, len(changes) + 1):
                est = fit_mallows(data, iterations=rounds, **variant)
                log_etas = np.log([est.reliabilities[g] for g in data.graders])
                assert est.metadata["reliability_change"] == changes[:rounds]
                assert changes[rounds - 1] == float(np.abs(log_etas - previous).max())
                previous = log_etas


def _assert_matches_dict_fit(data, iterations, variant):
    """``fit_mallows`` equals the dict-loop fit, which runs every round and has no stopping report."""
    got = fit_mallows(data, iterations=iterations, **variant)
    expected = oracles.dict_fit_mallows(data, iterations=iterations, **variant)
    assert got.ranking == expected.ranking
    assert got.scores is expected.scores is None
    assert got.reliabilities == expected.reliabilities
    assert {key: got.metadata[key] for key in expected.metadata} == expected.metadata
    if not variant.get("with_reliability"):
        assert got.metadata.keys() == expected.metadata.keys()
        return
    assert got.metadata.keys() - expected.metadata.keys() == {"rounds", "converged", "reliability_change"}
    rounds, converged = got.metadata["rounds"], got.metadata["converged"]
    assert 1 <= rounds <= iterations and converged in (True, False)
    # A fit stops early only on a repeated center, which is a total order.
    assert converged or rounds == iterations
    assert got.ranking.is_total or not converged


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

    def test_kendall_cost_and_kemenization(self, rng):
        for data, params in self._datasets(rng):
            start = WeakRanking.from_order([data.items[i] for i in rng.permutation(len(data.items))])
            # Also a ranking that leaves out a graded item, and one with an item outside the dataset.
            graded = {d for fb in data.feedback for d in fb.items}
            left_out = next(d for d in start.order() if d in graded)
            partial = WeakRanking.from_order([d for d in start.order() if d != left_out])
            extra = WeakRanking.from_order([*start.order(), "outside"])
            for ranking in (start, partial, extra):
                assert weighted_kendall_cost(ranking, data, params) == oracles.dict_weighted_kendall_cost(
                    ranking, data, params
                )
            assert local_kemenization(start, data, params) == oracles.dict_local_kemenization(
                start, data, params
            )

    def test_cross_group_counts(self, rng):
        for data, _ in self._datasets(rng):
            center = WeakRanking.from_order([data.items[i] for i in rng.permutation(len(data.items))])
            arrays = data.feedback_arrays
            position = np.array([center.rank_of(d) for d in data.items])
            counts = mallows._against(arrays, position)
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
            _assert_matches_dict_fit(data, 3, variant)

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: "-".join(sorted(v)) or "plain")
    def test_fit_mallows_on_resampled_graders(self, variant, rng):
        base = _random_dataset(rng, n_items=8, n_graders=6)
        for _ in range(4):
            data = _resample_graders(base, rng)
            assert any("#" in g for g in data.graders)
            _assert_matches_dict_fit(data, 3, variant)

    def test_feedback_without_strict_pairs(self):
        data = make_ordinal_dataset({"g1": [["a", "b"]], "g2": [["c"]], "g3": [["a", "b", "c"]]})
        for variant in VARIANTS:
            _assert_matches_dict_fit(data, 2, variant)

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
                _assert_matches_dict_fit(data, 2, variant)


def _paper_classes():
    """Paper-scale classes (40 items, 150 graders, 7 items each), seeds 0-9, Mallows and tied cardinal graders."""
    for seed in range(10):
        for graders in (MallowsGraders(1.0), CardinalNormalGraders()):
            yield simulate(SynthConfig(grader_model=graders, seed=seed))[0]


class TestOneCost:
    """``weighted_kendall_cost`` is the cost a ``+g`` fit reports, and a function of the feedback alone."""

    def test_a_converged_fit_reports_the_cost_of_its_ranking(self):
        converged = 0
        for data in _paper_classes():
            for variant in RELIABILITY_VARIANTS:
                est = fit_mallows(data, **variant)
                if est.metadata["converged"]:
                    converged += 1
                    cost = weighted_kendall_cost(est.ranking, data, MallowsParams(est.reliabilities))
                    assert est.metadata["center_cost"][-1] == cost
        assert converged > 0

    def test_renaming_the_graders_leaves_the_cost_bit_for_bit(self, rng):
        for data in _paper_classes():
            # The new names sort in the reverse order, so the records are summed in the reverse order too.
            renamed = {g: f"r{len(data.graders) - k:04d}" for k, g in enumerate(data.graders)}
            copy = Dataset.from_feedback(
                (dataclasses.replace(fb, grader=renamed[fb.grader]) for fb in data.feedback), items=data.items
            )
            assert [fb.grader for fb in copy.feedback] == [renamed[fb.grader] for fb in reversed(data.feedback)]
            etas = dict(zip(data.graders, rng.uniform(0.1, 2.0, len(data.graders)).tolist()))
            params = MallowsParams({renamed[g]: eta for g, eta in etas.items()})
            ranking = WeakRanking.from_order(rng.permutation(data.items).tolist())
            assert weighted_kendall_cost(ranking, copy, params) == weighted_kendall_cost(
                ranking, data, MallowsParams(etas)
            )


def _cost(arrays, position, etas):
    """sum_g eta_g * X_g of the center at ``position``, summed pair by pair."""
    winner, loser, grader = oracles.flat_strict_pairs(arrays)[:3]
    against = position[winner] > position[loser]
    return float(etas[grader][against].sum())


def _shared_pair_classes(rng):
    """Classes where many graders share pairs: few items, mixed ranking lengths, ties and ungraded items."""
    for trial in range(8):
        yield _random_dataset(rng, n_items=8 + trial, n_graders=40, min_items=1, max_items=7, extra_items=("z",))
    yield from _seeded_classes()


class TestGreedyMatchesTheIncidentOracle:
    """The greedy center, on the dense table or the end table, is bit for bit the one on the pair layout
    they replaced, both weighing by reliabilities on the 2^-20 grid."""

    def test_under_random_reliabilities(self, rng):
        for data in _shared_pair_classes(rng):
            centers, n_graders = _Centers(data), len(data.feedback)
            # Gamma draws, and decimal fractions whose sums round differently in another order.
            draws = [rng.gamma(2.0, 0.5, n_graders) for _ in range(3)]
            draws += [rng.choice([0.1, 0.2, 0.3, 0.7], n_graders) for _ in range(3)] + [np.ones(n_graders)]
            for etas in draws:
                assert np.array_equal(centers.greedy(etas), oracles.incident_greedy(data.feedback_arrays, etas))


class TestKemenizeMatchesTheSlotsOracle:
    """Local improvement, on the dense table or the end table, takes the swaps of the sorted pair keys
    they replaced, both weighing by reliabilities on the 2^-20 grid."""

    def test_from_greedy_reversed_and_random_starts(self, rng):
        for data in _shared_pair_classes(rng):
            centers, n_graders = _Centers(data), len(data.feedback)
            draws = [rng.gamma(2.0, 0.5, n_graders) for _ in range(3)]
            draws += [rng.choice([0.1, 0.2, 0.3, 0.7], n_graders) for _ in range(3)] + [np.ones(n_graders)]
            for etas in draws:
                greedy = centers.greedy(etas)
                for start in (greedy, greedy[::-1].copy(), rng.permutation(len(data.items))):
                    assert np.array_equal(centers.kemenize(start, etas), oracles.slots_kemenize(data, start, etas))


def _load_benchmark_workloads():
    """The benchmark's workload definitions, loaded from its source file without running it."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestMonotoneAscent:
    """A ``+g`` round takes a new center only if it costs less under the round's reliabilities."""

    @pytest.mark.parametrize("variant", RELIABILITY_VARIANTS, ids=lambda v: "-".join(sorted(v)))
    def test_every_accepted_center_costs_strictly_less(self, variant, rng, monkeypatch):
        calls = []
        solve = mallows._reliabilities

        def spy(arrays, position, prior):
            etas, x_g = solve(arrays, position, prior)
            calls.append((position.copy(), etas))
            return etas, x_g

        monkeypatch.setattr(mallows, "_reliabilities", spy)
        classes = [_random_dataset(rng, n_items=10, n_graders=12, max_items=3 + t) for t in range(6)]
        accepted = 0
        for data in classes + list(_seeded_classes()):
            calls.clear()
            est = fit_mallows(data, **variant)
            arrays, costs = data.feedback_arrays, est.metadata["center_cost"]
            rounds, converged = est.metadata["rounds"], est.metadata["converged"]
            assert len(calls) == len(costs) == rounds
            for k, (start, etas) in enumerate(calls):
                if converged and k == rounds - 1:
                    # The last round found no cheaper center and kept the one it fitted against.
                    assert costs[k] == pytest.approx(_cost(arrays, start, etas), rel=1e-12, abs=0.0)
                    assert _positions(est.ranking, data).tolist() == start.tolist()
                    continue
                # The next round fits against the center this round took.
                if k + 1 < rounds:
                    taken = calls[k + 1][0]
                elif est.ranking.is_total:
                    taken = _positions(est.ranking, data)
                else:
                    continue
                assert costs[k] == pytest.approx(_cost(arrays, taken, etas), rel=1e-12, abs=0.0)
                assert costs[k] < _cost(arrays, start, etas)
                accepted += 1
        assert accepted > 0

    def test_the_guarded_fits_recover_the_truth_as_well_as_the_plain_ones(self):
        for n in (40, 200, 1000):
            errors = {m: [] for m in ("mal", "mal+g", "mal+k", "mal+kg")}
            for seed in range(5):
                cfg = SynthConfig(n_items=n, n_graders=3 * n, items_per_grader=7, grader_model=MallowsGraders(1.0), seed=seed)
                data, truth = simulate(cfg)
                target = TargetSet((truth.ranking,))
                for model in errors:
                    errors[model].append(ek_error(target, fit_model(model, data).ranking))
            mean = {model: float(np.mean(e)) for model, e in errors.items()}
            assert mean["mal+g"] <= mean["mal"] + 0.25, (n, mean)
            assert mean["mal+kg"] <= mean["mal+k"] + 0.25, (n, mean)

    def test_every_benchmark_large_classroom_converges(self):
        workloads = _load_benchmark_workloads()
        large = workloads.WORKLOADS["large"]
        # 24 s is the benchmark's run length, which sets how many classrooms a run holds.
        for index in range(large.classrooms(24)):
            seed = workloads.classroom_seed("large", 4242, index)
            cfg = SynthConfig(large.n_items, large.n_graders, large.per_grader, MallowsGraders(1.0), seed=seed)
            data = simulate(cfg)[0]
            for model in ("mal+g", "mal+kg"):
                est = fit_model(model, data)
                assert est.metadata["converged"] is True, (index, model, est.metadata["rounds"])


def _fits_match(got, want) -> None:
    """Equal rankings, reliabilities and metadata, and the same estimate file text."""
    assert got.ranking == want.ranking and got.reliabilities == want.reliabilities
    assert got.metadata == want.metadata
    assert _json_text(estimate_to_dict(got)) == _json_text(estimate_to_dict(want))


class TestUnitCentersKeptPerDataset:
    """The centers at reliabilities 1 are computed once per compiled dataset, and keeping them changes
    no answer: a fit after other fits and helpers on one dataset equals a fit on a fresh parse."""

    @settings(max_examples=150, deadline=None)
    @given(payloads(), st.permutations(VARIANTS))
    def test_fits_after_other_fits_equal_fits_on_a_fresh_parse(self, payload, variants):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = dataset_from_dict(payload)
            helpers = greedy_mle_ranking(data), borda_ranking(data)
            for _ in range(2):
                for variant in variants:
                    _fits_match(fit_mallows(data, **variant), fit_mallows(dataset_from_dict(payload), **variant))
            fresh = dataset_from_dict(payload)
            assert helpers == (greedy_mle_ranking(data), borda_ranking(data))
            assert helpers == (greedy_mle_ranking(fresh), borda_ranking(fresh))
            center = helpers[0]
            assert local_kemenization(center, data) == local_kemenization(center, fresh)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_at_paper_scale_the_unit_greedy_runs_once(self, seed, tmp_path, monkeypatch):
        write_ordinal_json(simulate(SynthConfig(40, 150, 7, seed=seed))[0], str(tmp_path / "d.json"))
        want = {}
        for variant in VARIANTS:
            name = "-".join(sorted(variant)) or "plain"
            write_estimate(fit_mallows(parse_ordinal_json(str(tmp_path / "d.json")), **variant), str(tmp_path / name))
            want[name] = (tmp_path / name).read_bytes()
        unit_greedy, greedy = [], _Centers.greedy

        def spy(self, etas):
            unit_greedy.append(bool((etas == 1.0).all()))
            return greedy(self, etas)

        monkeypatch.setattr(_Centers, "greedy", spy)
        data = parse_ordinal_json(str(tmp_path / "d.json"))
        center = greedy_mle_ranking(data)
        local_kemenization(center, data)
        borda_ranking(data)
        for variant in VARIANTS + VARIANTS[::-1]:
            name = "-".join(sorted(variant)) or "plain"
            write_estimate(fit_mallows(data, **variant), str(tmp_path / "got"))
            assert (tmp_path / "got").read_bytes() == want[name], name
        assert unit_greedy.count(True) == 1
        assert greedy_mle_ranking(data) == center

    def test_a_kept_center_is_read_only(self):
        data = simulate(SynthConfig(12, 20, 4, grader_model=CardinalNormalGraders(), seed=3))[0]
        for variant in PLAIN_VARIANTS:
            fit_mallows(data, **variant)
        kept = data.feedback_arrays._unit_centers
        assert sorted(kept) == ["borda", "greedy", "kemenized"]
        assert [len(kept[kind]) for kind in ("greedy", "kemenized", "borda")] == [1, 1, 2]
        for arrays in kept.values():
            assert all(a.dtype == np.intp for a in arrays) and len(arrays[0]) == len(data.items)
            for a in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = a[-1]

    def test_derived_datasets_start_with_no_kept_center(self, tmp_path):
        write_ordinal_json(simulate(SynthConfig(30, 60, 5, seed=4))[0], str(tmp_path / "d.json"))
        data = parse_ordinal_json(str(tmp_path / "d.json"))
        for variant in PLAIN_VARIANTS:
            fit_mallows(data, **variant)
        derived = {
            "resample": _resample_graders(data, np.random.default_rng(0)),
            "subset": _select_graders(data, np.arange(0, 60, 2)),
            "pickle": pickle.loads(pickle.dumps(data)),
            "copy": copy.copy(data),
            "deepcopy": copy.deepcopy(data),
            "replace": dataclasses.replace(data),
        }
        for name, other in derived.items():
            assert other.feedback_arrays is not data.feedback_arrays, name
            assert other.feedback_arrays._unit_centers == {}, name
            built = Dataset(other.items, other.graders, other.feedback, other.lazy_graders)
            for variant in PLAIN_VARIANTS:
                _fits_match(fit_mallows(other, **variant), fit_mallows(built, **variant))
        assert sorted(data.feedback_arrays._unit_centers) == ["borda", "greedy", "kemenized"]


def _solve_spy(monkeypatch):
    """Record the (X, ``coeff`` row) of every problem each ``_newton_etas`` batch is asked to solve, and its prior."""
    batches, newton = [], mallows._newton_etas

    def spy(x, coeff, prior):
        batches.append(([(int(k), tuple(row)) for k, row in zip(x.tolist(), coeff.tolist())], prior))
        return newton(x, coeff, prior)

    monkeypatch.setattr(mallows, "_newton_etas", spy)
    return batches


def _kept(arrays) -> dict:
    """The arrays' kept reliability table as {prior: {``coeff`` row: η of each X, None if unsolved}}, in plain
    tuples and lists."""
    return {
        prior: {
            tuple(np.frombuffer(key).tolist()): [None if math.isnan(eta) else eta for eta in etas.tolist()]
            for key, etas in table.items()
        }
        for prior, table in arrays._solved_reliabilities.items()
    }


def _assert_fresh(key, etas, prior) -> None:
    """Each solved η of a kept row is the one a ``_newton_etas`` call of its own gives on the key row, and the
    row has a place for every X from 0 to the key row's strict pairs."""
    row = np.array([key])
    assert len(etas) == 1 - int(sum(i * a for i, a in enumerate(key)))
    for x, eta in enumerate(etas):
        assert eta is None or eta == mallows._newton_etas(np.array([float(x)]), row, prior)[0]


class TestReliabilitySolutionsKeptPerDataset:
    """Per prior, the compiled arrays keep the η of every X of each tie pattern a ``+g`` round meets, solved
    in one batch the first time where the patterns take no more values of X than there are graders, and
    keeping them changes no answer: a later round or fit solves nothing."""

    def test_a_later_fit_solves_only_new_problems(self, monkeypatch):
        batches = _solve_spy(monkeypatch)
        paper = simulate(SynthConfig(40, 150, 7, seed=0))[0]
        for data in [paper, *_seeded_classes()]:
            arrays, prior = data.feedback_arrays, ReliabilityPrior()
            batches.clear()
            fit_mallows(data, with_reliability=True)
            kept = _kept(arrays)
            assert list(kept) == [prior] and len(batches) == 1 and batches[0][1] == prior
            # The one batch holds every X of each pattern of the dataset, once.
            asked = batches[0][0]
            assert len(set(asked)) == len(asked)
            assert sorted(asked) == sorted((x, p) for p, etas in kept[prior].items() for x in range(len(etas)))
            assert kept[prior].keys() == set(map(tuple, arrays.coeff.tolist()))
            batches.clear()
            est = fit_mallows(data, kemenize=True, with_reliability=True)
            assert batches == [] and _kept(arrays) == kept
            fresh = copy.copy(data)
            assert "_solved_reliabilities" not in vars(fresh.feedback_arrays)
            _fits_match(est, fit_mallows(fresh, kemenize=True, with_reliability=True))

    def test_two_priors_never_share_solutions(self, monkeypatch):
        batches = _solve_spy(monkeypatch)
        priors = ReliabilityPrior(), ReliabilityPrior(shape=3.0, scale=0.7)
        for data in _seeded_classes():
            arrays = data.feedback_arrays
            for variant in RELIABILITY_VARIANTS:
                for prior in priors:
                    batches.clear()
                    est = fit_mallows(data, reliability_prior=prior, **variant)
                    assert all(batch[1] is prior for batch in batches)
                    fresh = copy.copy(data)
                    _fits_match(est, fit_mallows(fresh, reliability_prior=prior, **variant))
                    assert fresh.feedback_arrays._solved_reliabilities.keys() == {prior}
            kept = arrays._solved_reliabilities
            assert kept.keys() == set(priors) and kept[priors[0]] is not kept[priors[1]]
            for prior in priors:
                # Every kept η is the one a fresh solve of its own problem gives under its prior.
                for key, etas in _kept(arrays)[prior].items():
                    assert None not in etas
                    _assert_fresh(key, etas, prior)

    def test_fit_reliabilities_solves_afresh_and_keeps_nothing(self, monkeypatch):
        batches = _solve_spy(monkeypatch)
        data = next(_seeded_classes())
        center = greedy_mle_ranking(data)
        fit_mallows(data, with_reliability=True)
        kept = {key: etas.copy() for key, etas in data.feedback_arrays._solved_reliabilities[ReliabilityPrior()].items()}
        batches.clear()
        first, second = fit_reliabilities(data, center), fit_reliabilities(data, center)
        assert first == second and len(batches) == 2 and batches[0] == batches[1]
        # A local table solves only the problems its graders meet, once each.
        arrays = data.feedback_arrays
        x_g = mallows._against(arrays, mallows._positions(center, data))
        met = {(x, tuple(arrays.coeff[r].tolist())) for x, r in zip(x_g.tolist(), arrays.grader_coeff.tolist())}
        assert sorted(batches[0][0]) == sorted(met)
        table = data.feedback_arrays._solved_reliabilities
        assert list(table) == [ReliabilityPrior()] and table[ReliabilityPrior()].keys() == kept.keys()
        for key, etas in kept.items():
            assert np.array_equal(table[ReliabilityPrior()][key], etas, equal_nan=True)

    def test_subsets_read_the_parent_table_and_copies_start_empty(self, tmp_path):
        write_ordinal_json(simulate(SynthConfig(30, 60, 5, seed=4))[0], str(tmp_path / "d.json"))
        data = parse_ordinal_json(str(tmp_path / "d.json"))
        for variant in RELIABILITY_VARIANTS:
            fit_mallows(data, **variant)
        table, kept = data.feedback_arrays._solved_reliabilities, _kept(data.feedback_arrays)
        derived = {
            "resample": _resample_graders(data, np.random.default_rng(0)),
            "subset": _select_graders(data, np.arange(0, 60, 2)),
            "pickle": pickle.loads(pickle.dumps(data)),
            "copy": copy.copy(data),
            "deepcopy": copy.deepcopy(data),
            "replace": dataclasses.replace(data),
        }
        for name, other in derived.items():
            assert other.feedback_arrays is not data.feedback_arrays, name
            if name in ("resample", "subset"):
                assert other.feedback_arrays._solved_reliabilities is table, name
            else:
                assert other.feedback_arrays._solved_reliabilities == {}, name
            built = Dataset(other.items, other.graders, other.feedback, other.lazy_graders)
            for variant in RELIABILITY_VARIANTS:
                _fits_match(fit_mallows(other, **variant), fit_mallows(built, **variant))
        assert _kept(data.feedback_arrays) == kept and list(kept) == [ReliabilityPrior()]


@pytest.mark.filterwarnings("ignore:items never graded")
class TestGraderSubsetsReadTheParentTable:
    """A grader subset gathered by ``FeedbackArrays.take`` reads its parent's kept reliability table, so
    after the parent's ``+g`` fit the protocols' resample fits solve nothing, and get the answers of
    subsets that start with a table of their own."""

    @pytest.mark.parametrize("method", ["mal+g", "malbc+g", "mal+kg"])
    def test_protocols_after_the_parent_fit_run_no_batch(self, method, monkeypatch):
        rng = np.random.default_rng(5)
        # 80 graders ranking 7 items, strictly or with their top two tied: two patterns of 43 values of X, all
        # solved in the first round, and every subset as wide as its parent, as in the benchmark classes.
        items, rankings = [f"x{i}" for i in range(12)], {}
        for g in range(80):
            chosen = rng.choice(items, size=7, replace=False).tolist()
            rankings[f"g{g}"] = [chosen[:2], *([d] for d in chosen[2:])] if g % 3 else [[d] for d in chosen]
        data = make_ordinal_dataset(rankings)
        targets = [WeakRanking.from_order(data.items)]

        def protocols():
            return (
                bootstrap_ek(data, method, targets, reps=4, seed=2),
                self_consistency(data, method, partitions=3, seed=2),
                downsample_curve(data, method, "reviewers", (2, 4, 12), targets, reps=3, seed=2),
            )

        fit_model(method, data)
        widths = []
        take = FeedbackArrays.take
        monkeypatch.setattr(FeedbackArrays, "take", lambda *args: widths.append((sub := take(*args)).coeff.shape[1]) or sub)
        batches = _solve_spy(monkeypatch)
        shared = protocols()
        assert batches == [] and set(widths) == {data.feedback_arrays.coeff.shape[1]} == {7}
        select = experiments._select_graders
        monkeypatch.setattr(experiments, "_select_graders", lambda *args: dataclasses.replace(select(*args)))
        assert protocols() == shared and batches

    def test_copies_start_with_an_empty_table(self):
        data = next(_seeded_classes())
        fit_mallows(data, with_reliability=True)
        assert data.feedback_arrays._solved_reliabilities
        for other in (copy.copy(data), copy.deepcopy(data), pickle.loads(pickle.dumps(data)), dataclasses.replace(data)):
            assert other.feedback_arrays._solved_reliabilities == {}
        assert dataclasses.replace(data.feedback_arrays)._solved_reliabilities == {}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16), st.booleans(), st.integers(2, 9), st.integers(4, 40))
    def test_every_entry_is_its_own_solve_and_subsets_find_it(self, seed, tied, max_items, n_graders):
        rng = np.random.default_rng(seed)
        items = [f"x{i}" for i in range(12)]
        rankings = {}
        for g in range(n_graders):
            chosen = rng.choice(items, size=int(rng.integers(2, max_items + 1)), replace=False).tolist()
            rankings[f"g{g}"] = random_weak_ranking(rng, chosen) if tied else [[d] for d in chosen]
        prior, batches, newton = ReliabilityPrior(), [], mallows._newton_etas

        def spy(x, coeff, prior):
            batches.append([(int(k), tuple(row)) for k, row in zip(x.tolist(), coeff.tolist())])
            return newton(x, coeff, prior)

        mallows._newton_etas = spy
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                data = make_ordinal_dataset(rankings, items=tuple(items))
                fit_mallows(data, with_reliability=True)
            arrays = data.feedback_arrays
            kept = _kept(arrays)[prior]
            # One batch holds every X of every pattern where they are no more than the graders, else the X met.
            assert max(map(len, batches)) <= n_graders
            if arrays._tie_patterns[1].sum() <= n_graders:
                assert len(batches) == 1 and None not in sum(kept.values(), [])
            for key, etas in kept.items():
                _assert_fresh(key, etas, prior)
            # The graders of most items keep the parent's width and read its rows; those of fewest items,
            # where fewer, have a narrower ``coeff`` and rows of their own.
            sizes, position = np.diff(arrays.offsets), rng.permutation(len(items))
            for rows in (np.flatnonzero(sizes == sizes.max()), np.flatnonzero(sizes == sizes.min())):
                sub = arrays.take(rows, tuple(f"s{r}" for r in rows.tolist()))
                assert sub._solved_reliabilities is arrays._solved_reliabilities
                assert sub.coeff.shape[1] == sizes[rows[0]]
                batches.clear()
                got = mallows._reliabilities(sub, position, prior)
                # The subset solves only what its parent has not.
                assert all(kept.get(row, [None] * (x + 1))[x] is None for x, row in sum(batches, []))
                after = _kept(arrays)[prior]
                assert all(after[key][x] == eta for key, etas in kept.items() for x, eta in enumerate(etas) if eta is not None)
                want = mallows._reliabilities(sub, position, prior, {})
                assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
        finally:
            mallows._newton_etas = newton


def _tied_class(n_items, n_graders, per_grader, seed):
    """A cardinal class whose grades are rounded to whole numbers, so its induced rankings tie."""
    data = simulate(SynthConfig(n_items, n_graders, per_grader, grader_model=CardinalNormalGraders(1.0, 0.5), seed=seed))[0]
    return Dataset.from_feedback(
        [GraderFeedback.from_cardinal(fb.grader, {d: float(round(v)) for d, v in fb.cardinal.items()}) for fb in data.feedback],
        items=data.items,
    )


class TestSwapPathsAgree:
    """``_Centers.greedy`` and ``_Centers.kemenize`` read their weights from a dense table on small classes
    and from the end table on large ones; both paths give the same order."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16), st.integers(3, 16), st.integers(2, 40), st.integers(2, 7), st.booleans())
    def test_table_and_end_tests_give_one_order(self, seed, n_items, n_graders, per_grader, tied):
        per_grader = min(per_grader, n_items)
        n_graders = max(n_graders, -(-n_items // per_grader))
        if tied:
            data = _tied_class(n_items, n_graders, per_grader, seed)
        else:
            data = simulate(SynthConfig(n_items, n_graders, per_grader, grader_model=MallowsGraders(1.0), seed=seed))[0]
        centers, rng, n = _Centers(data), np.random.default_rng(seed), len(data.feedback)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fitted = fit_mallows(data, with_reliability=True).reliabilities
        draws = [np.ones(n), centers.etas(MallowsParams(fitted)), rng.gamma(2.0, 0.5, n), rng.choice([0.1, 0.2, 0.3, 0.7], n)]
        on_table, on_ends = _Centers(data), _Centers(data)
        on_table.dense, on_ends.dense = True, False
        for etas in draws:
            greedy = on_table.greedy(etas)
            assert np.array_equal(greedy, on_ends.greedy(etas))
            assert np.array_equal(greedy, centers.greedy(etas))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = oracles.dict_greedy_mle_ranking(data, MallowsParams(dict(zip(centers.arrays.graders, etas.tolist()))))
            assert [data.items[i] for i in greedy] == list(want.order())
            for start in (greedy, greedy[::-1].copy(), rng.permutation(n_items)):
                table = centers._swept(start, *centers._table_tests(etas))
                assert np.array_equal(table, centers._swept(start, *centers._end_tests(etas)))
                assert np.array_equal(table, centers.kemenize(start, etas))
                assert np.array_equal(table, oracles.slots_kemenize(data, start, etas))

    def test_each_benchmark_scale_takes_its_path(self, monkeypatch):
        taken = []
        for name in ("_table_tests", "_end_tests"):
            tests = getattr(_Centers, name)
            monkeypatch.setattr(_Centers, name, lambda self, etas, name=name, tests=tests: taken.append(name) or tests(self, etas))
        greedy_read_ends = []
        for n_items, n_graders in ((40, 150), (600, 1800)):
            data = simulate(SynthConfig(n_items, n_graders, 7, seed=1))[0]
            fit_mallows(data)
            greedy_read_ends.append("ends" in vars(data.feedback_arrays))
            fit_mallows(data, kemenize=True)
        assert taken == ["_table_tests", "_end_tests"]
        assert greedy_read_ends == [False, True]
