"""Tests for synthetic data generation."""

import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from opg.dataio import dataset_to_dict
from opg.errors import ValidationError
from opg.rankings import WeakRanking
from opg.synth import (
    _SCALE_MEAN,
    CardinalNormalGraders,
    MallowsGraders,
    NormalTruth,
    SynthConfig,
    add_lazy_graders,
    assign_reviewers,
    sample_mallows_feedback,
    simulate,
    _to_scale,
    strip_lazy,
)

from conftest import make_cardinal_dataset, make_ordinal_dataset
from oracles import feedback_map, inversions, sample_mallows_feedback_oracle, simulate_oracle


class TestSynthConfig:
    def test_defaults(self):
        cfg = SynthConfig()
        assert (cfg.n_items, cfg.n_graders, cfg.items_per_grader) == (40, 150, 7)
        assert cfg.n_lazy == 0
        assert isinstance(cfg.grader_model, MallowsGraders)
        assert isinstance(cfg.truth, NormalTruth)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            SynthConfig(n_items=0)
        with pytest.raises(ValidationError):
            SynthConfig(n_items=4, items_per_grader=5)
        with pytest.raises(ValidationError):
            SynthConfig(n_lazy=-1)

    def test_rejects_infeasible_coverage(self):
        with pytest.raises(ValidationError, match="infeasible"):
            SynthConfig(n_items=40, n_graders=5, items_per_grader=7)

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            MallowsGraders(eta=0.0)
        with pytest.raises(ValidationError):
            CardinalNormalGraders(eta=-1.0)
        with pytest.raises(ValidationError):
            CardinalNormalGraders(bias_std=-0.1)
        with pytest.raises(ValidationError):
            NormalTruth(var=0.0)


class TestAssignReviewers:
    def test_perfect_matching(self):
        cfg = SynthConfig(n_items=4, n_graders=4, items_per_grader=1)
        assignment = assign_reviewers(cfg)
        reviewed = [d for items in assignment.values() for d in items]
        assert sorted(reviewed) == ["item000", "item001", "item002", "item003"]

    def test_each_item_exactly_twice(self):
        cfg = SynthConfig(n_items=2, n_graders=4, items_per_grader=1)
        counts = Counter(d for items in assign_reviewers(cfg).values() for d in items)
        assert counts == {"item000": 2, "item001": 2}

    def test_everyone_reviews_everything(self):
        cfg = SynthConfig(n_items=3, n_graders=5, items_per_grader=3)
        for items in assign_reviewers(cfg).values():
            assert sorted(items) == ["item000", "item001", "item002"]

    def test_balance_and_sizes(self):
        cfg = SynthConfig(n_items=11, n_graders=9, items_per_grader=4, seed=5)
        assignment = assign_reviewers(cfg)
        assert len(assignment) == 9
        counts = Counter()
        for items in assignment.values():
            assert len(items) == 4
            assert len(set(items)) == 4
            counts.update(items)
        assert len(counts) == 11
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_deterministic_given_seed(self):
        cfg = SynthConfig(n_items=10, n_graders=6, items_per_grader=3, seed=9)
        assert assign_reviewers(cfg) == assign_reviewers(cfg)

    @pytest.mark.parametrize(
        "grader_model, n_lazy",
        [(MallowsGraders(), 0), (CardinalNormalGraders(eta=4.0, bias_std=0.5), 0), (CardinalNormalGraders(), 3)],
    )
    def test_is_the_assignment_simulate_draws(self, grader_model, n_lazy):
        cfg = SynthConfig(12, 10, 4, grader_model=grader_model, n_lazy=n_lazy, seed=3)
        data, _ = simulate(cfg)
        simulated = {fb.grader: fb.items for fb in data.feedback if fb.grader not in data.lazy_graders}
        assert len(simulated) == 10
        assert assign_reviewers(cfg) == simulated


class TestSampleMallowsFeedback:
    truth = WeakRanking.from_order([f"t{i}" for i in range(8)])

    def test_returns_total_order_over_subset(self):
        subset = ["t1", "t4", "t6"]
        ranking = sample_mallows_feedback(self.truth, subset, 1.0, seed=3)
        assert ranking.is_total
        assert ranking.items == set(subset)

    def test_high_eta_reproduces_truth(self):
        subset = ["t0", "t2", "t5", "t7"]
        expected = ("t0", "t2", "t5", "t7")
        hits = sum(
            sample_mallows_feedback(self.truth, subset, 50.0, seed=i).order() == expected
            for i in range(1000)
        )
        assert hits / 1000 > 0.999

    def test_tiny_eta_is_uniform(self):
        outcomes = Counter(
            sample_mallows_feedback(self.truth, ["t0", "t1", "t2"], 1e-6, seed=i).order()
            for i in range(10000)
        )
        assert set(outcomes) == set(itertools.permutations(("t0", "t1", "t2")))
        result = chisquare(list(outcomes.values()))
        assert result.pvalue > 0.01

    def test_exact_distribution_three_items(self):
        subset = ["t0", "t3", "t6"]
        reference = ["t0", "t3", "t6"]
        eta = 1.0
        weights = {
            perm: math.exp(-eta * inversions(list(perm), reference))
            for perm in itertools.permutations(subset)
        }
        z = sum(weights.values())
        n = 20000
        outcomes = Counter(
            sample_mallows_feedback(self.truth, subset, eta, seed=i).order() for i in range(n)
        )
        for perm, w in weights.items():
            p = w / z
            sigma = math.sqrt(n * p * (1.0 - p))
            assert abs(outcomes[perm] - n * p) <= 3.0 * sigma

    def test_exact_distribution_four_items(self):
        subset = ["t1", "t2", "t4", "t7"]
        reference = ["t1", "t2", "t4", "t7"]
        eta = 0.7
        n = 20000
        perms = list(itertools.permutations(subset))
        weights = np.array([math.exp(-eta * inversions(list(p), reference)) for p in perms])
        expected = n * weights / weights.sum()
        outcomes = Counter(
            sample_mallows_feedback(self.truth, subset, eta, seed=1000 + i).order()
            for i in range(n)
        )
        observed = np.array([outcomes[p] for p in perms])
        result = chisquare(observed, f_exp=expected)
        assert result.pvalue > 0.01

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            sample_mallows_feedback(self.truth, ["t0", "t1"], 0.0)
        with pytest.raises(ValidationError):
            sample_mallows_feedback(self.truth, ["t0", "nope"], 1.0)
        tied = WeakRanking([["a", "b"]])
        with pytest.raises(ValidationError):
            sample_mallows_feedback(tied, ["a"], 1.0)

    def test_deterministic_given_seed(self):
        subset = ["t0", "t2", "t3", "t5", "t6"]
        first = sample_mallows_feedback(self.truth, subset, 0.5, seed=42)
        second = sample_mallows_feedback(self.truth, subset, 0.5, seed=42)
        assert first == second

    def test_matches_per_item_choice_loop_draw_for_draw(self):
        for seed in range(50):
            pick = np.random.default_rng(seed)
            subset = [f"t{i}" for i in sorted(pick.choice(8, int(pick.integers(1, 9)), replace=False))]
            eta = float(pick.choice([0.05, 0.3, 1.0, 2.0, 7.0]))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                expected = sample_mallows_feedback_oracle(self.truth, subset, eta, theirs)
                assert sample_mallows_feedback(self.truth, subset, eta, ours) == expected
            assert ours.random() == theirs.random()


class TestSimulate:
    def test_ordinal_dataset_shape(self):
        cfg = SynthConfig(n_items=12, n_graders=20, items_per_grader=4, seed=2)
        data, truth = simulate(cfg)
        assert len(data.items) == 12
        assert len(data.graders) == 20
        assert data.has_full_ordinal()
        assert not data.has_full_cardinal()
        for fb in data.feedback:
            assert len(fb.items) == 4
            assert fb.ordinal.is_total
        assert truth.metadata == {"truth": True, "seed": 2}
        assert truth.ranking.is_total
        assert set(truth.scores) == set(data.items)

    def test_cardinal_dataset_shape(self):
        cfg = SynthConfig(
            n_items=15, n_graders=40, items_per_grader=5,
            grader_model=CardinalNormalGraders(eta=4.0), seed=3,
        )
        data, _ = simulate(cfg)
        assert data.has_full_cardinal()
        assert data.has_full_ordinal()
        grades = [y for fb in data.feedback for y in fb.cardinal.values()]
        assert all(1.0 <= y <= 10.0 for y in grades)
        assert abs(np.mean(grades) - 8.0) < 0.5
        assert abs(np.std(grades) - 1.3) < 0.5

    def test_cardinal_ordinal_is_score_sorted(self):
        cfg = SynthConfig(
            n_items=10, n_graders=8, items_per_grader=4,
            grader_model=CardinalNormalGraders(eta=2.0), seed=4,
        )
        data, _ = simulate(cfg)
        for fb in data.feedback:
            by_rank = fb.ordinal.order()
            grades = [fb.cardinal[d] for d in by_rank]
            assert grades == sorted(grades, reverse=True)

    def test_high_eta_graders_agree_with_truth(self):
        cfg = SynthConfig(
            n_items=10, n_graders=30, items_per_grader=5,
            grader_model=MallowsGraders(eta=50.0), seed=5,
        )
        data, truth = simulate(cfg)
        ranks = truth.ranking.ranks()
        for fb in data.feedback:
            order = fb.ordinal.order()
            truth_order = sorted(order, key=lambda d: ranks[d])
            assert order == tuple(truth_order)

    def test_lazy_graders_appended(self):
        cfg = SynthConfig(
            n_items=10, n_graders=12, items_per_grader=4,
            grader_model=CardinalNormalGraders(eta=1.0), n_lazy=3, seed=6,
        )
        data, _ = simulate(cfg)
        assert len(data.graders) == 15
        assert sorted(data.lazy_graders) == ["lazy000", "lazy001", "lazy002"]
        assert all(g in data.graders for g in data.lazy_graders)

    def test_byte_identical_for_fixed_seed(self):
        cfg = SynthConfig(n_items=8, n_graders=10, items_per_grader=3, seed=11)
        first = json.dumps(dataset_to_dict(simulate(cfg)[0]), sort_keys=True)
        second = json.dumps(dataset_to_dict(simulate(cfg)[0]), sort_keys=True)
        assert first == second

    @pytest.mark.parametrize(
        "cfg",
        [
            SynthConfig(40, 150, 7, MallowsGraders(0.3), seed=1),
            SynthConfig(40, 150, 7, MallowsGraders(1.0), seed=2),
            SynthConfig(120, 300, 6, MallowsGraders(2.0), seed=3),
            SynthConfig(9, 6, 9, MallowsGraders(1.0), seed=4),
            SynthConfig(1, 3, 1, MallowsGraders(1.0), seed=5),
            SynthConfig(40, 150, 7, CardinalNormalGraders(1.0, 0.5), seed=6),
            SynthConfig(6, 5, 6, CardinalNormalGraders(2.0, 0.3), seed=7),
            SynthConfig(25, 40, 5, CardinalNormalGraders(1.0, 0.5), n_lazy=8, seed=8),
            SynthConfig(1, 2, 1, CardinalNormalGraders(1.0, 0.5), n_lazy=2, seed=9),
        ],
        ids=["mallows-0.3", "mallows-1", "mallows-2", "all-items", "one-item",
             "cardinal", "cardinal-all-items", "lazy", "lazy-one-item"],
    )
    def test_matches_per_grader_loop_oracle(self, cfg):
        def fingerprint(data, truth):
            return (
                data.items,
                data.graders,
                sorted(data.lazy_graders),
                [
                    (fb.grader, fb.items, fb.ordinal.groups,
                     None if fb.cardinal is None else [(d, v.hex()) for d, v in fb.cardinal.items()])
                    for fb in data.feedback
                ],
                truth.ranking.groups,
                [(d, v.hex()) for d, v in truth.scores.items()],
                truth.metadata,
            )

        assert fingerprint(*simulate(cfg)) == fingerprint(*simulate_oracle(cfg))

    def test_id_padding(self):
        cfg = SynthConfig(n_items=4, n_graders=4, items_per_grader=2, seed=0)
        data, _ = simulate(cfg)
        assert data.items == ("item000", "item001", "item002", "item003")
        assert data.graders[0] == "grader000"


class TestAddLazyGraders:
    def _cardinal_data(self, seed=7):
        cfg = SynthConfig(
            n_items=40, n_graders=150, items_per_grader=7,
            grader_model=CardinalNormalGraders(eta=1.0), seed=seed,
        )
        return simulate(cfg)

    def test_zero_is_identity(self):
        data, _ = self._cardinal_data()
        assert add_lazy_graders(data, 0) is data

    def test_counts_and_labels(self):
        data, _ = self._cardinal_data()
        grown = add_lazy_graders(data, 10, seed=1)
        assert len(grown.graders) == 160
        assert len(grown.lazy_graders) == 10
        assert all(g.startswith("lazy") for g in grown.lazy_graders)
        assert set(data.graders) <= set(grown.graders)

    def test_lazy_mean_matches_source(self):
        data, _ = self._cardinal_data()
        source = np.array([y for fb in data.feedback for y in fb.cardinal.values()])
        grown = add_lazy_graders(data, 10, seed=1)
        lazy_grades = np.array([
            y
            for fb in grown.feedback
            if fb.grader in grown.lazy_graders
            for y in fb.cardinal.values()
        ])
        assert len(lazy_grades) == 70
        se = source.std() / math.sqrt(len(lazy_grades))
        assert abs(lazy_grades.mean() - source.mean()) <= 3.0 * se

    def test_lazy_grades_uncorrelated_with_truth(self):
        data, truth = self._cardinal_data()
        rs = []
        for seed in range(50):
            grown = add_lazy_graders(data, 10, seed=seed)
            xs, ys = [], []
            for fb in grown.feedback:
                if fb.grader in grown.lazy_graders:
                    for d, y in fb.cardinal.items():
                        xs.append(truth.scores[d])
                        ys.append(y)
            rs.append(abs(float(np.corrcoef(xs, ys)[0, 1])))
        assert float(np.mean(rs)) < 0.2

    def test_lazy_ordinal_is_grade_sorted(self):
        data, _ = self._cardinal_data()
        grown = add_lazy_graders(data, 5, seed=2)
        for fb in grown.feedback:
            if fb.grader in grown.lazy_graders:
                grades = [fb.cardinal[d] for d in fb.ordinal.order()]
                assert grades == sorted(grades, reverse=True)

    def test_name_collisions_are_skipped(self):
        data = make_cardinal_dataset({"lazy000": {"a": 5.0, "b": 6.0}, "g1": {"a": 4.0, "b": 7.0}})
        grown = add_lazy_graders(data, 2, seed=0)
        assert len(grown.graders) == 4
        assert len(set(grown.graders)) == 4
        assert all(g != "lazy000" for g in grown.lazy_graders)

    def test_requires_cardinal_source(self):
        ordinal = make_ordinal_dataset({"g1": [["a"], ["b"]]})
        with pytest.raises(ValidationError):
            add_lazy_graders(ordinal, 2)

    def test_strip_lazy_round_trip(self):
        data, _ = self._cardinal_data()
        grown = add_lazy_graders(data, 10, seed=3)
        stripped = strip_lazy(grown)
        assert stripped.graders == data.graders
        assert stripped.lazy_graders == frozenset()
        assert feedback_map(stripped).keys() == feedback_map(data).keys()
        assert strip_lazy(data) is data


class TestToScale:
    def test_constant_grades_sit_at_the_scale_mean(self):
        assert np.array_equal(_to_scale(np.full(5, 3.25)), np.full(5, _SCALE_MEAN))
