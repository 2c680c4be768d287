"""Tests for the experiment protocols."""

import dataclasses
import json
import math

import numpy as np
import pytest

from opg.data import Dataset
from opg.errors import ValidationError
from opg.estimators import MODEL_NAMES, fit_model
from opg.experiments import (
    CurvePoint,
    ExperimentReport,
    bootstrap_ek,
    downsample_curve,
    lazy_identification,
    lazy_identification_heuristic,
    robustness_delta,
    self_consistency,
    time_methods,
)
from opg.metrics import TargetSet, ek_error
from opg.rankings import WeakRanking
from opg.synth import CardinalNormalGraders, MallowsGraders, SynthConfig, simulate

from conftest import make_cardinal_dataset, make_ordinal_dataset
from oracles import experiment_report_from_dict

pytestmark = pytest.mark.filterwarnings("ignore:items never graded")


def synth_ordinal(n_items=20, n_graders=30, items_per_grader=5, eta=1.0, seed=6):
    cfg = SynthConfig(
        n_items=n_items, n_graders=n_graders, items_per_grader=items_per_grader,
        grader_model=MallowsGraders(eta=eta), seed=seed,
    )
    data, truth = simulate(cfg)
    return data, TargetSet((truth.ranking,))


def synth_cardinal(n_items=12, n_graders=24, items_per_grader=4, eta=16.0, n_lazy=0, seed=3):
    cfg = SynthConfig(
        n_items=n_items, n_graders=n_graders, items_per_grader=items_per_grader,
        grader_model=CardinalNormalGraders(eta=eta), n_lazy=n_lazy, seed=seed,
    )
    return simulate(cfg)


class TestBootstrapEk:
    def test_identical_graders_zero_std(self):
        data = make_ordinal_dataset({f"g{i}": [["a"], ["b"], ["c"]] for i in range(5)})
        target = TargetSet((WeakRanking.from_order(["a", "b", "c"]),))
        mean, std = bootstrap_ek(data, "mal", target, reps=10, seed=0)
        assert (mean, std) == (0.0, 0.0)

    def test_two_rep_std_formula(self):
        # with two opposite graders each rep's error is 0 or 100, so the
        # sample std of two reps is 0 or 100/sqrt(2)
        data = make_ordinal_dataset({"A": [["a"], ["b"], ["c"]], "B": [["c"], ["b"], ["a"]]})
        target = TargetSet((WeakRanking.from_order(["a", "b", "c"]),))
        allowed = {(0.0, 0.0), (100.0, 0.0), (50.0, float(f"{100.0 / math.sqrt(2):.12g}"))}
        seen = set()
        for seed in range(12):
            seen.add(bootstrap_ek(data, "mal", target, reps=2, seed=seed))
        assert seen <= allowed
        assert (50.0, float(f"{100.0 / math.sqrt(2):.12g}")) in seen

    def test_std_stabilizes_with_reps(self):
        data, target = synth_ordinal()
        _, s_small = bootstrap_ek(data, "mal", target, reps=100, seed=0)
        _, s_large = bootstrap_ek(data, "mal", target, reps=400, seed=0)
        assert abs(s_small / s_large - 1.0) <= 0.2

    def test_deterministic(self):
        data, target = synth_ordinal(n_graders=12, seed=2)
        first = bootstrap_ek(data, "mal", target, reps=5, seed=4)
        second = bootstrap_ek(data, "mal", target, reps=5, seed=4)
        assert first == second

    def test_rejects_bad_reps(self):
        data, target = synth_ordinal(n_graders=12)
        with pytest.raises(ValidationError):
            bootstrap_ek(data, "mal", target, reps=0)


class TestSelfConsistency:
    def test_identical_strict_orders_give_zero(self):
        data = make_ordinal_dataset({f"g{i}": [["a"], ["b"], ["c"], ["d"]] for i in range(6)})
        mean, std = self_consistency(data, "mal", partitions=10, seed=0)
        assert (mean, std) == (0.0, 0.0)

    def test_two_identical_graders(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"], ["c"]], "g2": [["a"], ["b"], ["c"]]})
        mean, std = self_consistency(data, "mal", partitions=6, seed=1)
        assert (mean, std) == (0.0, 0.0)

    def test_pure_noise_near_fifty(self):
        cfg = SynthConfig(n_items=40, n_graders=60, items_per_grader=7,
                          grader_model=MallowsGraders(eta=1e-6), seed=0)
        noise, _ = simulate(cfg)
        mean, _ = self_consistency(noise, "mal", partitions=20, seed=0)
        assert abs(mean - 50.0) <= 3.0

    def test_needs_two_graders(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]]})
        with pytest.raises(ValidationError):
            self_consistency(data, "mal")

    def test_deterministic(self):
        data, _ = synth_ordinal(n_graders=10, seed=5)
        assert self_consistency(data, "mal", partitions=4, seed=2) == self_consistency(
            data, "mal", partitions=4, seed=2
        )


class TestDownsampleCurve:
    def test_full_level_matches_single_fit(self):
        data, target = synth_ordinal(n_graders=25, seed=1)
        curve = downsample_curve(data, "mal", "reviewers", [25], target, reps=4, seed=9)
        single = ek_error(target, fit_model("mal", data).ranking)
        assert len(curve) == 1
        assert curve[0].level == 25
        assert curve[0].ek_mean == pytest.approx(single, rel=1e-11)
        assert curve[0].ek_std == 0.0

    def test_single_item_per_reviewer_is_uninformative(self):
        data, target = synth_ordinal(n_items=40, n_graders=60, items_per_grader=7, seed=1)
        curve = downsample_curve(data, "mal", "items_per_reviewer", [1], target, reps=5, seed=0)
        assert abs(curve[0].ek_mean - 50.0) <= 15.0

    def test_fewer_reviewers_degrade(self):
        data, target = synth_ordinal(n_items=40, n_graders=60, items_per_grader=7, seed=1)
        curve = downsample_curve(data, "mal", "reviewers", [15, 60], target, reps=10, seed=0)
        assert curve[0].ek_mean >= curve[1].ek_mean

    def test_rejects_bad_levels(self):
        data, target = synth_ordinal(n_graders=10)
        with pytest.raises(ValidationError):
            downsample_curve(data, "mal", "reviewers", [11], target, reps=2)
        with pytest.raises(ValidationError):
            downsample_curve(data, "mal", "reviewers", [], target, reps=2)
        with pytest.raises(ValidationError):
            downsample_curve(data, "mal", "sideways", [5], target, reps=2)


class TestLazyIdentification:
    def test_recovers_lazy_graders(self):
        data, _ = synth_cardinal(n_lazy=4)
        rate = lazy_identification(data, "ncs+g", reps=5, seed=0)
        assert rate >= 0.75

    def test_null_control_near_chance(self):
        rates = []
        for s in range(40):
            data, _ = synth_cardinal(seed=100 + s)
            rng = np.random.default_rng(10_000 + s)
            labeled = frozenset(rng.choice(data.graders, size=4, replace=False).tolist())
            relabeled = dataclasses.replace(data, lazy_graders=labeled)
            rates.append(lazy_identification(relabeled, "ncs+g", reps=1, seed=0, resample=False))
        chance = 3 / 24  # bottom_k defaults to 12.5% of 24 graders
        assert abs(float(np.mean(rates)) - chance) <= 0.08

    def test_requires_lazy_labels_and_reliability_model(self):
        data, _ = synth_cardinal()
        with pytest.raises(ValidationError):
            lazy_identification(data, "ncs+g")
        with_lazy, _ = synth_cardinal(n_lazy=2)
        with pytest.raises(ValidationError):
            lazy_identification(with_lazy, "mal")
        with pytest.raises(ValidationError):
            lazy_identification(with_lazy, "ncs+g", bottom_k=0)

    def test_deterministic(self):
        data, _ = synth_cardinal(n_lazy=3)
        first = lazy_identification(data, "ncs+g", reps=3, seed=5)
        assert first == lazy_identification(data, "ncs+g", reps=3, seed=5)


class TestLazyIdentificationHeuristic:
    def test_perfect_grader_never_flagged(self):
        rankings = {f"g{i}": [["a"], ["b"], ["c"]] for i in range(4)}
        rankings["noisy"] = [["c"], ["b"], ["a"]]
        data = make_ordinal_dataset(rankings)
        labeled = dataclasses.replace(data, lazy_graders=frozenset({"noisy"}))
        rate = lazy_identification_heuristic(labeled, "mal", bottom_k=1, reps=1, resample=False)
        assert rate == 1.0

    def test_identical_feedback_breaks_ties_by_id(self):
        rankings = {g: [["a"], ["b"], ["c"]] for g in ("g1", "g2", "g3", "g4", "g5", "g6")}
        data = make_ordinal_dataset(rankings)
        flagged_first = dataclasses.replace(data, lazy_graders=frozenset({"g1", "g6"}))
        rate = lazy_identification_heuristic(flagged_first, "mal", bottom_k=1, reps=1,
                                             resample=False)
        assert rate == 0.5

    def test_resampled_rate_on_cardinal_data(self):
        data, _ = synth_cardinal(n_lazy=4)
        rate = lazy_identification_heuristic(data, "scavg", reps=5, seed=0)
        assert 0.0 <= rate <= 1.0

    def test_requires_lazy_labels(self):
        data, _ = synth_cardinal()
        with pytest.raises(ValidationError):
            lazy_identification_heuristic(data, "mal")


class TestRobustnessDelta:
    def test_zero_count_gives_zero_delta(self):
        data, truth = synth_cardinal()
        deltas = robustness_delta(data, "ncs", [0], TargetSet((truth.ranking,)), reps=2)
        assert deltas == (0.0,)

    def test_deltas_bounded(self):
        data, truth = synth_cardinal()
        deltas = robustness_delta(data, "ncs", [0, 2, 5], TargetSet((truth.ranking,)),
                                  reps=3, seed=1)
        assert len(deltas) == 3
        assert all(abs(d) < 50.0 for d in deltas)

    def test_rejects_bad_counts(self):
        data, truth = synth_cardinal()
        target = TargetSet((truth.ranking,))
        with pytest.raises(ValidationError):
            robustness_delta(data, "ncs", [], target)
        with pytest.raises(ValidationError):
            robustness_delta(data, "ncs", [-1], target)

    def test_deterministic(self):
        data, truth = synth_cardinal()
        target = TargetSet((truth.ranking,))
        assert robustness_delta(data, "ncs", [2], target, reps=2, seed=3) == robustness_delta(
            data, "ncs", [2], target, reps=2, seed=3
        )


class TestTimeMethods:
    def test_tiny_dataset_is_fast(self):
        tiny = make_cardinal_dataset({"g1": {"a": 7.0, "b": 5.0}, "g2": {"a": 6.0, "b": 8.0}})
        table = time_methods(tiny, MODEL_NAMES, reps=1)
        assert set(table) == set(MODEL_NAMES)
        for mean, std in table.values():
            assert 0.0 <= mean < 0.1
            assert std >= 0.0

    def test_mals_slower_than_mal(self):
        cfg = SynthConfig(n_items=20, n_graders=25, items_per_grader=7,
                          grader_model=MallowsGraders(eta=1.0), seed=5)
        data, _ = simulate(cfg)
        table = time_methods(data, ["mal", "mals"], reps=1)
        assert table["mals"][0] > table["mal"][0]

    def test_rejects_bad_reps(self):
        tiny = make_cardinal_dataset({"g1": {"a": 7.0, "b": 5.0}})
        with pytest.raises(ValidationError):
            time_methods(tiny, ["scavg"], reps=0)


class TestExperimentReport:
    def test_round_trips_through_json(self):
        report = ExperimentReport(
            experiment="downsample",
            method="mal",
            seed=7,
            params={"axis": "reviewers", "levels": [5, 10], "reps": 20},
            ek_mean=1.0 / 3.0,
            ek_std=0.25,
            curve=(CurvePoint(5, 41.25, 2.5), CurvePoint(10, 12.0, 0.75)),
            identification_rate=0.9,
            deltas=(0.0, -1.5),
            runtimes={"mal": (0.0125, 0.001), "mals": (1.5, 0.25)},
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert experiment_report_from_dict(payload) == report

    def test_minimal_round_trip(self):
        report = ExperimentReport(experiment="bootstrap", method="bt", seed=0)
        payload = json.loads(json.dumps(report.to_dict()))
        restored = experiment_report_from_dict(payload)
        assert restored == report
        assert restored.curve is None
        assert restored.runtimes is None
