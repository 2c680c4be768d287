"""Tests for the experiment protocols."""

import dataclasses
import json
import math

import numpy as np
import pytest

from opg import experiments, mallows
from opg.data import Dataset, GraderFeedback
from opg.dataio import _json_text, estimate_to_dict, parse_ordinal_json, write_ordinal_json
from opg.errors import ValidationError
from opg.estimators import MODEL_NAMES, ModelOptions, fit_model
from opg.experiments import (
    CurvePoint,
    _resample_graders,
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
from opg.synth import CardinalNormalGraders, MallowsGraders, SynthConfig, add_lazy_graders, simulate, strip_lazy

from conftest import make_cardinal_dataset, make_ordinal_dataset, make_tied_csv_dataset
from oracles import experiment_report_from_dict, resample_graders_oracle

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


class TestGraderSubsets:
    def test_resample_matches_the_replace_oracle(self, tmp_path):
        data = make_tied_csv_dataset(tmp_path, np.random.default_rng(1))
        resamples = []
        for seed in range(50):
            got = _resample_graders(data, np.random.default_rng(seed))
            want = resample_graders_oracle(data, np.random.default_rng(seed))
            assert (got.items, got.graders, got.lazy_graders) == (want.items, want.graders, want.lazy_graders)
            assert len(got.feedback) == len(want.feedback)
            for a, b in zip(got.feedback, want.feedback):
                for f in dataclasses.fields(GraderFeedback):
                    assert getattr(a, f.name) == getattr(b, f.name)
            assert got == want
            resamples.append(got)
        assert any("#" in g for d in resamples for g in d.lazy_graders)

    @pytest.mark.parametrize("method", ["scavg", "ncs+g", "malbc", "mal+g", "bt"])
    def test_protocols_match_datasets_built_afresh(self, method, tmp_path, monkeypatch):
        """Gathered arrays give the numbers of subsets rebuilt and compiled from their feedback."""
        data = make_tied_csv_dataset(tmp_path, np.random.default_rng(5))
        targets = TargetSet((WeakRanking.from_order(data.items),))

        def protocols():
            return (
                bootstrap_ek(data, method, targets, reps=4, seed=2),
                self_consistency(data, method, partitions=3, seed=2),
                downsample_curve(data, method, "reviewers", (4, 12), targets, reps=2, seed=2),
            )

        gathered = protocols()
        assert ("cardinal_arrays" if method in ("scavg", "ncs+g") else "feedback_arrays") in vars(data)
        select = experiments._select_graders
        monkeypatch.setattr(experiments, "_resample_graders", resample_graders_oracle)
        monkeypatch.setattr(experiments, "_select_graders", lambda *args: dataclasses.replace(select(*args)))
        assert protocols() == gathered

    def test_a_copy_named_like_a_roster_grader_is_refused(self):
        data = make_ordinal_dataset({g: [["a"], ["b"]] for g in ("a", "a#2", "b")})
        # A seed that draws grader 'a' twice and 'a#2' once: the second copy of 'a' is named 'a#2' too.
        seed = next(s for s in range(1000)
                    if np.bincount(np.random.default_rng(s).integers(0, 3, 3), minlength=3).tolist() == [2, 1, 0])
        for resample in (_resample_graders, resample_graders_oracle):
            with pytest.raises(ValidationError, match="grader roster contains duplicates"):
                resample(data, np.random.default_rng(seed))

    def test_resample_of_feedback_out_of_grader_order_matches_the_oracle(self, tmp_path):
        tied = make_tied_csv_dataset(tmp_path, np.random.default_rng(4))
        data = Dataset(tied.items, tied.graders, tied.feedback[::-1], tied.lazy_graders)
        assert [fb.grader for fb in data.feedback] != sorted(data.graders)
        data.cardinal_arrays
        resamples = []
        for seed in range(30):
            got = _resample_graders(data, np.random.default_rng(seed))
            want = resample_graders_oracle(data, np.random.default_rng(seed))
            for f in dataclasses.fields(Dataset):
                assert getattr(got, f.name) == getattr(want, f.name)
            for a, b in zip(got.cardinal_arrays, want.cardinal_arrays):
                assert np.array_equal(a, b)
            resamples.append(got)
        assert any("#" in g for d in resamples for g in d.lazy_graders)

    @pytest.mark.parametrize("method", ["mal", "malbc", "mal+g", "bt"])
    def test_an_ordinal_fit_of_a_resample_builds_none_of_its_records(self, method, tmp_path, monkeypatch):
        data = make_tied_csv_dataset(tmp_path, np.random.default_rng(6))
        resample = _resample_graders(data, np.random.default_rng(0))
        assert any("#" in g for g in resample.graders)
        renamed = []
        monkeypatch.setattr(GraderFeedback, "_renamed", lambda fb, name: renamed.append(name))
        fit_model(method, resample)
        assert renamed == [] and "feedback" not in vars(resample)

    @pytest.mark.parametrize("method", ["scavg", "ncs", "ncs+g"])
    def test_a_cardinal_fit_of_a_resample_builds_none_of_its_records(self, method, tmp_path, monkeypatch):
        data = make_tied_csv_dataset(tmp_path, np.random.default_rng(6))
        want = fit_model(method, resample_graders_oracle(data, np.random.default_rng(0)))
        resample = _resample_graders(data, np.random.default_rng(0))
        assert any("#" in g for g in resample.graders)
        renamed = []
        monkeypatch.setattr(GraderFeedback, "_renamed", lambda fb, name: renamed.append(name))
        got = fit_model(method, resample)
        assert renamed == [] and "feedback" not in vars(resample)
        assert _json_text(estimate_to_dict(got)) == _json_text(estimate_to_dict(want))

    def test_subsets_of_a_parsed_class_build_none_of_its_records(self, tmp_path):
        data, truth = simulate(SynthConfig(30, 60, 5, seed=2))
        write_ordinal_json(data, str(tmp_path / "d.json"))
        parsed = parse_ordinal_json(str(tmp_path / "d.json"))
        targets = [truth.ranking]

        def protocols(d):
            return (
                bootstrap_ek(d, "mal", targets, reps=5, seed=1),
                self_consistency(d, "mal+k", partitions=2, seed=1),
                downsample_curve(d, "malbc", "reviewers", (10, 30), targets, reps=2, seed=1),
            )

        got = protocols(parsed)
        assert "feedback" not in vars(parsed)
        assert got == protocols(data)

    # Each protocol's (mean, std) or curve on the tied dataset of rng seed 7, recorded when every
    # subset was still rebuilt through ``Dataset(...)`` and its resample names counted draw by draw.
    RECORDED = {
        ("scavg", 0): ((26.8181818182, 2.74238238709), (32.7272727273, 14.2004539562),
                       ((5, 35.0, 8.35671650493), (13, 28.6363636364, 4.49977042573))),
        ("scavg", 1): ((29.5454545455, 4.40698168856), (34.5454545455, 16.160353486),
                       ((5, 35.9090909091, 7.07106781187), (13, 31.3636363636, 0.642824346533))),
        ("scavg", 2): ((29.3939393939, 4.55151111649), (38.1818181818, 10.1232079324),
                       ((5, 28.6363636364, 3.21412173267), (13, 29.0909090909, 2.57129738613))),
        ("malbc", 0): ((23.4848484848, 2.39949489634), (28.4848484848, 5.84463682484),
                       ((5, 35.4545454545, 12.8564869307), (13, 24.5454545455, 3.8569460792))),
        ("malbc", 1): ((24.0909090909, 2.61906550743), (32.1212121212, 10.0137646314),
                       ((5, 37.7272727273, 9.642365198), (13, 27.2727272727, 0.0))),
        ("malbc", 2): ((25.7575757576, 3.28616768769), (32.1212121212, 10.0137646314),
                       ((5, 25.4545454545, 7.7138921584), (13, 26.8181818182, 0.642824346533))),
        # Recorded when every resample's ``+g`` fit still solved its reliability problems afresh.
        ("mal+g", 0): ((21.8181818182, 2.57129738613), (34.5454545455, 5.45454545455),
                       ((5, 33.6363636364, 6.42824346533), (13, 24.5454545455, 1.28564869307))),
        ("mal+g", 1): ((23.6363636364, 5.86346018058), (38.7878787879, 12.3761077919),
                       ((5, 39.0909090909, 1.28564869307), (13, 25.4545454545, 0.0))),
        ("mal+g", 2): ((24.5454545455, 5.23813101487), (37.5757575758, 13.1530511601),
                       ((5, 30.0, 14.1421356237), (13, 28.1818181818, 3.8569460792))),
        # The level-5 curves of seeds 0 and 1 re-recorded when the reliability step summed its terms in
        # order, so that a subset's reliabilities stopped depending on its parent's longest ranking.
        ("mal+kg", 0): ((22.1212121212, 2.41665479241), (35.7575757576, 5.55463720601),
                        ((5, 39.0909090909, 14.1421356237), (13, 25.4545454545, 2.57129738613))),
        ("mal+kg", 1): ((23.9393939394, 5.68212120404), (38.7878787879, 10.6535732311),
                        ((5, 44.5454545455, 6.42824346533), (13, 29.0909090909, 2.57129738613))),
        ("mal+kg", 2): ((24.5454545455, 5.11035248093), (37.5757575758, 11.5470053838),
                        ((5, 30.0, 14.1421356237), (13, 30.0, 1.28564869307))),
    }

    @pytest.mark.parametrize("method, seed", sorted(RECORDED))
    def test_protocols_give_the_recorded_numbers(self, method, seed, tmp_path):
        data = make_tied_csv_dataset(tmp_path, np.random.default_rng(7))
        targets = [WeakRanking.from_order(data.items)]
        curve = downsample_curve(data, method, "reviewers", (5, 13), targets, reps=2, seed=seed)
        got = (
            bootstrap_ek(data, method, targets, reps=6, seed=seed),
            self_consistency(data, method, partitions=3, seed=seed),
            tuple((p.level, p.ek_mean, p.ek_std) for p in curve),
        )
        assert got == self.RECORDED[method, seed]


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

    def test_items_per_reviewer_keeps_a_grader_at_or_below_the_level(self):
        data = make_cardinal_dataset({
            "short": {"a": 1.0, "b": 2.0},
            "long": {"a": 3.0, "b": 1.0, "c": 2.0, "d": 0.0},
        })
        thinned = experiments._downsample(data, "items_per_reviewer", 2, np.random.default_rng(0))
        before, after = ({fb.grader: fb for fb in d.feedback} for d in (data, thinned))
        assert after["short"] is before["short"]
        kept = after["long"]
        assert len(kept.items) == 2 and kept.ordinal == before["long"].ordinal.restrict(kept.items)
        assert kept.cardinal == {d: before["long"].cardinal[d] for d in kept.items}

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

    def test_each_repetition_fits_a_fresh_copy(self, monkeypatch):
        data = simulate(SynthConfig(n_items=20, n_graders=25, items_per_grader=5, seed=5))[0]
        calls, greedy = [], mallows._Centers.greedy
        monkeypatch.setattr(mallows._Centers, "greedy", lambda self, etas: calls.append(etas) or greedy(self, etas))
        time_methods(data, ["mal", "mal+k"], reps=2)
        assert len(calls) == 4 and "feedback_arrays" not in vars(data)


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


class TestSeedingRule:
    """Repetition k of a protocol fits, with seed s_k, the trial dataset built from seed s_k."""

    options = ModelOptions(iterations=3)

    @pytest.fixture
    def fits(self, monkeypatch):
        calls = []

        def recording_fit(method, data, options=None):
            calls.append((data, options))
            return fit_model(method, data, options)

        monkeypatch.setattr(experiments, "fit_model", recording_fit)
        return calls

    def check(self, fits, expected):
        """``expected``: (seed, trial dataset built from that seed) of each fit, in order."""
        assert [options for _, options in fits] == [dataclasses.replace(self.options, seed=s) for s, _ in expected]
        for (trial, _), (_, built) in zip(fits, expected):
            assert trial == built

    def test_bootstrap_fits_rep_k_with_seed_plus_k(self, fits):
        data, target = synth_ordinal(n_graders=12, seed=2)
        bootstrap_ek(data, "mal", target, reps=3, seed=5, options=self.options)
        self.check(fits, [(s, _resample_graders(data, np.random.default_rng(s))) for s in (5, 6, 7)])

    def test_downsample_fits_level_l_rep_k_with_seed_plus_l_reps_plus_k(self, fits):
        data, target = synth_ordinal(n_graders=12, seed=2)
        downsample_curve(data, "mal", "reviewers", [6, 9], target, reps=2, seed=4, options=self.options)
        level_of_seed = {4: 6, 5: 6, 6: 9, 7: 9}
        expected = [(s, experiments._downsample(data, "reviewers", level, np.random.default_rng(s)))
                    for s, level in level_of_seed.items()]
        self.check(fits, expected)

    def test_robustness_fits_count_c_rep_k_with_seed_plus_c_reps_plus_k(self, fits):
        data, truth = synth_cardinal()
        robustness_delta(data, "ncs", [0, 2, 3], TargetSet((truth.ranking,)), reps=2, seed=1, options=self.options)
        base_data, base_options = fits.pop(0)
        assert (base_data, base_options) == (data, self.options)
        count_of_seed = {3: 2, 4: 2, 5: 3, 6: 3}
        self.check(fits, [(s, add_lazy_graders(data, count, seed=s)) for s, count in count_of_seed.items()])

    @pytest.mark.parametrize(
        "protocol, method",
        [(lazy_identification, "ncs+g"), (lazy_identification_heuristic, "scavg")],
    )
    def test_lazy_identification_fits_rep_k_with_seed_plus_k(self, fits, protocol, method):
        data, _ = synth_cardinal(n_lazy=3)
        protocol(data, method, reps=3, seed=5, options=self.options)
        self.check(fits, [(s, add_lazy_graders(strip_lazy(data), 3, seed=s)) for s in (5, 6, 7)])
        fits.clear()
        protocol(data, method, reps=2, seed=8, options=self.options, resample=False)
        self.check(fits, [(8, data), (9, data)])

    def test_self_consistency_fits_both_halves_of_partition_k_with_seed_plus_k(self, fits):
        data, _ = synth_ordinal(n_graders=12, seed=2)
        self_consistency(data, "mal", partitions=2, seed=3, options=self.options)
        assert [options for _, options in fits] == [dataclasses.replace(self.options, seed=s) for s in (3, 3, 4, 4)]
