import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opg.config import ReliabilityPrior, ScorePrior
from opg.data import Dataset, Estimate, FeedbackArrays, GraderFeedback, induced_ordinal
from opg.dataio import parse_cardinal_csv, parse_ordinal_json, write_cardinal_csv, write_ordinal_json
from opg.errors import ValidationError
from opg.estimators import fit_model
from opg.mallows import fit_mallows
from opg.rankings import WeakRanking

from conftest import make_cardinal_dataset, make_ordinal_dataset
from oracles import PreferencePair, extract_preferences
from test_rankings import weak_rankings


class TestInducedOrdinal:
    def test_strict(self):
        assert induced_ordinal({"a": 9.0, "b": 7.0}) == WeakRanking([("a",), ("b",)])

    def test_ties(self):
        assert induced_ordinal({"a": 8.0, "b": 8.0, "c": 5.0}) == WeakRanking(
            [("a", "b"), ("c",)]
        )

    def test_exact_equality_only(self):
        r = induced_ordinal({"a": 8.0, "b": 8.0 + 1e-12})
        assert r == WeakRanking([("b",), ("a",)])

    @pytest.mark.parametrize("grades", ({}, {"a": 1.0, "b": math.nan}, {"a": math.inf}))
    def test_rejects_empty_and_non_finite_grades(self, grades):
        with pytest.raises(ValidationError):
            induced_ordinal(grades)
        with pytest.raises(ValidationError):
            GraderFeedback.from_cardinal("g1", grades)


class TestGraderFeedback:
    def test_from_cardinal_attaches_ordinal(self):
        fb = GraderFeedback.from_cardinal("g1", {"b": 7.0, "a": 9.0})
        assert fb.items == ("a", "b")
        assert fb.ordinal == WeakRanking([("a",), ("b",)])
        assert fb.cardinal == {"a": 9.0, "b": 7.0}

    def test_ordinal_must_cover_items(self):
        with pytest.raises(ValidationError):
            GraderFeedback(
                grader="g", items=("a", "b"), ordinal=WeakRanking([("a",)]), cardinal=None
            )

    def test_needs_some_feedback(self):
        with pytest.raises(ValidationError):
            GraderFeedback(grader="g", items=("a",), ordinal=None, cardinal=None)

    def test_cardinal_keys_must_match(self):
        with pytest.raises(ValidationError):
            GraderFeedback.from_cardinal("g", {})
        with pytest.raises(ValidationError):
            GraderFeedback(
                grader="g",
                items=("a", "b"),
                ordinal=WeakRanking([("a", "b")]),
                cardinal={"a": 1.0},
            )

    def test_rejects_non_finite_grade(self):
        with pytest.raises(ValidationError):
            GraderFeedback.from_cardinal("g", {"a": float("inf")})

    def test_empty_grader_id(self):
        with pytest.raises(ValidationError):
            GraderFeedback.from_cardinal("", {"a": 1.0})


class TestDataset:
    def test_from_feedback_builds_rosters(self):
        fb = (
            GraderFeedback.from_ordinal("g2", WeakRanking([("a",), ("c",)])),
            GraderFeedback.from_ordinal("g1", WeakRanking([("b",), ("a",)])),
        )
        data = Dataset.from_feedback(fb)
        assert data.items == ("a", "b", "c")
        assert data.graders == ("g1", "g2")
        assert [f.grader for f in data.feedback] == ["g1", "g2"]

    def test_feedback_items_must_be_on_roster(self):
        fb = (GraderFeedback.from_ordinal("g", WeakRanking([("a",), ("z",)])),)
        with pytest.raises(ValidationError):
            Dataset(items=("a",), graders=("g",), feedback=fb)

    def test_one_feedback_per_grader(self):
        fb = (
            GraderFeedback.from_ordinal("g", WeakRanking([("a",)])),
            GraderFeedback.from_ordinal("g", WeakRanking([("b",)])),
        )
        with pytest.raises(ValidationError):
            Dataset.from_feedback(fb)

    def test_lazy_must_be_graders(self):
        fb = (GraderFeedback.from_ordinal("g", WeakRanking([("a",)])),)
        with pytest.raises(ValidationError):
            Dataset.from_feedback(fb, lazy_graders=("ghost",))

    def test_full_coverage_predicates(self):
        ordinal = Dataset.from_feedback(
            (GraderFeedback.from_ordinal("g", WeakRanking([("a",), ("b",)])),)
        )
        assert ordinal.has_full_ordinal()
        assert not ordinal.has_full_cardinal()
        cardinal = Dataset.from_feedback(
            (GraderFeedback.from_cardinal("g", {"a": 2.0, "b": 1.0}),)
        )
        assert cardinal.has_full_cardinal()
        assert cardinal.has_full_ordinal()


@pytest.fixture
def builds(monkeypatch):
    """Counts FeedbackArrays builds."""
    calls = []
    original = FeedbackArrays.build.__func__

    def counting(cls, data):
        calls.append(data)
        return original(cls, data)

    monkeypatch.setattr(FeedbackArrays, "build", classmethod(counting))
    return calls


class TestFeedbackArrays:
    def test_layout(self):
        data = make_ordinal_dataset(
            {"g1": [["c"], ["a", "d"]], "g2": [["b"], ["a"], ["c"]]}, items=("a", "b", "c", "d", "e")
        )
        arrays = data.feedback_arrays
        assert arrays.graders == ("g1", "g2")
        assert arrays.offsets.tolist() == [0, 3, 6]
        assert arrays.item.tolist() == [2, 0, 3, 1, 0, 2]
        assert arrays.rank.tolist() == [1, 2, 2, 1, 2, 3]
        pairs = list(zip(arrays.winner.tolist(), arrays.loser.tolist(), arrays.pair_grader.tolist()))
        assert pairs == [(2, 0, 0), (2, 3, 0), (1, 0, 1), (1, 2, 1), (0, 2, 1)]
        # A_i = (tie groups of size >= i) - 1 for i <= 3 items.
        assert arrays.coeff.tolist() == [[1.0, 0.0, -1.0], [2.0, -1.0, -1.0]]
        assert arrays.grader_coeff.tolist() == [0, 1]
        # End 2p is pair p's winner, end 2p + 1 its loser.
        assert arrays.incident_offsets.tolist() == [0, 3, 5, 9, 10, 10]
        assert arrays.incident.tolist() == [1, 5, 8, 4, 6, 0, 2, 7, 9, 3]
        with pytest.raises(ValueError):
            arrays.item[0] = 1

    @given(st.lists(weak_rankings(), min_size=1, max_size=5))
    def test_pairs_are_each_graders_strict_preferences(self, rankings):
        data = Dataset.from_feedback(GraderFeedback.from_ordinal(f"g{i}", r) for i, r in enumerate(rankings))
        arrays = data.feedback_arrays
        for g, fb in enumerate(data.feedback):
            mine = arrays.pair_grader == g
            pairs = [
                PreferencePair(data.items[w], data.items[l])
                for w, l in zip(arrays.winner[mine].tolist(), arrays.loser[mine].tolist())
            ]
            assert len(pairs) == len(set(pairs))
            assert set(pairs) == extract_preferences(fb.ordinal)

    def test_built_once_per_dataset(self, builds):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]], "g2": [["b"], ["a", "c"]]})
        assert data.feedback_arrays is data.feedback_arrays
        assert len(builds) == 1

    def test_one_reliability_fit_builds_once(self, builds):
        data = make_ordinal_dataset({"g1": [["a"], ["b"], ["c"]], "g2": [["b"], ["a", "c"]]})
        fit_model("mal+g", data)
        fit_model("mal+kg", data)
        assert builds == [data]

    def test_parsing_building_and_cardinal_fits_do_not_build(self, builds, tmp_path):
        ordinal = make_ordinal_dataset({"g1": [["a"], ["b"]], "g2": [["b"], ["a"]]})
        cardinal = make_cardinal_dataset({"g1": {"a": 9.0, "b": 7.0}, "g2": {"a": 6.0, "b": 8.0}})
        write_ordinal_json(ordinal, str(tmp_path / "o.json"))
        write_cardinal_csv(cardinal, str(tmp_path / "c.csv"))
        parsed = [parse_ordinal_json(str(tmp_path / "o.json")), parse_cardinal_csv(str(tmp_path / "c.csv"))]
        parsed.append(Dataset.from_feedback(cardinal.feedback))
        for model in ("scavg", "ncs", "ncs+g"):
            fit_model(model, parsed[-1])
        assert builds == []
        assert all("feedback_arrays" not in vars(d) for d in parsed)

    def test_replace_builds_its_own(self, builds):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]], "g2": [["b"], ["a"]]})
        arrays = data.feedback_arrays
        copy = dataclasses.replace(data)
        assert copy == data
        assert "feedback_arrays" not in vars(copy)
        assert copy.feedback_arrays is not arrays
        assert len(builds) == 2
        assert np.array_equal(copy.feedback_arrays.winner, data.feedback_arrays.winner)

    def test_mallows_fit_on_cardinal_only_grades_still_fails(self):
        fb = (GraderFeedback(grader="g1", items=("a", "b"), cardinal={"a": 1.0, "b": 2.0}),)
        data = Dataset.from_feedback(fb)
        with pytest.raises(ValidationError, match="model 'mal' needs ordinal feedback from every grader"):
            fit_model("mal", data)
        with pytest.raises(ValidationError, match="grader 'g1' has no ordinal feedback"):
            fit_mallows(data, with_reliability=True)
        assert "feedback_arrays" not in vars(data)


class TestEstimate:
    def test_scores_subset_of_ranking(self):
        r = WeakRanking([("a",), ("b",)])
        est = Estimate(ranking=r, scores={"a": 1.0, "b": 0.0})
        assert est.scores["a"] == 1.0
        with pytest.raises(ValidationError):
            Estimate(ranking=r, scores={"z": 1.0})

    def test_reliabilities_positive(self):
        r = WeakRanking([("a",)])
        with pytest.raises(ValidationError):
            Estimate(ranking=r, reliabilities={"g": 0.0})
        with pytest.raises(ValidationError):
            Estimate(ranking=r, reliabilities={"g": -1.0})


class TestConfigs:
    def test_score_prior_validation(self):
        assert ScorePrior().variance == 9.0
        with pytest.raises(ValidationError):
            ScorePrior(variance=0.0)

    def test_reliability_prior_mode(self):
        prior = ReliabilityPrior()
        assert prior.shape == 10.0
        assert prior.scale == 0.1
        assert prior.mode == pytest.approx(0.9)
        with pytest.raises(ValidationError):
            ReliabilityPrior(shape=0.0)
        with pytest.raises(ValidationError):
            ReliabilityPrior(scale=0.0)
