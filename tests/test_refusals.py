"""Refusals that no other test reaches, each with its exact message."""

import math
import re

import numpy as np
import pytest

from opg.cardinal import NcsHyperparams
from opg.cli import main
from opg.config import ScorePrior
from opg.data import Dataset, Estimate
from opg.dataio import dataset_to_dict, write_cardinal_csv
from opg.errors import ValidationError
from opg.estimators import ModelOptions, model_uses_reliability
from opg.experiments import _downsample, lazy_identification
from opg.mallows import MallowsParams, greedy_mle_ranking
from opg.metrics import cardinal_errors
from opg.rankings import WeakRanking
from opg.synth import NormalTruth, add_lazy_graders

from conftest import make_cardinal_dataset


def _refused(message: str):
    return pytest.raises(ValidationError, match=f"^{re.escape(message)}$")


@pytest.fixture
def graded() -> Dataset:
    return make_cardinal_dataset({"g1": {"a": 9.0, "b": 6.0, "c": 7.0}, "g2": {"a": 8.0, "b": 7.0}})


def _with_idle_grader(data: Dataset) -> Dataset:
    return Dataset(data.items, data.graders + ("idle",), data.feedback)


class TestNonFiniteSettings:
    def test_ncs_prior_mean(self):
        with _refused("mu0 must be finite"):
            NcsHyperparams(mu0=math.nan)

    def test_score_prior_mean(self):
        with _refused("score prior mean must be finite"):
            ScorePrior(mean=math.inf)

    def test_truth_mean(self):
        with _refused("truth mean must be finite"):
            NormalTruth(mean=math.nan)

    def test_estimated_score(self):
        with _refused("estimated score for 'a' is not finite: nan"):
            Estimate(WeakRanking.from_order(["a", "b"]), scores={"a": math.nan, "b": 0.0})

    def test_mallows_reliability_of_zero(self):
        with _refused("reliability of 'g1' must be finite and > 0, got 0.0"):
            MallowsParams({"g1": 0.0})

    def test_cardinal_errors_of_a_non_finite_score(self):
        with _refused("scores must be finite"):
            cardinal_errors({"a": math.inf, "b": 1.0}, {"a": 0.0, "b": 1.0})


class TestRefusedArguments:
    def test_unknown_model(self):
        with pytest.raises(ValidationError, match=r"^unknown model 'nope'; choose from "):
            model_uses_reliability("nope")

    def test_no_items_per_reviewer(self, graded):
        with _refused("level must be >= 1, got 0"):
            _downsample(graded, "items_per_reviewer", 0, np.random.default_rng(0))

    def test_lazy_identification_of_a_fit_without_reliabilities(self, graded):
        labelled = add_lazy_graders(graded, 1, seed=0)
        with _refused("model 'mal+g' returned no reliabilities"):
            lazy_identification(labelled, "mal+g", reps=1, options=ModelOptions(iterations=0))

    def test_a_negative_number_of_lazy_graders(self, graded):
        with _refused("n must be >= 0, got -1"):
            add_lazy_graders(graded, -1)

    def test_lazy_graders_for_a_dataset_without_feedback(self):
        with _refused("cannot match grade statistics: dataset has no feedback"):
            add_lazy_graders(Dataset(("a",), ("g1",), ()), 1)

    def test_greedy_centre_of_no_items(self):
        with _refused("dataset has no items"):
            greedy_mle_ranking(Dataset((), (), ()))

    def test_rank_of_an_unknown_item(self):
        with _refused("item 'z' is not ranked"):
            WeakRanking.from_order(["a", "b"]).rank_of("z")


class TestUnwritableDatasets:
    def test_csv_of_a_grader_without_feedback(self, graded, tmp_path):
        with _refused("CSV cannot represent graders without feedback"):
            write_cardinal_csv(_with_idle_grader(graded), str(tmp_path / "d.csv"))
        assert not (tmp_path / "d.csv").exists()

    def test_json_of_a_grader_without_feedback(self, graded):
        with _refused("JSON format cannot represent graders without feedback"):
            dataset_to_dict(_with_idle_grader(graded))


class TestCommandLine:
    def test_a_malformed_grader_model(self, tmp_path, capsys):
        argv = ["simulate", "--grader-model", "mallows:x", "--output", str(tmp_path / "d.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: bad --grader-model 'mallows:x'; expected mallows:ETA or normal:ETA[:BIAS_STD]\n"
        )
        assert not (tmp_path / "d.json").exists()

    def test_malformed_levels(self, tmp_path, capsys):
        data = str(tmp_path / "d.json")
        assert main(["simulate", "--items", "6", "--graders", "8", "--items-per-grader", "3", "--output", data]) == 0
        target = str(tmp_path / "t.json")
        assert main(["estimate", "--model", "mal", "--input", data, "--output", target]) == 0
        argv = ["experiment", "--name", "downsample", "--model", "mal", "--input", data, "--target", target,
                "--axis", "reviewers", "--levels", "1,x"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: bad --levels '1,x'; expected comma-separated integers\n"
