"""Tests for the model registry: options reach every fitter, and bad options are rejected."""

import dataclasses

import pytest

from opg import cardinal, mallows, scoremodels
from opg.cli import main
from opg.config import ReliabilityPrior
from opg.dataio import write_ordinal_json
from opg.errors import ValidationError
from opg.estimators import MODEL_NAMES, ModelOptions, fit_model

from conftest import make_cardinal_dataset, make_ordinal_dataset

# Every field differs from its default.
OPTIONS = ModelOptions(
    seed=5,
    iterations=3,
    reliability_prior=ReliabilityPrior(shape=4.0, scale=0.5),
    tie_epsilon=0.05,
)

# name -> (family, learns reliabilities)
FAMILIES = {
    name: ("mal+k", True) if name == "mal+kg" else (name.removesuffix("+g"), name.endswith("+g"))
    for name in MODEL_NAMES
}


def _direct_fit(name, data, options):
    """The family fitter of ``name`` called with ``options``' values."""
    family, with_rel = FAMILIES[name]
    if family == "scavg":
        return cardinal.scavg(data, tie_epsilon=options.tie_epsilon)
    if family == "ncs":
        return cardinal.ncs_fit(
            data,
            options.ncs,
            iterations=options.iterations,
            with_bias_and_reliability=with_rel,
            reliability_prior=options.reliability_prior,
            tie_epsilon=options.tie_epsilon,
        )
    if family in ("mal", "malbc", "mal+k"):
        return mallows.fit_mallows(
            data,
            use_borda=family == "malbc",
            kemenize=family == "mal+k",
            with_reliability=with_rel,
            iterations=options.iterations,
            reliability_prior=options.reliability_prior,
        )
    return scoremodels.fit(
        family,
        data,
        seed=options.seed,
        with_reliability=with_rel,
        score_prior=options.score_prior,
        reliability_prior=options.reliability_prior,
        tie_epsilon=options.tie_epsilon,
    )


@pytest.fixture
def graded(rng):
    """Coarse grades, so ties and near-ties are common; the induced rankings
    serve the ordinal models."""
    items = [f"x{i}" for i in range(8)]
    return make_cardinal_dataset(
        {
            f"g{g}": {x: float(rng.integers(0, 4)) for x in rng.choice(items, size=5, replace=False).tolist()}
            for g in range(12)
        }
    )


class TestFitModelPassesEveryOption:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_matches_the_family_fitter(self, name, graded):
        got = fit_model(name, graded, OPTIONS)
        want = _direct_fit(name, graded, OPTIONS)
        assert got == dataclasses.replace(want, metadata={**want.metadata, "model": name})

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_names_the_model_last_or_in_place_in_a_dict_of_its_own(self, name, graded):
        first, second = fit_model(name, graded, OPTIONS), fit_model(name, graded, OPTIONS)
        want = {**_direct_fit(name, graded, OPTIONS).metadata, "model": name}
        assert list(first.metadata.items()) == list(want.items())
        assert first.metadata is not second.metadata

    def test_each_option_moves_the_models_that_use_it(self, graded):
        """Guards the test above: equality with the direct call only catches a
        dropped field where that field moves the estimate."""
        with_rel = [n for n in MODEL_NAMES if FAMILIES[n][1]]
        expected = {
            "seed": ["thur"],
            # The score models' +g fits are one joint L-BFGS run, with no rounds.
            "iterations": [n for n in with_rel if n not in ("bt+g", "thur+g", "pl+g", "mals+g")],
            "reliability_prior": with_rel,
            "tie_epsilon": [n for n in MODEL_NAMES if FAMILIES[n][0] not in ("mal", "malbc", "mal+k")],
        }
        fits = {n: _direct_fit(n, graded, OPTIONS) for n in MODEL_NAMES}
        for field, names in expected.items():
            reset = dataclasses.replace(OPTIONS, **{field: getattr(ModelOptions(), field)})
            moved = [n for n in MODEL_NAMES if _direct_fit(n, graded, reset) != fits[n]]
            assert moved == names, field


class TestNegativeIterations:
    def test_model_options(self):
        with pytest.raises(ValidationError):
            ModelOptions(iterations=-1)
        with pytest.raises(ValidationError):
            ModelOptions(seed=-1)
        assert ModelOptions(seed=0, iterations=0).iterations == 0

    @pytest.mark.parametrize("tie_epsilon", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")])
    def test_model_options_refuse_a_bad_tie_epsilon(self, tie_epsilon):
        with pytest.raises(ValidationError, match="tie_epsilon must be finite and >= 0"):
            ModelOptions(tie_epsilon=tie_epsilon)

    def test_model_options_take_a_zero_tie_epsilon(self):
        assert ModelOptions(tie_epsilon=0.0).tie_epsilon == 0.0

    def test_mallows(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]], "g2": [["b"], ["a"]]})
        with pytest.raises(ValidationError):
            mallows.fit_mallows(data, iterations=-1, with_reliability=True)

    def test_ncs(self):
        data = make_cardinal_dataset({"g1": {"a": 5.0, "b": 7.0}})
        with pytest.raises(ValidationError):
            cardinal.ncs_fit(data, iterations=-1, with_bias_and_reliability=True)

    def test_cli_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "data.json")
        write_ordinal_json(make_ordinal_dataset({"g1": [["a"], ["b"]]}), path)
        assert main(["estimate", "--model", "mal+g", "--input", path, "--iterations", "-1"]) == 1
        assert "iterations must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["mal", "bt"])
    @pytest.mark.parametrize("tie_epsilon", ["-1", "nan"])
    def test_cli_refuses_a_bad_tie_epsilon_before_it_fits(self, tmp_path, capsys, model, tie_epsilon):
        path, out = str(tmp_path / "data.json"), tmp_path / "est.json"
        write_ordinal_json(make_ordinal_dataset({"g1": [["a"], ["b"]]}), path)
        args = ["estimate", "--model", model, "--input", path, "--output", str(out), "--tie-epsilon", tie_epsilon]
        assert main(args) == 1
        assert not out.exists()
        assert "tie_epsilon must be finite and >= 0" in capsys.readouterr().err


class TestGradersWithoutFeedback:
    """Every ``+g`` model reports a reliability for every roster grader: one who gave no feedback gets
    the reliability prior's mode, kept in [1e-3, 1e3], which is its MAP without data."""

    RELIABILITY_MODELS = ("mal+g", "malbc+g", "mal+kg", "bt+g", "thur+g", "pl+g", "mals+g", "ncs+g")

    @pytest.mark.parametrize("prior", [ReliabilityPrior(shape=3.0, scale=0.7), ReliabilityPrior(shape=1.0)])
    def test_get_the_prior_mode(self, graded, prior):
        idle = dataclasses.replace(graded, graders=graded.graders + ("idle",))
        options = dataclasses.replace(OPTIONS, reliability_prior=prior)
        assert sorted(n for n in MODEL_NAMES if FAMILIES[n][1]) == sorted(self.RELIABILITY_MODELS)
        for name in self.RELIABILITY_MODELS:
            est = fit_model(name, idle, options)
            assert list(est.reliabilities) == list(idle.graders), name
            assert est.reliabilities["idle"] == min(max(prior.mode, 1e-3), 1e3), name
            # The idle grader changes no other reliability.
            fitted = fit_model(name, graded, options).reliabilities
            assert {g: r for g, r in est.reliabilities.items() if g != "idle"} == fitted, name
