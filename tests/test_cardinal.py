"""Tests for the cardinal baselines: score averaging and the normal model."""

import math

import numpy as np
import pytest

from opg.cardinal import NcsHyperparams, ncs_fit, ncs_negative_log_posterior, scavg
from opg.config import ReliabilityPrior
from opg.data import Dataset
from opg.errors import ValidationError

from conftest import make_cardinal_dataset, make_ordinal_dataset
from oracles import finite_difference


class TestScavg:
    def test_simple_means(self):
        data = make_cardinal_dataset({
            "g1": {"a": 8.0, "b": 7.0},
            "g2": {"a": 9.0},
            "g3": {"a": 10.0},
        })
        est = scavg(data)
        assert est.scores["a"] == pytest.approx(9.0)
        assert est.scores["b"] == pytest.approx(7.0)
        assert est.metadata["model"] == "scavg"
        assert est.reliabilities is None

    def test_equal_means_tie(self):
        data = make_cardinal_dataset({
            "g1": {"a": 5.0, "b": 6.0},
            "g2": {"a": 7.0, "b": 6.0},
        })
        est = scavg(data)
        assert est.scores == {"a": 6.0, "b": 6.0}
        assert est.ranking.groups == (("a", "b"),)

    def test_ungraded_item_warns_and_ranks_last(self):
        data = make_cardinal_dataset({"g1": {"a": 5.0}}, items=["a", "z"])
        with pytest.warns(UserWarning, match="z"):
            est = scavg(data)
        assert "z" not in est.scores
        assert est.ranking.groups == (("a",), ("z",))

    def test_requires_cardinal_feedback(self):
        ordinal = make_ordinal_dataset({"g1": [["a"], ["b"]]})
        with pytest.raises(ValidationError):
            scavg(ordinal)
        with pytest.raises(ValidationError):
            scavg(Dataset(items=("a",), graders=(), feedback=()))


class TestNcsPlain:
    def test_closed_form(self):
        data = make_cardinal_dataset({
            "g1": {"a": 6.0, "b": 4.0},
            "g2": {"a": 8.0},
        })
        hp = NcsHyperparams(mu0=5.0, gamma0=0.5)
        est = ncs_fit(data, hp)
        assert est.scores["a"] == pytest.approx((0.5 * 5.0 + 14.0) / (0.5 + 2.0), rel=1e-12)
        assert est.scores["b"] == pytest.approx((0.5 * 5.0 + 4.0) / (0.5 + 1.0), rel=1e-12)
        assert est.metadata["model"] == "ncs"
        assert est.reliabilities is None

    def test_likelihood_dominates_for_tiny_gamma0(self):
        data = make_cardinal_dataset({"g1": {"a": 8.0}})
        est = ncs_fit(data, NcsHyperparams(mu0=0.0, gamma0=1e-12))
        assert est.scores["a"] == pytest.approx(8.0, abs=1e-9)

    def test_reduces_to_scavg(self, rng):
        grades = {
            f"g{i}": {f"x{j}": float(rng.uniform(1.0, 10.0)) for j in rng.choice(6, 3, replace=False)}
            for i in range(5)
        }
        data = make_cardinal_dataset(grades)
        baseline = scavg(data)
        est = ncs_fit(data, NcsHyperparams(gamma0=1e-12))
        for item, mean in baseline.scores.items():
            assert est.scores[item] == pytest.approx(mean, abs=1e-9)

    def test_default_mu0_is_grand_mean(self):
        data = make_cardinal_dataset({"g1": {"a": 2.0}, "g2": {"b": 4.0}})
        est = ncs_fit(data)
        assert est.metadata["mu0"] == pytest.approx(3.0)

    def test_ungraded_item_gets_prior_mean(self):
        data = make_cardinal_dataset({"g1": {"a": 9.0}}, items=["a", "z"])
        with pytest.warns(UserWarning, match="z"):
            est = ncs_fit(data, NcsHyperparams(mu0=5.0))
        assert est.scores["z"] == pytest.approx(5.0)


class TestNcsG:
    def test_identical_grades_hit_upper_clamp(self):
        data = make_cardinal_dataset({
            "A": {"x": 6.0, "y": 8.0},
            "B": {"x": 6.0, "y": 8.0},
        })
        hp = NcsHyperparams(mu0=0.0, gamma0=1e-12, gamma1=1.0)
        prior = ReliabilityPrior(shape=10.0, scale=1e9)
        est = ncs_fit(data, hp, with_bias_and_reliability=True, reliability_prior=prior)
        assert est.reliabilities == {"A": 1e3, "B": 1e3}
        assert est.scores["x"] == pytest.approx(6.0, abs=1e-9)
        assert est.scores["y"] == pytest.approx(8.0, abs=1e-9)
        assert est.metadata["model"] == "ncs+g"

    def test_recovers_constant_bias(self):
        data = make_cardinal_dataset({
            "A": {"x": 6.0, "y": 8.0},
            "B": {"x": 7.0, "y": 9.0},
        })
        est = ncs_fit(data, NcsHyperparams(gamma1=1e-6), with_bias_and_reliability=True)
        biases = est.metadata["biases"]
        assert biases["B"] - biases["A"] == pytest.approx(1.0, abs=1e-3)
        assert sum(biases.values()) == pytest.approx(0.0, abs=1e-12)
        assert est.scores["y"] > est.scores["x"]

    def test_a_grader_without_feedback_gets_a_reliability_and_bias_zero(self):
        graded = make_cardinal_dataset({"A": {"x": 6.0, "y": 8.0}, "B": {"x": 7.0, "y": 9.0}})
        data = Dataset(graded.items, graded.graders + ("idle",), graded.feedback)
        est = ncs_fit(data, NcsHyperparams(gamma1=1e-6), with_bias_and_reliability=True)
        biases = est.metadata["biases"]
        assert list(est.reliabilities) == list(biases) == list(data.graders)
        assert biases["idle"] == 0.0
        assert biases["B"] - biases["A"] == pytest.approx(1.0, abs=1e-3)
        assert biases["A"] + biases["B"] == pytest.approx(0.0, abs=1e-12)

    def test_biases_list_the_roster_in_order_whatever_the_feedback_order(self, rng):
        grades = {f"g{i}": {f"x{j}": float(rng.integers(0, 9)) for j in rng.choice(7, 4, replace=False)}
                  for i in range(6)}
        data = make_cardinal_dataset(grades)
        reversed_feedback = Dataset(data.items, data.graders, data.feedback[::-1])
        got, backwards = (ncs_fit(d, with_bias_and_reliability=True).metadata["biases"]
                          for d in (data, reversed_feedback))
        assert list(got) == list(backwards) == list(data.graders)
        assert got == pytest.approx(backwards, abs=1e-9)

    def test_global_shift_leaves_ranking_unchanged(self, rng):
        grades = {
            f"g{i}": {f"x{j}": float(rng.uniform(1.0, 10.0)) for j in rng.choice(8, 4, replace=False)}
            for i in range(6)
        }
        shifted = {g: {d: y + 5.0 for d, y in gs.items()} for g, gs in grades.items()}
        est_base = ncs_fit(make_cardinal_dataset(grades), with_bias_and_reliability=True)
        est_shift = ncs_fit(make_cardinal_dataset(shifted), with_bias_and_reliability=True)
        assert est_base.ranking == est_shift.ranking

    def test_alternating_rounds_are_monotone(self, rng):
        grades = {
            f"g{i}": {f"x{j}": float(rng.uniform(1.0, 10.0)) for j in rng.choice(7, 4, replace=False)}
            for i in range(5)
        }
        data = make_cardinal_dataset(grades)
        hp = NcsHyperparams()
        values = []
        for rounds in range(1, 7):
            est = ncs_fit(data, hp, iterations=rounds, with_bias_and_reliability=True)
            value, _, _, _ = ncs_negative_log_posterior(
                data, est.scores, est.metadata["biases"], est.reliabilities, hp
            )
            values.append(value)
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9

    def test_rounds_report_reliability_change_and_convergence(self, rng):
        grades = {
            f"g{i}": {f"x{j}": float(rng.uniform(1.0, 10.0)) for j in rng.choice(7, 4, replace=False)}
            for i in range(5)
        }
        data = make_cardinal_dataset(grades)
        none = ncs_fit(data, iterations=0, with_bias_and_reliability=True)
        assert none.metadata["reliability_change"] == [] and none.metadata["converged"] is False
        one = ncs_fit(data, iterations=1, with_bias_and_reliability=True)
        # The first round starts from eta = 1.
        first = max(abs(math.log(eta)) for eta in one.reliabilities.values())
        assert one.metadata["reliability_change"] == [pytest.approx(first, rel=1e-12)]
        many = ncs_fit(data, iterations=60, with_bias_and_reliability=True)
        changes = many.metadata["reliability_change"]
        assert len(changes) == 60 and changes[0] == one.metadata["reliability_change"][0]
        assert changes[-1] <= 1e-5 and many.metadata["converged"] is True
        short = ncs_fit(data, iterations=2, with_bias_and_reliability=True)
        assert short.metadata["reliability_change"][-1] > 1e-5 and short.metadata["converged"] is False

    def test_wild_grader_hits_lower_clamp(self):
        grades = {f"g{i}": {"x": 5.0, "y": 6.0} for i in range(4)}
        grades["wild"] = {"x": 500.0, "y": -500.0}
        est = ncs_fit(make_cardinal_dataset(grades), with_bias_and_reliability=True)
        assert est.reliabilities["wild"] == 1e-3
        assert all(1e-3 <= v <= 1e3 for v in est.reliabilities.values())

    def test_gradients_match_finite_differences(self, rng):
        grades = {
            f"g{i}": {f"x{j}": float(rng.uniform(1.0, 10.0)) for j in rng.choice(5, 3, replace=False)}
            for i in range(4)
        }
        data = make_cardinal_dataset(grades)
        items = sorted(data.items)
        graders = sorted(g for g in data.graders)
        hp = NcsHyperparams(mu0=5.0)
        for _ in range(20):
            s = {d: float(rng.normal(5.0, 2.0)) for d in items}
            b = {g: float(rng.normal(0.0, 1.0)) for g in graders}
            eta = {g: float(np.exp(rng.normal(0.0, 0.5))) for g in graders}
            value, gs, gb, ge = ncs_negative_log_posterior(data, s, b, eta, hp)
            assert math.isfinite(value)

            def check(analytic, point, rebuild):
                for key, grad in analytic.items():
                    def f(v, key=key):
                        changed = dict(point)
                        changed[key] = v
                        return ncs_negative_log_posterior(data, *rebuild(changed), hp)[0]
                    fd = finite_difference(f, point[key], h=1e-5)
                    assert abs(grad - fd) <= 1e-4 * max(1.0, abs(fd))

            check(gs, s, lambda p: (p, b, eta))
            check(gb, b, lambda p: (s, p, eta))
            check(ge, eta, lambda p: (s, b, p))

    def test_reliability_prior_enters_the_objective(self):
        data = make_cardinal_dataset({"g1": {"a": 5.0, "b": 7.0}, "g2": {"a": 6.0}})
        s, b, eta = {"a": 5.5, "b": 6.5}, {"g1": 0.2, "g2": -0.2}, {"g1": 0.7, "g2": 2.5}
        base, _, _, ge = ncs_negative_log_posterior(data, s, b, eta)
        prior = ReliabilityPrior(shape=4.0, scale=0.5)
        value, _, _, ge_prior = ncs_negative_log_posterior(data, s, b, eta, reliability_prior=prior)
        default = ReliabilityPrior()

        def log_prior(p, e):
            return (p.shape - 1.0) * math.log(e) - e / p.scale

        shift = sum(log_prior(default, e) - log_prior(prior, e) for e in eta.values())
        assert value == pytest.approx(base + shift, rel=1e-12)
        for g, e in eta.items():
            move = (1.0 / prior.scale - 3.0 / e) - (1.0 / default.scale - 9.0 / e)
            assert ge_prior[g] == pytest.approx(ge[g] + move, rel=1e-12)

    def test_rejects_nonpositive_reliability(self):
        data = make_cardinal_dataset({"g1": {"a": 5.0}})
        with pytest.raises(ValidationError):
            ncs_negative_log_posterior(data, {"a": 5.0}, {"g1": 0.0}, {"g1": 0.0})


class TestNcsHyperparams:
    def test_rejects_nonpositive_precisions(self):
        with pytest.raises(ValidationError):
            NcsHyperparams(gamma0=0.0)
        with pytest.raises(ValidationError):
            NcsHyperparams(gamma1=-2.0)

    def test_defaults(self):
        hp = NcsHyperparams()
        assert hp.mu0 is None
        assert hp.gamma0 == 0.1
        assert hp.gamma1 == 1.0


class TestNcsGradersAreTheRoster:
    def test_a_roster_of_graders_with_feedback_takes_the_direct_return(self, monkeypatch):
        """``ncs_fit`` hands ``_by_grader`` its graders as a tuple, equal to such a roster, so no merge runs."""
        calls = []
        original = ReliabilityPrior._by_grader

        def spy(self, roster, graders, etas):
            calls.append(graders == roster)
            return original(self, roster, graders, etas)

        monkeypatch.setattr(ReliabilityPrior, "_by_grader", spy)
        data = make_cardinal_dataset({"g1": {"a": 9.0, "b": 7.0}, "g2": {"a": 6.0, "b": 8.0, "c": 5.0}})
        est = ncs_fit(data, with_bias_and_reliability=True)
        assert calls == [True]
        assert list(est.reliabilities) == ["g1", "g2"]
