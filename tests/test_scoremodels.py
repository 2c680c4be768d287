"""Tests for the score-based estimators and their solvers: L-BFGS, and per-grader SVRG for ``thur``."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize, minimize_scalar
from scipy.special import expit

import opg
from opg import scoremodels
from opg.config import ReliabilityPrior, ScorePrior
from opg.dataio import estimate_to_dict, parse_cardinal_csv
from opg.errors import EnumerationCapError, ValidationError
from opg.experiments import _resample_graders
from opg.mallows import borda_ranking
from opg.rankings import WeakRanking
from opg.scoremodels import (
    SCORE_MODELS,
    _prepare,
    fit,
    negative_log_posterior,
    pl_ranking_log_probability,
)
from opg.synth import CardinalNormalGraders, MallowsGraders, SynthConfig, simulate

import oracles
from conftest import make_cardinal_dataset, make_ordinal_dataset, random_weak_ranking
from oracles import (
    bt_pair_probability,
    consistent_with_weak,
    finite_difference,
    mals_likelihood_brute,
    mals_log_likelihood,
    pl_probability_brute,
    thurstone_pair_probability,
)

finite = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def ordered_partitions(items):
    """Every ordered set partition (weak ranking) of ``items``, each once."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in ordered_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        for i in range(len(part) + 1):
            yield part[:i] + [[first]] + part[i:]


class TestBtPairProbability:
    def test_equal_scores_half(self):
        for eta in (0.1, 1.0, 7.5):
            assert bt_pair_probability(2.3, 2.3, eta) == 0.5

    def test_unit_gap(self):
        p = bt_pair_probability(1.0, 0.0, 1.0)
        assert p == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), rel=1e-12)
        assert p == pytest.approx(0.731059, abs=5e-7)

    def test_unit_gap_eta_two(self):
        p = bt_pair_probability(1.5, 0.5, 2.0)
        assert p == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), rel=1e-12)
        assert p == pytest.approx(0.880797, abs=5e-7)

    @given(finite, finite, st.floats(min_value=0.01, max_value=10.0))
    def test_complementary(self, s_i, s_j, eta):
        total = bt_pair_probability(s_i, s_j, eta) + bt_pair_probability(s_j, s_i, eta)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_eta(self):
        for eta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValidationError):
                bt_pair_probability(1.0, 0.0, eta)


class TestThurstonePairProbability:
    def test_equal_scores_half(self):
        for eta in (0.1, 1.0, 7.5):
            assert thurstone_pair_probability(-0.4, -0.4, eta) == 0.5

    def test_unit_gap(self):
        p = thurstone_pair_probability(1.0, 0.0, 1.0)
        assert p == pytest.approx(0.8413447460685429, rel=1e-12)
        assert p == pytest.approx(0.841345, abs=5e-7)

    def test_unit_gap_eta_four(self):
        p = thurstone_pair_probability(0.5, -0.5, 4.0)
        assert p == pytest.approx(0.9772498680518208, rel=1e-12)
        assert p == pytest.approx(0.977250, abs=5e-7)

    @given(finite, finite, st.floats(min_value=0.01, max_value=10.0))
    def test_complementary(self, s_i, s_j, eta):
        total = thurstone_pair_probability(s_i, s_j, eta)
        total += thurstone_pair_probability(s_j, s_i, eta)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_gap(self):
        probs = [thurstone_pair_probability(g, 0.0, 1.0) for g in (0.0, 0.5, 1.0, 2.0)]
        assert probs == sorted(probs)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValidationError):
            thurstone_pair_probability(1.0, 0.0, 0.0)


class TestPlRankingLogProbability:
    def test_three_items_equal_scores(self):
        scores = {"a": 0.7, "b": 0.7, "c": 0.7}
        lp = pl_ranking_log_probability(["b", "a", "c"], scores, 1.0)
        assert lp == pytest.approx(math.log(1.0 / 6.0), rel=1e-12)

    def test_two_items_equal_scores(self):
        lp = pl_ranking_log_probability(["a", "b"], {"a": 0.0, "b": 0.0}, 1.0)
        assert lp == pytest.approx(math.log(0.5), rel=1e-12)

    def test_two_items_unit_gap(self):
        lp = pl_ranking_log_probability(["a", "b"], {"a": 1.0, "b": 0.0}, 1.0)
        assert lp == pytest.approx(math.log(math.e / (math.e + 1.0)), rel=1e-12)
        assert lp == pytest.approx(-0.313262, abs=5e-7)

    def test_probabilities_sum_to_one(self, rng):
        for m in (2, 3, 4, 5):
            items = [f"x{i}" for i in range(m)]
            scores = {x: float(v) for x, v in zip(items, rng.normal(0.0, 1.5, m))}
            total = sum(
                math.exp(pl_ranking_log_probability(list(perm), scores, 1.3))
                for perm in itertools.permutations(items)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_brute_force(self, rng):
        items = ["a", "b", "c", "d"]
        for _ in range(30):
            scores = {x: float(v) for x, v in zip(items, rng.normal(0.0, 2.0, 4))}
            order = [items[i] for i in rng.permutation(4)]
            eta = float(rng.uniform(0.2, 3.0))
            lp = pl_ranking_log_probability(order, scores, eta)
            assert math.exp(lp) == pytest.approx(
                pl_probability_brute(order, scores, eta), rel=1e-9
            )

    def test_eta_folds_into_scores(self):
        scores = {"a": 0.3, "b": -0.2, "c": 1.1}
        scaled = {x: 2.5 * v for x, v in scores.items()}
        lp1 = pl_ranking_log_probability(["c", "a", "b"], scores, 2.5)
        lp2 = pl_ranking_log_probability(["c", "a", "b"], scaled, 1.0)
        assert lp1 == pytest.approx(lp2, rel=1e-12)

    def test_accepts_weak_ranking_total_order(self):
        ranking = WeakRanking.from_order(["a", "b"])
        scores = {"a": 1.0, "b": 0.0}
        assert pl_ranking_log_probability(ranking, scores) == pytest.approx(
            pl_ranking_log_probability(["a", "b"], scores)
        )

    def test_rejects_tied_ranking(self):
        ranking = WeakRanking([["a", "b"], ["c"]])
        with pytest.raises(ValidationError):
            pl_ranking_log_probability(ranking, {"a": 0.0, "b": 0.0, "c": 0.0})

    def test_rejects_duplicates_and_missing_scores(self):
        with pytest.raises(ValidationError):
            pl_ranking_log_probability(["a", "a"], {"a": 0.0})
        with pytest.raises(ValidationError):
            pl_ranking_log_probability(["a", "b"], {"a": 0.0})


class TestMalsLogLikelihood:
    def _feedback(self, groups):
        data = make_ordinal_dataset({"g": groups})
        return data.feedback[0]

    def test_equal_scores_with_tie(self):
        fb = self._feedback([["a", "b"], ["c"]])
        scores = {"a": 0.4, "b": 0.4, "c": 0.4}
        lp = mals_log_likelihood(fb, scores, 1.0)
        assert lp == pytest.approx(math.log(2.0 / 6.0), rel=1e-12)

    def test_equal_scores_all_tied(self):
        fb = self._feedback([["a", "b", "c"]])
        lp = mals_log_likelihood(fb, {"a": 0.0, "b": 0.0, "c": 0.0}, 2.0)
        assert lp == pytest.approx(0.0, abs=1e-12)

    def test_two_items_agreeing(self):
        fb = self._feedback([["a"], ["b"]])
        lp = mals_log_likelihood(fb, {"a": 1.0, "b": 0.0}, 1.0)
        assert lp == pytest.approx(-math.log(1.0 + math.exp(-1.0)), rel=1e-12)
        assert lp == pytest.approx(-0.313262, abs=5e-7)

    def test_two_items_reversed(self):
        fb = self._feedback([["b"], ["a"]])
        lp = mals_log_likelihood(fb, {"a": 1.0, "b": 0.0}, 1.0)
        assert lp == pytest.approx(-1.0 - math.log(1.0 + math.exp(-1.0)), rel=1e-12)
        assert lp == pytest.approx(-1.313262, abs=5e-7)

    def test_matches_brute_force(self, rng):
        items = ["a", "b", "c", "d", "e"]
        for _ in range(25):
            m = int(rng.integers(2, 6))
            subset = [items[i] for i in rng.permutation(5)[:m]]
            cuts = sorted(rng.choice(m - 1, size=int(rng.integers(0, m)), replace=False) + 1) if m > 1 else []
            bounds = [0, *cuts, m]
            groups = [subset[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]
            groups = [g for g in groups if g]
            scores = {x: float(v) for x, v in zip(items, rng.normal(0.0, 1.0, 5))}
            fb = self._feedback(groups)
            for eta in (0.5, 1.0, 2.0):
                lp = mals_log_likelihood(fb, scores, eta)
                assert math.exp(lp) == pytest.approx(
                    mals_likelihood_brute(groups, scores, eta), rel=1e-9
                )

    def test_total_orders_sum_to_one(self, rng):
        items = ["a", "b", "c", "d"]
        scores = {x: float(v) for x, v in zip(items, rng.normal(0.0, 1.0, 4))}
        total = sum(
            math.exp(mals_log_likelihood(self._feedback([[x] for x in perm]), scores, 1.0))
            for perm in itertools.permutations(items)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_weak_orderings_sum_below_one(self, rng):
        items = ["a", "b", "c", "d"]
        scores = {x: float(v) for x, v in zip(items, rng.normal(0.0, 1.0, 4))}
        strict_prob = {
            perm: math.exp(mals_log_likelihood(self._feedback([[x] for x in perm]), scores, 1.0))
            for perm in itertools.permutations(items)
        }
        covered: set[tuple[str, ...]] = set()
        total = 0.0
        for part in ordered_partitions(items):
            consistent = {
                perm
                for perm in itertools.permutations(items)
                if consistent_with_weak(list(perm), part)
            }
            if consistent & covered:
                continue
            covered |= consistent
            total += math.exp(mals_log_likelihood(self._feedback(part), scores, 1.0))
        assert total <= 1.0 + 1e-9
        # each weak ordering's probability is the sum over its consistent orders
        expected = sum(strict_prob[perm] for perm in covered)
        assert total == pytest.approx(expected, rel=1e-9)

    def test_cap_exceeded(self):
        items = [f"x{i:02d}" for i in range(10)]
        fb = self._feedback([[x] for x in items])
        scores = {x: 0.0 for x in items}
        with pytest.raises(EnumerationCapError, match="cap"):
            mals_log_likelihood(fb, scores, 1.0)

    def test_rejects_bad_inputs(self):
        fb = self._feedback([["a"], ["b"]])
        with pytest.raises(ValidationError):
            mals_log_likelihood(fb, {"a": 0.0}, 1.0)
        with pytest.raises(ValidationError):
            mals_log_likelihood(fb, {"a": 0.0, "b": 0.0}, 0.0)


class TestGradients:
    """Analytic gradients of every model match central finite differences."""

    data = None

    @classmethod
    def setup_class(cls):
        cls.data = make_ordinal_dataset({
            "g1": [["a"], ["b"], ["c"]],
            "g2": [["b", "d"], ["a"]],
            "g3": [["d"], ["c"], ["b"], ["a"]],
        })
        cls.items = sorted(cls.data.items)
        cls.graders = ["g1", "g2", "g3"]

    def _draw(self, rng):
        while True:
            s = {x: float(v) for x, v in zip(self.items, rng.normal(0.0, 1.0, len(self.items)))}
            gaps = [abs(s[a] - s[b]) for a, b in itertools.combinations(self.items, 2)]
            if min(gaps) > 1e-3:
                break
        r = {g: float(np.exp(rng.normal(0.0, 0.5))) for g in self.graders}
        return s, r

    @pytest.mark.parametrize("model", SCORE_MODELS)
    def test_matches_finite_differences(self, model, rng):
        for _ in range(20):
            s, r = self._draw(rng)
            obj = negative_log_posterior(model, self.data, s, r)
            assert math.isfinite(obj.value)
            for x in self.items:
                def f(v, x=x):
                    s2 = dict(s)
                    s2[x] = v
                    return negative_log_posterior(model, self.data, s2, r).value
                fd = finite_difference(f, s[x], h=1e-5)
                assert abs(obj.score_gradient[x] - fd) <= 1e-4 * max(1.0, abs(fd))
            for g in self.graders:
                def f(v, g=g):
                    r2 = dict(r)
                    r2[g] = v
                    return negative_log_posterior(model, self.data, s, r2).value
                fd = finite_difference(f, r[g], h=1e-5)
                assert abs(obj.reliability_gradient[g] - fd) <= 1e-4 * max(1.0, abs(fd))

    @pytest.mark.parametrize("model", SCORE_MODELS)
    def test_without_reliabilities(self, model, rng):
        for _ in range(3):
            s, _ = self._draw(rng)
            obj = negative_log_posterior(model, self.data, s)
            assert obj.reliability_gradient is None
            for x in self.items:
                def f(v, x=x):
                    s2 = dict(s)
                    s2[x] = v
                    return negative_log_posterior(model, self.data, s2).value
                fd = finite_difference(f, s[x], h=1e-5)
                assert abs(obj.score_gradient[x] - fd) <= 1e-4 * max(1.0, abs(fd))


def reversal_closed_dataset():
    return make_ordinal_dataset({
        "g1": [["a"], ["b"], ["c"]],
        "g2": [["c"], ["b"], ["a"]],
        "g3": [["b"], ["a"], ["c"]],
        "g4": [["c"], ["a"], ["b"]],
    })


def exchangeable_dataset():
    return make_ordinal_dataset({
        f"g{i}": [[x] for x in perm]
        for i, perm in enumerate(itertools.permutations("abc"))
    })


class TestFit:
    def test_single_preference_orders_scores(self):
        est = fit("bt", make_ordinal_dataset({"g1": [["a"], ["b"]]}))
        assert est.scores["a"] > est.scores["b"]
        assert est.ranking.groups == (("a",), ("b",))
        assert est.metadata["model"] == "bt"

    def test_bt_two_item_root_oracle(self):
        # MAP first-order condition with s_b = -s_a: s_a/9 = 1 - sigmoid(2 s_a).
        root = brentq(lambda t: t / 9.0 - (1.0 - expit(2.0 * t)), 0.0, 9.0, xtol=1e-12)
        est = fit("bt", make_ordinal_dataset({"g1": [["a"], ["b"]]}))
        assert est.scores["a"] == pytest.approx(root, abs=1e-6)
        assert est.scores["b"] == pytest.approx(-root, abs=1e-6)

    @pytest.mark.parametrize("model", ("bt", "thur"))
    def test_reversal_closed_symmetry(self, model):
        data = reversal_closed_dataset()
        zeros = {x: 0.0 for x in data.items}
        obj = negative_log_posterior(model, data, zeros)
        assert max(abs(v) for v in obj.score_gradient.values()) <= 1e-12
        est = fit(model, data)
        vals = sorted(est.scores.values())
        assert vals[-1] - vals[0] <= 2e-2

    @pytest.mark.parametrize("model", ("pl", "mals"))
    def test_exchangeable_symmetry(self, model):
        data = exchangeable_dataset()
        est = fit(model, data)
        vals = sorted(est.scores.values())
        assert vals[-1] - vals[0] <= 2e-2
        zeros = {x: 0.0 for x in data.items}
        obj = negative_log_posterior(model, data, zeros)
        assert max(abs(v) for v in obj.score_gradient.values()) <= 1e-12

    @pytest.mark.parametrize("model", ("bt", "thur", "pl"))
    def test_convex_objective_multistart(self, model, rng):
        data = make_ordinal_dataset({
            "g1": [["a"], ["b"], ["c"]],
            "g2": [["b", "d"], ["a"]],
            "g3": [["d"], ["c"], ["a"]],
            "g4": [["c"], ["a"], ["d"], ["b"]],
        })
        items = sorted(data.items)

        def fun(x):
            obj = negative_log_posterior(model, data, dict(zip(items, x)))
            return obj.value, np.array([obj.score_gradient[i] for i in items])

        solutions = []
        for _ in range(5):
            res = minimize(fun, rng.normal(0.0, 2.0, len(items)), jac=True,
                           method="BFGS", options={"gtol": 1e-10})
            solutions.append((res.fun, res.x))
        values = [v for v, _ in solutions]
        assert max(values) - min(values) <= 1e-4
        reference = solutions[0][1]
        for _, x in solutions[1:]:
            assert np.abs(x - reference).max() <= 1e-3

        est = fit(model, data, seed=3)
        fitted = np.array([est.scores[i] for i in items])
        assert np.abs(fitted - reference).max() <= 5e-3

    @pytest.mark.parametrize("model", SCORE_MODELS)
    def test_reliability_monotonicity(self, model):
        rankings = {f"g{i}": [["a"], ["b"], ["c"], ["d"]] for i in range(5)}
        rankings["rev"] = [["d"], ["c"], ["b"], ["a"]]
        est = fit(model, make_ordinal_dataset(rankings), with_reliability=True)
        assert est.metadata["model"] == model + "+g"
        assert est.reliabilities is not None
        for eta in est.reliabilities.values():
            assert 1e-3 <= eta <= 1e3
        assert est.reliabilities["g0"] > est.reliabilities["rev"]

    def test_pl_ties_need_no_seed(self):
        """A tie group is scored by Efron's approximation: the fit draws nothing, so every seed gives
        the same estimate, and its metadata has the keys of a fit without ties."""
        tied = make_ordinal_dataset({"g1": [["a", "b"], ["c"]], "g2": [["c"], ["a"], ["b"]]})
        strict = make_ordinal_dataset({"g1": [["a"], ["b"], ["c"]]})
        for with_rel in (False, True):
            est = fit("pl", tied, with_reliability=with_rel)
            assert fit("pl", tied, seed=9, with_reliability=with_rel) == est
            assert est.metadata.keys() == fit("pl", strict, with_reliability=with_rel).metadata.keys()

    def test_deterministic_for_fixed_seed(self):
        data = make_ordinal_dataset({"g1": [["a", "b"], ["c"]], "g2": [["c"], ["b"], ["a"]]})
        first = fit("pl", data, seed=17, with_reliability=True)
        second = fit("pl", data, seed=17, with_reliability=True)
        assert first.scores == second.scores
        assert first.reliabilities == second.reliabilities

    def test_rejects_bad_inputs(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]]})
        with pytest.raises(ValidationError):
            fit("elo", data)
        from opg.data import Dataset
        with pytest.raises(ValidationError):
            fit("bt", Dataset(items=("a",), graders=(), feedback=()))

    def test_mals_cap_through_fit(self):
        items = [f"x{i:02d}" for i in range(10)]
        data = make_ordinal_dataset({"g1": [[x] for x in items]})
        with pytest.raises(EnumerationCapError):
            fit("mals", data)
        assert fit("bt", data).scores is not None


def _tied_datasets(rng):
    """Random tied rankings and cardinal-grade ties over unequal item subsets,
    with an ungraded item, plus a bootstrap resample of each."""
    items = [f"x{i}" for i in range(9)]

    def subset():
        return sorted(rng.choice(items[:-1], size=int(rng.integers(2, 8)), replace=False).tolist())

    ordinal = make_ordinal_dataset(
        {f"g{g}": random_weak_ranking(rng, subset()) for g in range(10)}, items=tuple(items)
    )
    cardinal = make_cardinal_dataset(
        {f"g{g}": {x: float(rng.integers(0, 3)) for x in subset()} for g in range(10)}, items=tuple(items)
    )
    datasets = [ordinal, cardinal, _resample_graders(ordinal, rng), _resample_graders(cardinal, rng)]
    assert all(any("#" in g for g in data.graders) for data in datasets[2:])
    return datasets


VARIANTS = [model + suffix for model in SCORE_MODELS for suffix in ("", "+g")]


def _batch_feedback(batch):
    """What a full-batch likelihood holds of each grader: its sorted (winner, loser)
    pairs for ``bt`` and ``thur``, its tie groups (sorted items, best group
    first) for ``pl`` and ``mals``."""
    rows = [None] * batch.n_graders
    if isinstance(batch, scoremodels._PairwiseBatch):
        for graders, items, first, second, mask, *_ in batch.blocks:
            for c, g in enumerate(graders.tolist()):
                strict = mask[:, c] == 1.0
                rows[g] = sorted(zip(items[first[strict], c].tolist(), items[second[strict], c].tolist()))
        return rows
    if isinstance(batch, scoremodels._PermBatch):
        for graders, items, layers, log_masks in batch.blocks:
            # The first half of the columns is the normaliser's, and drops nothing.
            assert all((mask[:, : len(graders)] == 0.0).all() for mask in log_masks)
            for c, g in enumerate(graders.tolist()):
                # An item's rank is the size of the smallest subset holding it
                # that may fill the top positions.
                rank = {}
                for r in range(len(layers) - 1, 0, -1):
                    members = layers[r][0]
                    for x in members[:, log_masks[r][:, len(graders) + c] == 0.0].ravel().tolist():
                        rank[int(items[x, c])] = r
                rows[g] = [sorted(x for x in rank if rank[x] == r) for r in sorted(set(rank.values()))]
        return rows
    for graders, items, *tied in batch.blocks:
        # A block without ties has no tables; each of its positions closes a group.
        closes = tied[0] if tied else np.ones(items.shape, dtype=bool)
        for g, row, ends in zip(graders.tolist(), items.T, closes.T):
            rows[g] = [sorted(group.tolist()) for group in np.split(row, np.flatnonzero(ends)[:-1] + 1)]
    return rows


def _terms_feedback(terms):
    """The same, from the per-grader terms the batch replaced."""
    if isinstance(terms[0], (oracles._LogisticPairTerm, oracles._PairTerm)):
        return [sorted(zip(t.global_idx[t.wl].tolist(), t.global_idx[t.ll].tolist())) for t in terms]
    return [[sorted(t.global_idx[g].tolist()) for g in t.groups_local] for t in terms]


@pytest.mark.filterwarnings("ignore:items never graded")
class TestMatchesDictOracles:
    """The full-batch likelihoods hold the same feedback as the dict-loop
    terms and sum to the same objective, and their fits reach an optimum no
    worse than the dict-loop SGD."""

    @pytest.mark.parametrize("model", SCORE_MODELS)
    def test_terms(self, model, rng):
        for _ in range(3):
            for data in _tied_datasets(rng):
                batch, want = _prepare(model, data), oracles.dict_prepare(model, data)
                assert _batch_feedback(batch) == _terms_feedback(want.terms)

    def test_permutation_batch_matches_the_enumeration(self, rng):
        """Every grader's value, and the score and reliability gradients, equal
        the enumeration over all orders to 1e-12 relative: random weak rankings
        of 1 to 9 items, an all-tied grader, an ungraded item and resampled graders."""
        items = [f"x{i:02d}" for i in range(11)]
        rankings = {
            f"m{m}": random_weak_ranking(rng, sorted(rng.choice(items[:-1], size=m, replace=False).tolist()))
            for m in range(1, 10)
        }
        rankings["tied"] = [items[:6]]
        data = make_ordinal_dataset(rankings, items=tuple(items))
        for data in (data, _resample_graders(data, rng)):
            batch = _prepare("mals", data)
            terms = oracles.dict_prepare("mals", data).terms
            s = rng.normal(0.0, 1.5, len(items))
            etas = np.exp(rng.normal(0.0, 1.0, len(terms)))
            nll, grad_s, grad_eta = batch.evaluate(s, etas, need_eta=True)
            want_nll, want_eta, want_s = [], [], np.zeros(len(items))
            for term, eta in zip(terms, etas.tolist(), strict=True):
                value, gs, ge = term.value_and_grads(s, eta, need_s=True, need_eta=True)
                want_nll.append(value)
                want_eta.append(ge)
                want_s[term.global_idx] += gs
            for got, want in ((nll, want_nll), (grad_s, want_s), (grad_eta, want_eta)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
            assert grad_s[-1] == 0.0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fit(self, variant, rng):
        """Every fit reaches a stationary point no worse than the SGD oracle's."""
        model, with_rel = variant.removesuffix("+g"), variant.endswith("+g")
        for data in _tied_datasets(rng):
            got = fit(model, data, seed=7, with_reliability=with_rel)
            want = oracles.dict_fit(
                model, data, seed=7, iterations=3, max_epochs=60, rel_tolerance=1e-5, with_reliability=with_rel
            )
            assert want.metadata.items() <= got.metadata.items()
            at_fit = negative_log_posterior(model, data, got.scores, got.reliabilities)
            at_oracle = negative_log_posterior(model, data, want.scores, want.reliabilities)
            assert max(abs(v) for v in at_fit.score_gradient.values()) <= 1e-5
            assert at_fit.value <= at_oracle.value

    @pytest.mark.parametrize("model", SCORE_MODELS)
    def test_negative_log_posterior(self, model, rng):
        """Equal, to rounding, to the sum over the per-grader terms."""
        for data in _tied_datasets(rng):
            scores = dict(zip(data.items, rng.normal(0.0, 1.0, len(data.items)).tolist()))
            rel = dict(zip(data.graders, np.exp(rng.normal(0.0, 0.5, len(data.graders))).tolist()))
            got = [negative_log_posterior(model, data, scores, r) for r in (None, rel)]
            want = [oracles.dict_negative_log_posterior(model, data, scores, r) for r in (None, rel)]
            for a, b in zip(got, want):
                assert a.value == pytest.approx(b.value, rel=1e-12)
                for grads in ("score_gradient", "reliability_gradient"):
                    u, v = getattr(a, grads), getattr(b, grads)
                    assert (u is None) == (v is None)
                    for key in v or ():
                        assert u[key] == pytest.approx(v[key], rel=1e-12, abs=1e-12)


def _reliability_objective(term, s, eta, prior):
    """One grader's negative log-posterior in its reliability, from its own term alone."""
    nll, _, _ = term.value_and_grads(s, eta, need_s=False, need_eta=False)
    return nll + eta / prior.scale - (prior.shape - 1.0) * math.log(eta)


def _projected_gradient(model, data, est, prior=None):
    """The largest absolute entry of the gradient of the negative log-posterior
    at ``est``, in the scores and, for a "+g" fit, in log(eta), leaving out a
    log(eta) at a bound whose gradient points out of [1e-3, 1e3]."""
    obj = negative_log_posterior(model, data, est.scores, est.reliabilities, reliability_prior=prior)
    largest = max(abs(v) for v in obj.score_gradient.values())
    for g, eta in (est.reliabilities or {}).items():
        grad_u = eta * obj.reliability_gradient[g]
        if not ((eta == 1e-3 and grad_u > 0.0) or (eta == 1e3 and grad_u < 0.0)):
            largest = max(largest, abs(grad_u))
    return largest


PRIORS = {"default": ReliabilityPrior(), "shape1": ReliabilityPrior(shape=1.0)}


@pytest.mark.filterwarnings("ignore:items never graded")
class TestFullBatch:
    @pytest.mark.parametrize("model", SCORE_MODELS)
    def test_reliabilities_match_a_scalar_search_per_grader(self, model, rng):
        """Each fitted eta is its grader's bounded scalar optimum at the fit's own scores."""
        for data, prior in itertools.product(_tied_datasets(rng), PRIORS.values()):
            est = fit(model, data, seed=3, with_reliability=True, reliability_prior=prior)
            prep = oracles.dict_prepare(model, data)
            s = np.array([est.scores[x] for x in prep.items])
            for term, g in zip(prep.terms, prep.graders, strict=True):
                best = minimize_scalar(
                    lambda z: _reliability_objective(term, s, 10.0**z, prior),
                    bounds=(-3.0, 3.0), method="bounded", options={"xatol": 1e-9},
                )
                assert math.log10(est.reliabilities[g]) == pytest.approx(best.x, abs=1e-5)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_metadata_reports_the_solver(self, variant, rng):
        model, with_rel = variant.removesuffix("+g"), variant.endswith("+g")
        steps, other = ("svrg_epochs", "lbfgs_iterations") if variant == "thur" else ("lbfgs_iterations", "svrg_epochs")
        for data in _tied_datasets(rng):
            est = fit(model, data, seed=2, with_reliability=with_rel)
            meta = est.metadata
            assert meta["converged"] is True and meta[steps] > 0 and other not in meta
            assert "reliability_change" not in meta
            assert meta["grad_norm"] == pytest.approx(_projected_gradient(model, data, est), abs=1e-9)
            assert meta["grad_norm"] <= 1e-6
            assert fit(model, data, seed=2, with_reliability=with_rel) == est

    def test_iteration_cap_is_reported(self, monkeypatch):
        data = make_ordinal_dataset({"g1": [["a"], ["b"], ["c"]], "g2": [["b"], ["c"], ["a"]]})
        monkeypatch.setattr(scoremodels, "_MAX_STEPS", 1)
        for with_rel in (False, True):
            meta = fit("bt", data, with_reliability=with_rel).metadata
            assert meta["lbfgs_iterations"] == 1 and meta["converged"] is False and meta["grad_norm"] > 1e-6

    def test_epoch_cap_is_reported(self, monkeypatch):
        data = make_ordinal_dataset({"g1": [["a"], ["b"], ["c"]], "g2": [["b"], ["c"], ["a"]]})
        monkeypatch.setattr(scoremodels, "_MAX_STEPS", 1)
        est = fit("thur", data)
        meta = est.metadata
        assert meta["svrg_epochs"] == 1 and meta["converged"] is False and meta["grad_norm"] > 1e-6
        obj = negative_log_posterior("thur", data, est.scores)
        assert meta["grad_norm"] == pytest.approx(max(abs(v) for v in obj.score_gradient.values()), rel=1e-9)

    def test_a_stationary_fit_is_converged(self):
        data = make_ordinal_dataset({"g1": [["a", "b"]], "g2": [["c"]]})
        meta = fit("thur", data).metadata
        assert (meta["svrg_epochs"], meta["grad_norm"], meta["converged"]) == (0, 0.0, True)

    @pytest.mark.parametrize("model", SCORE_MODELS)
    def test_large_reliabilities_stay_finite(self, model, rng):
        data = _tied_datasets(rng)[0]
        batch = _prepare(model, data)
        s = rng.normal(0.0, 10.0, len(data.items))
        nll, grad_s, grad_eta = batch.evaluate(s, np.full(batch.n_graders, 1e3), need_eta=True)
        assert np.isfinite(nll).all() and np.isfinite(grad_s).all() and np.isfinite(grad_eta).all()

    def test_thurstone_fit_at_paper_scale_is_stationary(self):
        """40 items, 150 graders, 7 items each: the fit reaches the MAP it reports."""
        cfg = SynthConfig(n_items=40, n_graders=150, items_per_grader=7, grader_model=MallowsGraders(eta=1.0), seed=0)
        data = simulate(cfg)[0]
        est = fit("thur", data)
        meta = est.metadata
        assert meta["converged"] is True and meta["grad_norm"] <= 1e-6
        obj = negative_log_posterior("thur", data, est.scores)
        assert meta["grad_norm"] == pytest.approx(max(abs(v) for v in obj.score_gradient.values()), abs=1e-12)

    def test_score_prior_mean_is_the_optimum_without_feedback_pairs(self):
        data = make_ordinal_dataset({"g1": [["a", "b"]], "g2": [["a"], ["b"]]}, items=("a", "b", "c"))
        for model in SCORE_MODELS:
            est = fit(model, data, score_prior=ScorePrior(mean=2.0))
            assert est.scores["c"] == pytest.approx(2.0, abs=1e-6) and est.metadata["converged"] is True


def _joint_objective(model, data, prior):
    """The +g negative log-posterior over x = (s, ln eta) with its gradient,
    written out here from the batch likelihood and the two priors."""
    batch = _prepare(model, data)
    n, score_prior = len(data.items), ScorePrior()

    def fun(x):
        s, u = x[:n], x[n:]
        eta = np.exp(u)
        nll, grad_s, grad_eta = batch.evaluate(s, eta, need_eta=True)
        d = s - score_prior.mean
        value = nll.sum() + d @ d / (2.0 * score_prior.variance) + (eta / prior.scale - (prior.shape - 1.0) * u).sum()
        grad_u = eta * (grad_eta + 1.0 / prior.scale) - (prior.shape - 1.0)
        return value, np.concatenate((grad_s + d / score_prior.variance, grad_u))

    return fun


@pytest.mark.filterwarnings("ignore:items never graded")
class TestJointFit:
    """A "+g" fit is one bounded L-BFGS run over (s, ln eta)."""

    @pytest.mark.parametrize("prior", PRIORS.values(), ids=PRIORS)
    @pytest.mark.parametrize("model", SCORE_MODELS)
    def test_reaches_the_bounded_optimum(self, model, prior, rng):
        """No worse than scipy's L-BFGS-B on the same bounded problem, and stationary.

        Under the default prior scipy starts where the fit does, at the prior
        mean and eta = 1, and both reach the same optimum. Under shape 1 the
        posterior has several local modes (a grader may be trusted or held at
        eta = 1e-3), and the two solvers need not pick the same one; there
        scipy starts at the fit, so the check is that it finds no descent.
        """
        on_bound = 0
        for data in _tied_datasets(rng):
            est = fit(model, data, seed=3, with_reliability=True, reliability_prior=prior)
            fun = _joint_objective(model, data, prior)
            graders = data.feedback_arrays.graders
            n = len(data.items)
            x = np.array([est.scores[i] for i in data.items] + [math.log(est.reliabilities[g]) for g in graders])
            best = minimize(
                fun, x if prior.shape == 1.0 else np.zeros_like(x), jac=True, method="L-BFGS-B",
                bounds=[(None, None)] * n + [(math.log(1e-3), math.log(1e3))] * len(graders),
                options={"maxiter": 20000, "maxfun": 40000, "ftol": 1e-15, "gtol": 1e-10},
            )
            value = fun(x)[0]
            assert value <= best.fun + 1e-9 * abs(value)
            assert _projected_gradient(model, data, est, prior) <= 1e-6
            assert est.metadata["converged"] is True and est.metadata["grad_norm"] <= 1e-6
            on_bound += sum(eta == 1e-3 for eta in est.reliabilities.values())
        assert (on_bound > 0) == (prior.shape == 1.0)

    def test_an_improper_prior_claims_no_convergence_it_has_not_reached(self, rng):
        """Under shape 1 and scale 1e4 the prior barely resists a growing eta,
        and a likelihood that depends on s only through eta * s (or
        sqrt(eta) * s) is nearly flat along (s / c, c * eta), so the fit is
        badly conditioned and may end at the step cap. It stays finite and in
        bounds, and is ``converged`` exactly when its projected gradient,
        computed apart from the fit, is at most 1e-6."""
        prior = ReliabilityPrior(shape=1.0, scale=1e4)
        data = _tied_datasets(rng)[0]
        flags = []
        for model in SCORE_MODELS:
            est = fit(model, data, with_reliability=True, reliability_prior=prior)
            meta = est.metadata
            assert all(math.isfinite(v) for v in est.scores.values())
            assert all(1e-3 <= eta <= 1e3 for eta in est.reliabilities.values())
            stationary = _projected_gradient(model, data, est, prior)
            assert meta["grad_norm"] == pytest.approx(stationary, rel=1e-6)
            assert meta["converged"] is (meta["grad_norm"] <= 1e-6)
            if not meta["converged"]:
                assert meta["lbfgs_iterations"] == scoremodels._MAX_STEPS
            flags.append(meta["converged"])
        assert False in flags


def _strict_classes():
    """40 x 150 x 7 classes of strict rankings: one of Mallows graders and one of
    cardinal graders, whose continuous grades have no ties."""
    return [
        simulate(SynthConfig(n_items=40, n_graders=150, items_per_grader=7, grader_model=model, seed=0))[0]
        for model in (MallowsGraders(eta=1.0), CardinalNormalGraders())
    ]


@pytest.mark.filterwarnings("ignore:items never graded")
class TestOneObjective:
    """Every L-BFGS fit runs on ``_posterior``, and gives bit-identical answers
    to the fits that wrote out their own objective (``oracles.lbfgs_scores``
    and ``oracles.lbfgs_joint``)."""

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "thur"])
    def test_fit_batch_equals_the_solver_oracles(self, variant, rng):
        model, with_rel = variant.removesuffix("+g"), variant.endswith("+g")
        score_prior = ScorePrior()
        for data in _tied_datasets(rng) + _strict_classes():
            batch = _prepare(model, data)
            s0 = np.full(batch.n_items, score_prior.mean)
            for prior in PRIORS.values() if with_rel else (None,):
                if prior is None:
                    etas = np.ones(batch.n_graders)
                    s, *report = oracles.lbfgs_scores(batch, s0, etas, score_prior)
                else:
                    s, etas, *report = oracles.lbfgs_joint(batch, s0, score_prior, prior)
                got_s, got_etas, meta = scoremodels._fit_batch(batch, score_prior, prior, 0)
                assert np.array_equal(got_s, s) and np.array_equal(got_etas, etas)
                assert (meta["lbfgs_iterations"], meta["grad_norm"], meta["converged"]) == tuple(report)


class TestUngradedItems:
    @pytest.mark.parametrize("model", SCORE_MODELS)
    def test_warns_once_that_they_get_the_prior_mean(self, model):
        data = make_ordinal_dataset(
            {"g1": [["a"], ["b"], ["c"]], "g2": [["a"], ["c"], ["b"]]}, items=("a", "b", "c", "z")
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = fit(model, data)
        messages = [str(w.message) for w in caught]
        assert messages == ["items never graded by anyone get the prior mean: ['z']"]
        assert abs(est.scores["z"]) <= 0.1

    def test_no_warning_when_every_item_is_graded(self):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model in SCORE_MODELS:
                fit(model, data)


class TestRefusals:
    """``negative_log_posterior``'s parameter checks, each with its message."""

    data = make_ordinal_dataset({"g1": [["a"], ["b"]], "g2": [["b"], ["a", "c"]]})
    scores = {"a": 0.5, "b": 0.0, "c": -0.5}

    @pytest.mark.parametrize("model", SCORE_MODELS)
    def test_missing_scores(self, model):
        with pytest.raises(ValidationError, match=re.escape("scores missing for items: ['b', 'c']")):
            negative_log_posterior(model, self.data, {"a": 0.0})

    @pytest.mark.parametrize("model", SCORE_MODELS)
    def test_missing_reliabilities(self, model):
        with pytest.raises(ValidationError, match=re.escape("reliabilities missing for graders: ['g2']")):
            negative_log_posterior(model, self.data, self.scores, {"g1": 1.0})

    @pytest.mark.parametrize("eta", [0.0, -1.0, math.inf, math.nan])
    def test_bad_reliabilities(self, eta):
        with pytest.raises(ValidationError, match=r"^reliabilities must be finite and > 0$"):
            negative_log_posterior("bt", self.data, self.scores, {"g1": 1.0, "g2": eta})


def test_fitting_does_not_import_scipy_optimize():
    """``import scipy.optimize`` costs start-up time and memory that no fit needs."""
    code = (
        "import sys, opg\n"
        "from opg.synth import MallowsGraders, SynthConfig, simulate\n"
        "cfg = SynthConfig(n_items=10, n_graders=20, items_per_grader=4, grader_model=MallowsGraders(eta=1.0))\n"
        "opg.fit_model('bt+g', simulate(cfg)[0])\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(opg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_fitting_without_thurstone_does_not_import_scipy_special():
    """Only ``thur`` needs ``scipy.special``, whose import costs start-up time and memory."""
    code = (
        "import sys, opg\n"
        "from opg.synth import CardinalNormalGraders, SynthConfig, simulate\n"
        "graders = CardinalNormalGraders(1.0, 0.5)\n"
        "data = simulate(SynthConfig(n_items=10, n_graders=20, items_per_grader=4, grader_model=graders))[0]\n"
        "for model in opg.MODEL_NAMES:\n"
        "    if not model.startswith('thur'):\n"
        "        opg.fit_model(model, data)\n"
        "print('scipy.special' in sys.modules)\n"
        "print(len(opg.fit_model('thur', data).scores))\n"
    )
    src = os.path.dirname(os.path.dirname(opg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["False", "10"]


def test_fitting_without_a_tie_to_break_does_not_import_numpy_random(tmp_path):
    """Only plain ``thur``'s SVRG order draws, so only it needs ``numpy.random``, whose import costs
    start-up time and memory: every other model, fitted on a class of distinct grades and on one of
    tied grades (whose ``pl`` feedback ties and whose Borda center ties, where ``pl``, ``pl+g`` and
    ``malbc+g`` once drew), leaves it unimported and gives the estimates it gives in-process. The
    exception is ``thur+g``, which draws nothing but loads ``scipy.special``, and ``import scipy``
    loads ``numpy.random``."""
    items = [f"x{i}" for i in range(8)]
    grades = {
        "strict": lambda g, k: k + 0.1 * (g % 3),
        "tied": lambda g, k: (g + k) % 3,  # four items on three grades: every grader ties
    }
    for name, grade in grades.items():
        rows = [f"g{g:02d},{items[(g + 3 * k) % 8]},{grade(g, k)}" for g in range(20) for k in range(4)]
        (tmp_path / f"{name}.csv").write_text("grader_id,item_id,score\n" + "\n".join(rows) + "\n")
    paths = [str(tmp_path / f"{name}.csv") for name in grades]
    tied = parse_cardinal_csv(paths[1])
    assert not borda_ranking(tied).is_total
    assert any(len(group) > 1 for fb in tied.feedback for group in fb.ordinal.groups)
    models = [m for m in opg.MODEL_NAMES if not m.startswith("thur")]
    code = (
        "import json, sys, opg\n"
        "from opg.dataio import estimate_to_dict, parse_cardinal_csv\n"
        "fits = {path: {m: estimate_to_dict(opg.fit_model(m, parse_cardinal_csv(path), opg.ModelOptions(seed=5)))\n"
        "               for m in json.loads(sys.argv[1])} for path in sys.argv[2:]}\n"
        "print('numpy.random' in sys.modules)\n"
        "opg.fit_model('thur', parse_cardinal_csv(sys.argv[2]))\n"
        "print('numpy.random' in sys.modules)\n"
        "print(json.dumps(fits, sort_keys=True))\n"
    )
    src = os.path.dirname(os.path.dirname(opg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(models), *paths], capture_output=True, text=True,
                          env=env, check=True)
    before, after, fits = proc.stdout.splitlines()
    assert (before, after) == ("False", "True")
    here = {path: {m: estimate_to_dict(opg.fit_model(m, parse_cardinal_csv(path))) for m in models} for path in paths}
    assert json.loads(fits) == here


def test_fitting_mals_at_the_item_cap_stays_in_bounded_memory():
    """At 9 items per grader the subset recursion needs a few MB and leaves no
    array behind at module level; enumerating all 9! orders took about 100 MB."""
    code = (
        "import tracemalloc, numpy as np, opg\n"
        "from opg import scoremodels\n"
        "from opg.synth import MallowsGraders, SynthConfig, simulate\n"
        "cfg = SynthConfig(n_items=20, n_graders=30, items_per_grader=9, grader_model=MallowsGraders(eta=1.0))\n"
        "data = simulate(cfg)[0]\n"
        "tracemalloc.start()\n"
        "meta = opg.fit_model('mals', data).metadata\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "def holds_array(v):\n"
        "    if isinstance(v, dict):\n"
        "        v = list(v.values())\n"
        "    if isinstance(v, (list, tuple)):\n"
        "        return any(holds_array(x) for x in v)\n"
        "    return isinstance(v, np.ndarray)\n"
        "print(peak < 32 * 2**20, [k for k, v in vars(scoremodels).items() if holds_array(v)], meta['converged'])\n"
    )
    src = os.path.dirname(os.path.dirname(opg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["True", "[]", "True"]


def test_logistic_batch_tail_probability_equals_expit():
    """``_PairBatch`` takes expit(-z) from the log term of its nll: equal to 1e-15, and warning-free."""
    data = make_ordinal_dataset({"g1": [["a"], ["b"]]})
    batch = _prepare("bt", data)
    for z in (-800.0, -40.0, -5.0, 0.0, 5.0, 40.0, 800.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, grad_s, _ = batch.evaluate(np.array([z, 0.0]), np.ones(1))
        # One pair, a above b, at eta 1: the loser's gradient entry is exactly q.
        q, expected = grad_s[1], expit(-z)
        assert abs(q - expected) <= 1e-15 * abs(expected), z


class TestLbfgsLineSearchFailure:
    def test_gives_up_unconverged(self):
        """A gradient that points uphill admits no Armijo step: the search halves the step below 1e-12
        and the fit returns where it started, claiming no convergence."""
        x, iterations, g_max, converged = scoremodels._lbfgs(lambda x: (float(x.sum()), -np.ones_like(x)), np.zeros(3))
        assert converged is False
        assert (iterations, g_max) == (0, 1.0)
        assert np.array_equal(x, np.zeros(3))
