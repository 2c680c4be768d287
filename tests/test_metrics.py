import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import random_weak_ranking
from opg.errors import ValidationError
from opg.metrics import TargetSet, cardinal_errors, ek_error, strict_pair_count, tau_kt
from opg.rankings import WeakRanking, kendall_tau_distance
from test_rankings import weak_rankings


class TestTauKt:
    def test_identity_strict(self):
        r = WeakRanking.from_order(["a", "b", "c"])
        assert tau_kt(r, r) == 0.0

    def test_all_tied_prediction(self):
        target = WeakRanking.from_order(["a", "b", "c"])
        predicted = WeakRanking([("a", "b", "c")])
        assert tau_kt(target, predicted) == pytest.approx(1.5)

    def test_target_ties_ignored(self):
        target = WeakRanking([("a", "b"), ("c",)])
        predicted = WeakRanking.from_order(["c", "a", "b"])
        assert tau_kt(target, predicted) == pytest.approx(2.0)

    def test_item_mismatch(self):
        with pytest.raises(ValidationError):
            tau_kt(WeakRanking.from_order(["a"]), WeakRanking.from_order(["b"]))

    def test_reduces_to_kendall_for_strict(self, rng):
        items = [f"x{i}" for i in range(6)]
        for _ in range(20):
            p1 = [items[i] for i in rng.permutation(6)]
            p2 = [items[i] for i in rng.permutation(6)]
            r1, r2 = WeakRanking.from_order(p1), WeakRanking.from_order(p2)
            assert tau_kt(r1, r2) == kendall_tau_distance(r1, r2)

    def test_matches_brute_oracle(self, rng):
        items = [f"x{i}" for i in range(6)]
        for _ in range(50):
            tg = random_weak_ranking(rng, items)
            pg = random_weak_ranking(rng, items)
            got = tau_kt(WeakRanking(tg), WeakRanking(pg))
            assert got == pytest.approx(oracles.tau_kt_brute(tg, pg))

    @given(st.data())
    def test_matches_brute_oracle_with_ties_on_both_sides(self, data):
        n = data.draw(st.integers(1, 40))
        target, predicted = (data.draw(weak_rankings(min_items=n, max_items=n)) for _ in range(2))
        got = tau_kt(target, predicted)
        assert got == oracles.tau_kt_brute([list(g) for g in target.groups], [list(g) for g in predicted.groups])

    def test_bounded_by_strict_pairs_iff_reversal(self):
        target = WeakRanking.from_order(["a", "b", "c", "d"])
        reversal = WeakRanking.from_order(["d", "c", "b", "a"])
        assert tau_kt(target, reversal) == strict_pair_count(target) == 6


class TestStrictPairCount:
    @given(weak_rankings(max_items=12))
    def test_matches_rank_matrix(self, r):
        ranks = np.array(sorted(r.ranks().values()))
        assert strict_pair_count(r) == int(np.sum(ranks[:, None] < ranks[None, :]))

    def test_all_tied_and_single_item(self):
        assert strict_pair_count(WeakRanking([("a", "b", "c")])) == 0
        assert strict_pair_count(WeakRanking([("a",)])) == 0
        assert strict_pair_count(WeakRanking([("a", "b"), ("c",), ("d", "e")])) == 8


class TestEkError:
    def test_perfect(self):
        r = WeakRanking.from_order(["a", "b", "c"])
        assert ek_error([r], r) == 0.0

    def test_reversal_is_100(self):
        target = WeakRanking.from_order(["a", "b", "c"])
        assert ek_error([target], WeakRanking.from_order(["c", "b", "a"])) == 100.0

    def test_all_tied_is_50(self):
        target = WeakRanking.from_order(["a", "b", "c"])
        assert ek_error([target], WeakRanking([("a", "b", "c")])) == 50.0

    def test_macro_average(self):
        t1 = WeakRanking.from_order(["a", "b"])
        t2 = WeakRanking.from_order(["b", "a"])
        predicted = WeakRanking.from_order(["a", "b"])
        assert ek_error(TargetSet((t1, t2)), predicted) == 50.0

    def test_all_tied_target_rejected(self):
        target = WeakRanking([("a", "b")])
        with pytest.raises(ValidationError):
            ek_error([target], WeakRanking.from_order(["a", "b"]))

    def test_target_set_validation(self):
        with pytest.raises(ValidationError):
            TargetSet(())
        with pytest.raises(ValidationError):
            TargetSet((WeakRanking.from_order(["a"]), WeakRanking.from_order(["b"])))

    @given(st.integers(2, 7), st.randoms(use_true_random=False))
    def test_range(self, n, rnd):
        items = [f"x{i}" for i in range(n)]
        p1, p2 = items[:], items[:]
        rnd.shuffle(p1)
        rnd.shuffle(p2)
        val = ek_error([WeakRanking.from_order(p1)], WeakRanking.from_order(p2))
        assert 0.0 <= val <= 100.0

    def test_random_rankings_average_fifty(self):
        # mean error of random orders vs a fixed strict target sits near 50
        rng = np.random.default_rng(99)
        items = [f"x{i}" for i in range(20)]
        target = WeakRanking.from_order(items)
        vals = []
        for _ in range(400):
            perm = [items[i] for i in rng.permutation(20)]
            vals.append(ek_error([target], WeakRanking.from_order(perm)))
        assert abs(float(np.mean(vals)) - 50.0) < 3.0


class TestCardinalErrors:
    def test_identity(self):
        scores = {"a": 1.0, "b": 2.0, "c": 4.0}
        mae, rmse = cardinal_errors(scores, scores)
        assert mae == pytest.approx(0.0, abs=1e-12)
        assert rmse == pytest.approx(0.0, abs=1e-12)

    def test_affine_invariance(self):
        target = {"a": 1.0, "b": 2.0, "c": 4.0}
        predicted = {k: 2.0 * v + 5.0 for k, v in target.items()}
        mae, rmse = cardinal_errors(predicted, target)
        assert mae == pytest.approx(0.0, abs=1e-9)
        assert rmse == pytest.approx(0.0, abs=1e-9)

    def test_two_point_hand_case(self):
        target = {"a": 10.0, "b": 8.0}
        mae, rmse = cardinal_errors({"a": 1.0, "b": 0.0}, target)
        assert mae == pytest.approx(0.0, abs=1e-9)
        mae, rmse = cardinal_errors({"a": 0.0, "b": 1.0}, target)
        assert mae == pytest.approx(2.0)
        assert rmse == pytest.approx(2.0)

    def test_constant_predicted_rejected(self):
        with pytest.raises(ValidationError):
            cardinal_errors({"a": 1.0, "b": 1.0}, {"a": 1.0, "b": 2.0})

    def test_constant_target_rejected(self):
        with pytest.raises(ValidationError):
            cardinal_errors({"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 3.0})

    def test_item_mismatch(self):
        with pytest.raises(ValidationError):
            cardinal_errors({"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 2.0})

    def test_rescaled_moments_match(self, rng):
        target = {f"x{i}": float(v) for i, v in enumerate(rng.normal(8, 1.3, 12))}
        predicted = {f"x{i}": float(v) for i, v in enumerate(rng.normal(0, 1, 12))}
        mae, rmse = cardinal_errors(predicted, target)
        assert rmse >= mae >= 0.0
