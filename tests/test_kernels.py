"""The full-batch likelihood kernels compute in per-batch work arrays: they give
bit-identical results to the allocating kernels kept in ``oracles`` (the
listwise one agrees with its row-layout reference to rounding), what they
return does not alias their work arrays, and a repeat evaluation allocates
less than one pair-sized (or block-sized) array."""

import tracemalloc
import warnings

import numpy as np
import pytest

import opg
from opg import scoremodels
from opg.scoremodels import _prepare
from opg.synth import MallowsGraders, SynthConfig, simulate

import oracles
from conftest import make_cardinal_dataset, make_ordinal_dataset, random_weak_ranking


def _class(n_items, n_graders, seed=0):
    cfg = SynthConfig(
        n_items=n_items, n_graders=n_graders, items_per_grader=7, grader_model=MallowsGraders(eta=1.0), seed=seed
    )
    return simulate(cfg)[0]


def _tied_and_strict(rng):
    """Tied and strict rankings of 1 to 9 items, an all-tied grader, cardinal
    ties and an ungraded item."""
    items = [f"x{i:02d}" for i in range(11)]
    rankings = {
        f"m{m}{k}": random_weak_ranking(rng, sorted(rng.choice(items[:-1], size=m, replace=False).tolist()))
        for m in range(1, 10)
        for k in range(3)
    }
    rankings.update({f"s{m}": [[x] for x in rng.permutation(items[:-1])[:m].tolist()] for m in range(2, 10)})
    rankings["tied"] = [items[:6]]
    cardinal = {f"c{g}": {x: float(rng.integers(0, 3)) for x in items[2 * g : 2 * g + 5]} for g in range(4)}
    return [make_ordinal_dataset(rankings, items=tuple(items)), make_cardinal_dataset(cardinal, items=tuple(items))]


def _points(rng, n_items, n_graders):
    """Scores and reliabilities at three spreads, the widest putting z = scale * (s_w - s_l) beyond +-800."""
    for spread, low, high in ((1.0, 1e-3, 1e3), (40.0, 0.5, 2.0), (400.0, 1.0, 1.0)):
        s = rng.normal(0.0, spread, n_items).clip(-400.0, 400.0)
        yield s, np.exp(rng.uniform(np.log(low), np.log(high), n_graders))


def _same(got, want):
    return all((a is None and b is None) or np.array_equal(a, b) for a, b in zip(got, want, strict=True))


@pytest.mark.filterwarnings("ignore:items never graded")
class TestBitIdentity:
    @pytest.mark.parametrize("model", ["bt", "thur", "mals"])
    def test_evaluate_equals_the_allocating_kernel(self, model, rng):
        """nll, grad_s and grad_eta, with and without reliability gradients."""
        reference = oracles.perm_batch_evaluate if model == "mals" else oracles.pair_batch_evaluate
        for data in _tied_and_strict(rng) + [_class(60, 150, seed=3)]:
            batch = _prepare(model, data, rng)[0]
            for s, etas in _points(rng, batch.n_items, batch.n_graders):
                for need_eta in (False, True):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = batch.evaluate(s, etas, need_eta=need_eta)
                    assert _same(got, reference(batch, s, etas, need_eta=need_eta))

    def test_pairs_reach_z_of_800(self, rng):
        data = make_ordinal_dataset({"g1": [["a"], ["b"], ["c"]]})
        for model in ("bt", "thur"):
            batch = _prepare(model, data, rng)[0]
            for z in (-800.0, -40.0, 0.0, 40.0, 800.0):
                s, etas = np.array([z, 0.0, -z]), np.ones(1)
                want = oracles.pair_batch_evaluate(batch, s, etas, need_eta=True)
                assert _same(batch.evaluate(s, etas, need_eta=True), want)

    def test_log_permanent_equals_the_allocating_recursion(self, rng):
        """Over each block's own subset layers and masks, for random u."""
        batch = _prepare("mals", _tied_and_strict(rng)[0], rng)[0]
        for (graders, items, layers, log_masks), (*_, work) in zip(batch.blocks, batch.work, strict=True):
            for spread in (1.0, 30.0, 800.0):
                u = rng.normal(0.0, spread, (len(items), 2 * len(graders)))
                got = scoremodels._log_permanent(u, layers, log_masks, work)
                assert _same(got, oracles.log_permanent(u, layers, log_masks, True))

    def test_snapshot_slopes_in_the_work_arrays_equal_fresh_ones(self, rng):
        data = _class(40, 150)
        batch = _prepare("thur", data, rng)[0]
        for s, etas in _points(rng, batch.n_items, batch.n_graders):
            pair_scale = batch.scale(etas)[batch.grader]
            fresh = batch.slopes(s, pair_scale)
            assert np.array_equal(batch.all_slopes(s, pair_scale), fresh)
            for g in (0, 7, batch.n_graders - 1):
                pairs = slice(batch.pair_offsets[g], batch.pair_offsets[g + 1])
                assert np.array_equal(batch.slopes(s, batch.scale(etas)[g], pairs), fresh[pairs])

    @pytest.mark.parametrize("model", ["bt", "thur", "mals"])
    def test_results_survive_the_next_evaluation(self, model, rng):
        """What one evaluation returns is not overwritten by the next."""
        data = _tied_and_strict(rng)[0]
        batch = _prepare(model, data, rng)[0]
        (s1, e1), (s2, e2) = list(_points(rng, batch.n_items, batch.n_graders))[:2]
        first = batch.evaluate(s1, e1, need_eta=True)
        kept = [a.copy() for a in first]
        second = batch.evaluate(s2, e2, need_eta=True)
        assert _same(first, kept)
        assert not _same(second, kept)


@pytest.mark.filterwarnings("ignore:items never graded")
def test_listwise_evaluate_matches_the_row_layout_kernel(rng):
    """The blocked ``pl`` kernel sums in another order than its row-layout
    reference, so the two agree to rounding, not bit for bit."""
    for data in _tied_and_strict(rng) + [_class(60, 150, seed=3)]:
        batch = _prepare("pl", data, rng)[0]
        for s, etas in _points(rng, batch.n_items, batch.n_graders):
            for need_eta in (False, True):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = batch.evaluate(s, etas, need_eta=need_eta)
                want = oracles.list_batch_evaluate(batch, s, etas, need_eta=need_eta)
                for a, b in zip(got, want, strict=True):
                    assert (a is None and b is None) or np.allclose(a, b, rtol=1e-12, atol=0.0)


def _peak(call):
    """Peak traced allocation of ``call()``, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocations:
    """A repeat evaluation allocates less than one array of the size its kernel works at."""

    @pytest.mark.parametrize("model", ["bt", "thur"])
    def test_pair_batch(self, model, rng):
        data = _class(200, 600)
        batch = _prepare(model, data, rng)[0]
        n_pairs = len(batch.winner)
        s, etas = rng.normal(0.0, 1.0, batch.n_items), np.exp(rng.normal(0.0, 0.5, batch.n_graders))
        for need_eta in (False, True):
            assert _peak(lambda: batch.evaluate(s, etas, need_eta=need_eta)) < 8 * n_pairs
        if model == "thur":
            pair_scale = batch.scale(etas)[batch.grader]
            assert _peak(lambda: batch.all_slopes(s, pair_scale)) < 8 * n_pairs

    def test_permutation_block(self, rng):
        """Below one float array of a block's 2G columns of its m items. Numpy's
        ufuncs still allocate buffers of up to 8192 entries per broadcast
        operand, so the block is large enough that such an array is larger."""
        data = _class(600, 1800)
        batch = _prepare("mals", data, rng)[0]
        (graders, items, _, _), = batch.blocks
        s, etas = rng.normal(0.0, 1.0, batch.n_items), np.exp(rng.normal(0.0, 0.5, batch.n_graders))
        for need_eta in (False, True):
            assert _peak(lambda: batch.evaluate(s, etas, need_eta=need_eta)) < 8 * 2 * items.size

    def test_no_module_level_array_after_fits(self):
        data = _class(40, 150)
        for model in ("bt", "thur", "bt+g", "thur+g"):
            opg.fit_model(model, data)

        def holds_array(v):
            if isinstance(v, dict):
                v = list(v.values())
            if isinstance(v, (list, tuple)):
                return any(holds_array(x) for x in v)
            return isinstance(v, np.ndarray)

        assert [k for k, v in vars(scoremodels).items() if holds_array(v)] == []
