"""The full-batch likelihood kernels compute in per-batch work arrays: they give
bit-identical results to the allocating kernels kept in ``oracles`` (the
listwise one agrees with its row-layout reference without ties and with the
choice-by-choice Efron terms with them, and the pairwise ones with their
pair-layout reference, to rounding), what they return does not alias their
work arrays, and a repeat evaluation allocates less than one block-sized
array."""

import tracemalloc
import warnings

import numpy as np
import pytest

import opg
from opg import scoremodels
from opg.config import ScorePrior
from opg.experiments import _resample_graders
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
        reference = oracles.perm_batch_evaluate if model == "mals" else oracles.pair_block_evaluate
        for data in _tied_and_strict(rng) + [_class(60, 150, seed=3)]:
            batch = _prepare(model, data)
            for s, etas in _points(rng, batch.n_items, batch.n_graders):
                for need_eta in (False, True):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = batch.evaluate(s, etas, need_eta=need_eta)
                    assert _same(got, reference(batch, s, etas, need_eta=need_eta))

    def test_pairs_reach_z_of_800(self, rng):
        data = make_ordinal_dataset({"g1": [["a"], ["b"], ["c"]]})
        for model in ("bt", "thur"):
            batch = _prepare(model, data)
            for z in (-800.0, -40.0, 0.0, 40.0, 800.0):
                s, etas = np.array([z, 0.0, -z]), np.ones(1)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = batch.evaluate(s, etas, need_eta=True)
                assert _same(got, oracles.pair_block_evaluate(batch, s, etas, need_eta=True))
                want = oracles.pair_batch_evaluate(data, model == "thur", s, etas, need_eta=True)
                for a, b in zip(got, want, strict=True):
                    assert np.allclose(a, b, rtol=1e-12, atol=0.0)

    def test_log_permanent_equals_the_allocating_recursion(self, rng):
        """Over each block's own subset layers and masks, for random u."""
        batch = _prepare("mals", _tied_and_strict(rng)[0])
        for (graders, items, layers, log_masks), (*_, work) in zip(batch.blocks, batch.work, strict=True):
            for spread in (1.0, 30.0, 800.0):
                u = rng.normal(0.0, spread, (len(items), 2 * len(graders)))
                got = scoremodels._log_permanent(u, layers, log_masks, work)
                assert _same(got, oracles.log_permanent(u, layers, log_masks, True))

    @pytest.mark.parametrize("model", ["bt", "thur", "mals"])
    def test_results_survive_the_next_evaluation(self, model, rng):
        """What one evaluation returns is not overwritten by the next."""
        data = _tied_and_strict(rng)[0]
        batch = _prepare(model, data)
        (s1, e1), (s2, e2) = list(_points(rng, batch.n_items, batch.n_graders))[:2]
        first = batch.evaluate(s1, e1, need_eta=True)
        kept = [a.copy() for a in first]
        second = batch.evaluate(s2, e2, need_eta=True)
        assert _same(first, kept)
        assert not _same(second, kept)


def _strict(rng):
    """Strict rankings of 1 to 9 items, three of each length, and an ungraded item."""
    items = [f"x{i:02d}" for i in range(11)]
    rankings = {f"s{m}{k}": [[x] for x in rng.permutation(items[:-1])[:m].tolist()] for m in range(1, 10) for k in range(3)}
    return make_ordinal_dataset(rankings, items=tuple(items))


@pytest.mark.filterwarnings("ignore:items never graded")
def test_listwise_evaluate_matches_the_row_layout_kernel(rng):
    """Without ties, the blocked ``pl`` kernel sums in another order than its
    row-layout reference, so the two agree to rounding, not bit for bit."""
    for data in [_strict(rng), _class(60, 150, seed=3)]:
        batch = _prepare("pl", data)
        for s, etas in _points(rng, batch.n_items, batch.n_graders):
            for need_eta in (False, True):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = batch.evaluate(s, etas, need_eta=need_eta)
                want = oracles.list_batch_evaluate(batch, s, etas, need_eta=need_eta)
                for a, b in zip(got, want, strict=True):
                    assert (a is None and b is None) or np.allclose(a, b, rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("ignore:items never graded")
class TestEfronTies:
    """A ``pl`` tie group is scored by Efron's approximation."""

    def _tied(self, rng):
        data = _tied_and_strict(rng)
        return data + [_resample_graders(data[0], rng)]

    def test_matches_the_choice_by_choice_oracle(self, rng):
        """Each grader's value, and the score and reliability gradients, equal the dict-loop terms'
        to 1e-12 relative."""
        for data in self._tied(rng):
            batch, terms = _prepare("pl", data), oracles.dict_prepare("pl", data).terms
            assert any(len(block) > 2 for block in batch.blocks)
            for _ in range(3):
                s = rng.normal(0.0, 1.5, batch.n_items)
                etas = np.exp(rng.normal(0.0, 1.0, batch.n_graders))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    nll, grad_s, grad_eta = batch.evaluate(s, etas, need_eta=True)
                want_nll, want_eta, want_s = [], [], np.zeros(batch.n_items)
                for term, eta in zip(terms, etas.tolist(), strict=True):
                    value, gs, ge = term.value_and_grads(s, eta, need_s=True, need_eta=True)
                    want_nll.append(value)
                    want_eta.append(ge)
                    want_s[term.global_idx] += gs
                for got, want in ((nll, want_nll), (grad_s, want_s), (grad_eta, want_eta)):
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_reordering_a_tie_group_changes_nothing(self, rng):
        """Every grader's tie groups shuffled within the blocks: the same values and gradients to
        1e-12 relative, at every spread of scores and reliabilities."""
        for data in self._tied(rng):
            batch, shuffled = _prepare("pl", data), _prepare("pl", data)
            for k, (graders, items, *tied) in enumerate(shuffled.blocks):
                if tied:
                    items = items.copy()
                    for c, closes in enumerate(tied[0].T):
                        for group in np.split(np.arange(len(items)), np.flatnonzero(closes)[:-1] + 1):
                            items[group, c] = rng.permutation(items[group, c])
                    shuffled.blocks[k] = (graders, items, *tied)
            for s, etas in _points(rng, batch.n_items, batch.n_graders):
                for got, want in zip(shuffled.evaluate(s, etas, True), batch.evaluate(s, etas, True), strict=True):
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_a_grader_without_ties_keeps_the_choice_kernel_bit_for_bit(self, rng):
        """A block without ties runs today's kernel, and a tied block gives its strict graders'
        columns the same bits: both equal ``oracles.choice_block_kernel``."""
        strict_in_tied = 0
        for data in self._tied(rng) + [_strict(rng), _class(60, 150, seed=3)]:
            batch = _prepare("pl", data)
            for s, etas in _points(rng, batch.n_items, batch.n_graders):
                for block, work in zip(batch.blocks, batch.work, strict=True):
                    graders, items, *tied = block
                    nll, gu = batch._kernel(block, etas[graders], s[items], *work[2:])
                    want_nll, want_gu = oracles.choice_block_kernel(etas[graders] * s[items])
                    strict = tied[0].all(axis=0) if tied else np.ones(len(graders), dtype=bool)
                    strict_in_tied += int(strict.sum()) if tied else 0
                    assert np.array_equal(nll[strict], want_nll[strict])
                    assert np.array_equal(gu[:, strict], want_gu[:, strict])
        assert strict_in_tied > 0


@pytest.mark.filterwarnings("ignore:items never graded")
@pytest.mark.parametrize("model", ["bt", "thur"])
def test_pairwise_evaluate_matches_the_pair_layout(model, rng):
    """The blocked pairwise kernels sum each item's pairs in another order
    than the pair layout they replaced, so the two agree to rounding."""
    for data in _tied_and_strict(rng) + [_class(60, 150, seed=3)]:
        batch = _prepare(model, data)
        for s, etas in _points(rng, batch.n_items, batch.n_graders):
            for need_eta in (False, True):
                got = batch.evaluate(s, etas, need_eta=need_eta)
                want = oracles.pair_batch_evaluate(data, model == "thur", s, etas, need_eta=need_eta)
                for a, b in zip(got, want, strict=True):
                    assert (a is None and b is None) or np.allclose(a, b, rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("ignore:items never graded")
def test_svrg_column_equals_its_column_of_a_full_evaluation(rng):
    """A grader's SVRG step gradient, scale * ``_gradient`` of its entry of
    ``columns`` at the scores, equals the scale * gu that ``evaluate``
    leaves in that entry's snapshot, to rounding: both sum the same signed
    pair terms, but numpy sums a column's row of them pairwise and a
    block's across its columns in order."""
    for data in _tied_and_strict(rng)[:1] + [_class(40, 150)]:
        batch = _prepare("thur", data)
        columns = batch.columns()
        for s, etas in _points(rng, batch.n_items, batch.n_graders):
            batch.evaluate(s, etas)
            scale = batch.scale(etas)
            for (graders, items, *_), (_, weights, *_) in zip(batch.blocks, batch.work, strict=True):
                for c, g in enumerate(graders.tolist()):
                    own, block, work, snapshot = columns[g]
                    assert np.array_equal(own, items[:, c]) and np.shares_memory(snapshot, weights)
                    want = weights[:, c]
                    assert np.array_equal(snapshot, want)
                    got = scale[g] * batch._gradient(block, scale[g], s, work)
                    assert np.allclose(got, want, rtol=1e-12, atol=1e-15 * np.abs(want).max())


@pytest.mark.filterwarnings("ignore:items never graded")
def test_plain_thur_on_block_columns_follows_the_pair_layout_svrg(rng):
    """The same draws, step size, step order and stopping rule as the SVRG on
    the pair layout: on a class, a tied ordinal dataset and a cardinal one
    with ties, the same epochs and scores within 1e-12."""
    prior = ScorePrior()
    for data in [_class(40, 150)] + _tied_and_strict(rng):
        batch = _prepare("thur", data)
        pairs = oracles.PairBatch(data.feedback_arrays, batch.n_items, probit=True)
        s0, etas = np.full(batch.n_items, prior.mean), np.ones(batch.n_graders)
        s, epochs, _, converged = scoremodels._svrg_scores(batch, s0, prior, np.random.default_rng(7))
        want, want_epochs, _, want_converged = oracles.svrg_scores(pairs, s0, etas, prior, np.random.default_rng(7))
        assert (epochs, converged) == (want_epochs, want_converged) and epochs > 1
        assert np.abs(s - want).max() <= 1e-12
        meta = opg.fit_model("thur", data).metadata
        assert meta["svrg_epochs"] == oracles.svrg_scores(pairs, s0, etas, prior, np.random.default_rng(0))[1]


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
        """Below one float array of a block's pairs for each of its G graders."""
        data = _class(200, 600)
        batch = _prepare(model, data)
        (graders, _, first, *_), = batch.blocks
        s, etas = rng.normal(0.0, 1.0, batch.n_items), np.exp(rng.normal(0.0, 0.5, batch.n_graders))
        for need_eta in (False, True):
            assert _peak(lambda: batch.evaluate(s, etas, need_eta=need_eta)) < 8 * len(first) * len(graders)

    @pytest.mark.parametrize("model", ["bt", "thur"])
    def test_graders_of_a_few_hundred_items(self, model, rng):
        """Two graders who rank 300 items, one with ties: building the batch
        and evaluating it take less than 24 float arrays of their pairs, where
        one (m, pairs) matrix of a block would take m = 300; the evaluation
        agrees with the pair layout and a grader's column with it."""
        items = [f"x{i:03d}" for i in range(300)]
        rankings = {"strict": [[x] for x in rng.permutation(items).tolist()], "tied": random_weak_ranking(rng, items)}
        data = make_ordinal_dataset(rankings, items=tuple(items))
        data.feedback_arrays  # cached on the dataset before the trace
        s, etas = rng.normal(0.0, 1.0, len(items)), np.exp(rng.normal(0.0, 0.5, 2))

        def build_and_evaluate():
            batch = _prepare(model, data)
            return batch, batch.evaluate(s, etas, need_eta=True)

        assert _peak(build_and_evaluate) < 24 * 8 * (300 * 299 // 2) * 2
        batch, got = build_and_evaluate()
        want = oracles.pair_batch_evaluate(data, model == "thur", s, etas, need_eta=True)
        for a, b in zip(got, want, strict=True):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
        columns, scale = batch.columns(), batch.scale(etas)
        batch.evaluate(s, etas)
        for g, (_, block, work, snapshot) in enumerate(columns):
            got = scale[g] * batch._gradient(block, scale[g], s, work)
            assert np.allclose(got, snapshot, rtol=1e-12, atol=1e-12 * np.abs(snapshot).max())

    def test_permutation_block(self, rng):
        """Below one float array of a block's 2G columns of its m items. Numpy's
        ufuncs still allocate buffers of up to 8192 entries per broadcast
        operand, so the block is large enough that such an array is larger."""
        data = _class(600, 1800)
        batch = _prepare("mals", data)
        (graders, items, _, _), = batch.blocks
        s, etas = rng.normal(0.0, 1.0, batch.n_items), np.exp(rng.normal(0.0, 0.5, batch.n_graders))
        for need_eta in (False, True):
            assert _peak(lambda: batch.evaluate(s, etas, need_eta=need_eta)) < 8 * 2 * items.size

    def test_no_module_level_array_after_fits(self):
        data = _class(40, 150)
        for model in scoremodels.SCORE_MODELS:
            for variant in (model, model + "+g"):
                opg.fit_model(variant, data)

        def holds_array(v):
            if isinstance(v, dict):
                v = list(v.values())
            if isinstance(v, (list, tuple)):
                return any(holds_array(x) for x in v)
            return isinstance(v, np.ndarray)

        assert [k for k, v in vars(scoremodels).items() if holds_array(v)] == []
