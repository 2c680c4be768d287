"""Every estimate is a function of the feedback: renaming and reordering the
graders moves no ranking, and ``seed`` moves no estimate but plain ``thur``'s,
whose SVRG step order it draws."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opg.data import Dataset
from opg.dataio import estimate_to_dict
from opg.estimators import MODEL_NAMES, ModelOptions, fit_model
from opg.synth import CardinalNormalGraders, MallowsGraders, SynthConfig, simulate

from conftest import make_cardinal_dataset, make_ordinal_dataset, random_weak_ranking

CARDINAL = ("scavg", "ncs", "ncs+g")
ORDINAL = tuple(m for m in MODEL_NAMES if m not in CARDINAL)


def _renamed(data: Dataset, rng: np.random.Generator) -> tuple[Dataset, dict[str, str]]:
    """The same records under new grader ids whose sort order is a random permutation of the old."""
    places = rng.permutation(len(data.feedback))
    names = {fb.grader: f"h{place:04d}" for fb, place in zip(data.feedback, places.tolist())}
    return Dataset.from_feedback([fb._renamed(names[fb.grader]) for fb in data.feedback], items=data.items), names


def _rounded(data: Dataset) -> Dataset:
    """The class's grades rounded to whole points, so that most graders tie."""
    return make_cardinal_dataset(
        {fb.grader: {d: float(round(v)) for d, v in fb.cardinal.items()} for fb in data.feedback}, items=data.items
    )


def _assert_unmoved_by_renaming(data: Dataset, models, rng: np.random.Generator, tolerance: float = 1e-6) -> None:
    """Equal rankings, and scores and reliabilities within ``tolerance``, on ``data`` and on a renamed copy."""
    renamed, names = _renamed(data, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for model in models:
            want, got = fit_model(model, data), fit_model(model, renamed)
            assert got.ranking == want.ranking, model
            if want.scores is not None:
                assert got.scores.keys() == want.scores.keys()
                for item, score in want.scores.items():
                    assert math.isclose(got.scores[item], score, rel_tol=tolerance, abs_tol=tolerance), model
            if want.reliabilities is not None:
                assert got.reliabilities.keys() == {names[g] for g in want.reliabilities}
                for grader, eta in want.reliabilities.items():
                    assert math.isclose(got.reliabilities[names[grader]], eta, rel_tol=tolerance, abs_tol=tolerance), model


def _tied_cardinal_classes():
    """40 x 150 x 7 classes of normal graders with biases: the grades as drawn, which tie only where
    they are clamped to the scale, and rounded to whole points."""
    for seed in range(3):
        data = simulate(SynthConfig(grader_model=CardinalNormalGraders(1.0, 0.5), seed=seed))[0]
        yield data
        yield _rounded(data)


class TestRenamingGraders:
    @pytest.mark.parametrize("seed", range(3))
    def test_mallows_classes(self, seed):
        data = simulate(SynthConfig(grader_model=MallowsGraders(1.0), seed=seed))[0]
        _assert_unmoved_by_renaming(data, ORDINAL, np.random.default_rng(seed))

    def test_tied_cardinal_classes(self):
        for k, data in enumerate(_tied_cardinal_classes()):
            assert any(not fb.ordinal.is_total for fb in data.feedback)
            _assert_unmoved_by_renaming(data, MODEL_NAMES, np.random.default_rng(k))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**16), st.booleans(), st.integers(2, 9), st.integers(2, 24))
    def test_small_tied_classes(self, seed, cardinal, max_items, n_graders):
        rng = np.random.default_rng(seed)
        items = [f"x{i}" for i in range(10)]
        chosen = [rng.choice(items, size=int(rng.integers(2, max_items + 1)), replace=False).tolist()
                  for _ in range(n_graders)]
        if cardinal:
            data = make_cardinal_dataset(
                {f"g{g}": {d: float(rng.integers(0, 3)) for d in subset} for g, subset in enumerate(chosen)}
            )
        else:
            data = make_ordinal_dataset({f"g{g}": random_weak_ranking(rng, subset) for g, subset in enumerate(chosen)})
        # Plain ``thur`` draws its SVRG step order, from the seed and in grader order, and on classes
        # this small the scores its stopping rule leaves can differ by more than 1e-5 between orders.
        # The other score fits stop at a largest gradient entry of 1e-6 too; on classes this small and
        # flat, the order in which grader terms are summed can move where an L-BFGS run stops by a
        # few 1e-6 (``pl+g`` stopped 5e-6 apart after 42 and 44 steps on one such class).
        models = [m for m in (MODEL_NAMES if cardinal else ORDINAL) if m != "thur"]
        _assert_unmoved_by_renaming(data, models, rng, tolerance=1e-5)


def test_seed_moves_only_plain_thur():
    """Every other model gives byte-identical estimates under two seeds, on a Mallows class and on
    tied cardinal classes; plain ``thur``'s SVRG order does move its scores."""
    classes = [simulate(SynthConfig(grader_model=MallowsGraders(1.0), seed=0))[0], *_tied_cardinal_classes()]
    for data in classes[:3]:
        models = MODEL_NAMES if data.has_full_cardinal() else ORDINAL
        for model in models:
            fits = [estimate_to_dict(fit_model(model, data, ModelOptions(seed=seed))) for seed in (0, 7)]
            texts = [json.dumps(fit, sort_keys=True) for fit in fits]
            assert (texts[0] == texts[1]) == (model != "thur"), model
