import dataclasses
import functools
import gc
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opg import experiments
from opg.cardinal import _cardinal_observations
from opg.config import ReliabilityPrior, ScorePrior
from opg.data import Dataset, EndTable, Estimate, FeedbackArrays, GraderFeedback, induced_ordinal
from opg.dataio import (
    _json_text,
    estimate_to_dict,
    parse_cardinal_csv,
    parse_ordinal_json,
    write_cardinal_csv,
    write_ordinal_json,
)
from opg.errors import ValidationError
from opg.estimators import fit_model
from opg.experiments import bootstrap_ek, downsample_curve, self_consistency
from opg.mallows import fit_mallows, fit_reliabilities
from opg.rankings import WeakRanking
from opg.synth import CardinalNormalGraders, SynthConfig, simulate

from conftest import make_cardinal_dataset, make_ordinal_dataset, make_tied_csv_dataset
from oracles import (
    PreferencePair,
    build_feedback_arrays,
    dict_cardinal_observations,
    extract_preferences,
    flat_strict_pairs,
    groups_feedback_arrays,
    resample_graders_oracle,
)
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

    def test_from_ordinal_sorts_the_items(self):
        fb = GraderFeedback.from_ordinal("g", WeakRanking([("c",), ("b", "a")]))
        assert fb.items == ("a", "b", "c")

    @given(weak_rankings())
    def test_from_ordinal_equals_the_checked_constructor(self, ranking):
        fb = GraderFeedback.from_ordinal("g", ranking)
        assert fb == GraderFeedback(grader="g", items=tuple(ranking.items), ordinal=ranking)
        assert fb.cardinal is None and fb.ordinal is ranking

    @pytest.mark.parametrize(
        "record",
        [
            GraderFeedback.from_ordinal("g", WeakRanking([("b",), ("a", "c")])),
            GraderFeedback.from_cardinal("g", {"a": 2.0, "b": 1.0, "c": 2.0}),
        ],
        ids=["ordinal", "cardinal"],
    )
    def test_renamed_keeps_both_records_without_a_dict(self, record):
        def field_dicts(fb):
            return [r for r in gc.get_referents(fb) if isinstance(r, dict) and "grader" in r]

        copy = record._renamed("h")
        assert copy.grader == "h"
        assert (copy.items, copy.ordinal, copy.cardinal) == (record.items, record.ordinal, record.cardinal)
        assert field_dicts(record) == [] and field_dicts(copy) == []

    @pytest.mark.parametrize("grader", ["", 5, None])
    def test_from_ordinal_checks_the_grader_id(self, grader):
        message = f"grader id must be a non-empty string, got {grader!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            GraderFeedback.from_ordinal(grader, WeakRanking([("a",)]))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(grader="", items=("a",), cardinal={"a": 1.0}), "grader id must be a non-empty string, got ''"),
            (dict(grader="g", items=(), cardinal={}), "grader 'g' has no items"),
            (dict(grader="g", items=("a", "a"), cardinal={"a": 1.0}), "grader 'g' lists duplicate items"),
            (dict(grader="g", items=("a",)), "grader 'g' has neither ordinal nor cardinal feedback"),
            (
                dict(grader="g", items=("a", "b"), ordinal=WeakRanking([("a",)])),
                "ordinal feedback of grader 'g' does not cover its items",
            ),
            (
                dict(grader="g", items=("a", "b"), cardinal={"a": 1.0, "c": 2.0}),
                "cardinal feedback of grader 'g' does not cover its items",
            ),
            (dict(grader="g", items=("a",), cardinal={"a": math.nan}), "grade of grader 'g' for item 'a' is not finite: nan"),
        ],
    )
    def test_each_check_keeps_its_message(self, kwargs, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            GraderFeedback(**kwargs)


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

    def test_feedback_from_an_unknown_grader(self):
        fb = (GraderFeedback.from_ordinal("ghost", WeakRanking([("a",)])),)
        with pytest.raises(ValidationError, match="^feedback from unknown grader 'ghost'$"):
            Dataset(items=("a",), graders=("g",), feedback=fb)

    def test_two_records_of_one_grader_on_the_roster(self):
        fb = tuple(GraderFeedback.from_ordinal("g", WeakRanking([(d,)])) for d in ("a", "b"))
        with pytest.raises(ValidationError, match="^grader 'g' has more than one feedback record$"):
            Dataset(items=("a", "b"), graders=("g",), feedback=fb)

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


def count_derivations(monkeypatch, name: str) -> list:
    """Counts derivations of the cached ``FeedbackArrays`` attribute ``name``, by the arrays they were derived from."""
    calls = []
    original = getattr(FeedbackArrays, name).func

    def counting(arrays):
        calls.append(arrays)
        return original(arrays)

    counted = functools.cached_property(counting)
    counted.__set_name__(FeedbackArrays, name)
    monkeypatch.setattr(FeedbackArrays, name, counted)
    return calls


@pytest.fixture
def derivations(monkeypatch):
    """Counts derivations of ``FeedbackArrays.ends``, by the arrays they were derived from."""
    return count_derivations(monkeypatch, "ends")


@pytest.fixture
def block_derivations(monkeypatch):
    """Counts derivations of ``FeedbackArrays.blocks``, by the arrays they were derived from."""
    return count_derivations(monkeypatch, "blocks")


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
        # A_i = (tie groups of size >= i) - 1 for i <= 3 items.
        assert arrays.coeff.tolist() == [[1.0, 0.0, -1.0], [2.0, -1.0, -1.0]]
        assert arrays.grader_coeff.tolist() == [0, 1]
        # The strict pairs (winner, loser, grader), in pair order, are (2, 0, 0), (2, 3, 0), (1, 0, 1),
        # (1, 2, 1) and (0, 2, 1); each item lists its own in that order, keyed 2 * grader + (1 if it loses).
        assert arrays.ends.offsets.tolist() == [0, 3, 5, 9, 10, 10]
        assert arrays.ends.other.tolist() == [2, 1, 2, 0, 2, 0, 3, 1, 0, 2]
        assert arrays.ends.key.tolist() == [1, 3, 2, 2, 2, 0, 0, 3, 3, 1]
        with pytest.raises(ValueError):
            arrays.item[0] = 1

    @given(st.lists(weak_rankings(), min_size=1, max_size=5))
    def test_pairs_are_each_graders_strict_preferences(self, rankings):
        data = Dataset.from_feedback(GraderFeedback.from_ordinal(f"g{i}", r) for i, r in enumerate(rankings))
        arrays = data.feedback_arrays
        ends = arrays.ends
        item = np.repeat(np.arange(arrays.n_items), np.diff(ends.offsets))
        for g, fb in enumerate(data.feedback):
            for loses in (0, 1):
                mine = ends.key == 2 * g + loses
                pairs = [
                    PreferencePair(*(data.items[d] for d in ((o, i) if loses else (i, o))))
                    for i, o in zip(item[mine].tolist(), ends.other[mine].tolist())
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

    def test_score_fits_do_not_derive_pairs(self, derivations):
        data = make_ordinal_dataset(
            {"g1": [["a"], ["b"], ["c"]], "g2": [["b"], ["a", "c"]], "g3": [["c"], ["a"]], "g4": [["a", "b"], ["c"]]}
        )
        for model in ("bt", "thur", "pl", "mals"):
            fit_model(model, data)
            fit_model(model + "+g", data)
        bootstrap_ek(data, "bt", [WeakRanking.from_order(data.items)], reps=4, seed=0)
        assert "feedback_arrays" in vars(data)
        assert derivations == []

    def test_mallows_fits_derive_pairs_once(self, derivations):
        data = make_ordinal_dataset({"g1": [["a"], ["b"], ["c"]], "g2": [["b"], ["a", "c"]]})
        fit_model("mal", data)
        fit_model("mal+g", data)
        fit_model("mal+kg", data)
        assert derivations == [data.feedback_arrays]

    def test_small_classes_never_derive_the_end_table(self, derivations):
        # 40 x 150 x 7 has more strict pairs than 40^2, so its centers read the dense weight table.
        data = simulate(SynthConfig(40, 150, 7, seed=0))[0]
        for model in ("mal", "mal+g", "mal+kg", "malbc+g"):
            fit_model(model, data)
        bootstrap_ek(data, "mal+g", [WeakRanking.from_order(data.items)], reps=3, seed=0)
        assert derivations == []

    def test_every_ordinal_model_reads_one_block_table(self, block_derivations):
        data = simulate(SynthConfig(12, 20, 4, seed=3))[0]
        for model in ("mal", "mal+g", "malbc+g", "mal+kg", "bt", "thur", "pl", "mals"):
            fit_model(model, data)
        assert block_derivations == [data.feedback_arrays]

    def test_x_g_counts_leave_the_end_table_underived(self, derivations, block_derivations):
        data = simulate(SynthConfig(40, 150, 7, seed=0))[0]
        fit_model("malbc+g", data)
        fit_reliabilities(data, WeakRanking.from_order(data.items))
        fresh = simulate(SynthConfig(40, 150, 7, seed=0))[0]
        fit_reliabilities(fresh, WeakRanking.from_order(fresh.items))
        assert block_derivations == [data.feedback_arrays, fresh.feedback_arrays]
        assert derivations == []

    def test_parsing_building_and_cardinal_fits_do_not_build(self, builds, tmp_path):
        ordinal = make_ordinal_dataset({"g1": [["a"], ["b"]], "g2": [["b"], ["a"]]})
        cardinal = make_cardinal_dataset({"g1": {"a": 9.0, "b": 7.0}, "g2": {"a": 6.0, "b": 8.0}})
        write_ordinal_json(ordinal, str(tmp_path / "o.json"))
        write_cardinal_csv(cardinal, str(tmp_path / "c.csv"))
        from_json = parse_ordinal_json(str(tmp_path / "o.json"))
        parsed = [parse_cardinal_csv(str(tmp_path / "c.csv")), Dataset.from_feedback(cardinal.feedback)]
        for model in ("scavg", "ncs", "ncs+g"):
            fit_model(model, parsed[-1])
        assert builds == []
        assert "feedback_arrays" in vars(from_json) and "feedback" not in vars(from_json)
        assert all("feedback_arrays" not in vars(d) for d in parsed)

    def test_replace_builds_its_own(self, builds):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]], "g2": [["b"], ["a"]]})
        arrays = data.feedback_arrays
        copy = dataclasses.replace(data)
        assert copy == data
        assert "feedback_arrays" not in vars(copy)
        assert copy.feedback_arrays is not arrays
        assert len(builds) == 2
        assert_same_ends(copy.feedback_arrays.ends, data.feedback_arrays.ends)

    def test_mallows_fit_on_cardinal_only_grades_still_fails(self):
        fb = (GraderFeedback(grader="g1", items=("a", "b"), cardinal={"a": 1.0, "b": 2.0}),)
        data = Dataset.from_feedback(fb)
        with pytest.raises(ValidationError, match="model 'mal' needs ordinal feedback from every grader"):
            fit_model("mal", data)
        with pytest.raises(ValidationError, match="grader 'g1' has no ordinal feedback"):
            fit_mallows(data, with_reliability=True)
        assert "feedback_arrays" not in vars(data)


def assert_same_arrays(got: FeedbackArrays, want: FeedbackArrays) -> None:
    """Equal field for field, and in their block and end tables; arrays also in dtype, shape and read-only flag."""
    for f in dataclasses.fields(FeedbackArrays):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, False), f.name
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name
    assert len(got.blocks) == len(want.blocks)
    for k, (mine, theirs) in enumerate(zip(got.blocks, want.blocks)):
        assert_all_same((f"blocks[{k}]", a, b) for a, b in zip(mine, theirs, strict=True))
    assert_same_ends(got.ends, want.ends)


def assert_same_ends(got: EndTable, want: EndTable) -> None:
    """Equal array for array, in dtype, shape and values, and all read-only."""
    assert_all_same(zip(EndTable._fields, got, want, strict=True))


def assert_all_same(named) -> None:
    """Each (name, got, want) equal in dtype, shape and values, and both read-only."""
    for name, a, b in named:
        assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, False), name
        assert np.array_equal(a, b), name


def flat_ends(arrays: FeedbackArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(offsets, other, key) of the end table, rearranged from ``flat_strict_pairs``'s pairs and incident
    lists, where end 2p is pair p's winner and end 2p + 1 its loser."""
    winner, loser, grader, incident_offsets, incident = flat_strict_pairs(arrays)
    other = np.stack((loser, winner), axis=1).ravel()[incident]
    key = np.stack((2 * grader, 2 * grader + 1), axis=1).ravel()[incident]
    return incident_offsets, other, key


def assert_ends_are_the_flat_pairs(arrays: FeedbackArrays) -> None:
    """The end table holds the flat enumeration's pairs, item by item in pair order, and each block's
    position pairs i < j in row-major order with the mask of those its graders rank strictly."""
    assert_all_same(zip(EndTable._fields, arrays.ends, flat_ends(arrays), strict=True))
    lengths = np.diff(arrays.offsets)
    assert [len(entries) for _, entries, *_ in arrays.blocks] == sorted(set(lengths.tolist()))
    for graders, entries, first, second, strict in arrays.blocks:
        assert graders.tolist() == np.flatnonzero(lengths == len(entries)).tolist()
        assert entries.T.tolist() == [list(range(arrays.offsets[g], arrays.offsets[g + 1])) for g in graders]
        pairs = list(itertools.combinations(range(len(entries)), 2))
        assert list(zip(first.tolist(), second.tolist())) == pairs
        ranks = arrays.rank[entries]
        assert strict.tolist() == [[ranks[i, g] < ranks[j, g] for g in range(ranks.shape[1])] for i, j in pairs]
        assert not any(a.flags.writeable for a in (graders, entries, first, second, strict))


class TestBuildEqualsTheOracle:
    """``build`` gives the compilers it replaced, array for array, coeff rows in the same signed order."""

    def test_tied_mixed_length_strict_induced_and_empty(self, tmp_path):
        tied = make_tied_csv_dataset(tmp_path, np.random.default_rng(2))
        mixed = make_ordinal_dataset(
            {"g1": [["c"]], "g2": [["b"], ["a", "d"], ["c"]], "g3": [["a", "b"]], "g4": [["d"], ["c"]], "g5": [["b"]]},
            items=("a", "b", "c", "d", "e"),
        )
        strict = simulate(SynthConfig(30, 60, 5, seed=1))[0]
        induced = simulate(SynthConfig(30, 60, 5, CardinalNormalGraders(1.0, 0.5), seed=1))[0]
        empty = Dataset.from_feedback([], items=("a",))
        for data in (tied, mixed, strict, induced, empty):
            assert_same_arrays(FeedbackArrays.build(data), build_feedback_arrays(data))
            assert_same_arrays(FeedbackArrays.build(data), groups_feedback_arrays(data))
        # Rows with -1 entries, which an unsigned order would put last, and rows shared by several graders.
        coeff = FeedbackArrays.build(tied).coeff
        assert (coeff < 0).any() and len(coeff) < len(tied.feedback)

    @given(st.lists(weak_rankings(max_items=7), min_size=1, max_size=12))
    def test_any_weak_rankings(self, rankings):
        data = Dataset.from_feedback(GraderFeedback.from_ordinal(f"g{i}", r) for i, r in enumerate(rankings))
        assert_same_arrays(FeedbackArrays.build(data), build_feedback_arrays(data))
        assert_same_arrays(FeedbackArrays.build(data), groups_feedback_arrays(data))


class TestStrictPairs:
    """The end table listed from the blocks holds the pairs of the flat enumeration it replaced."""

    @given(
        st.lists(weak_rankings(max_items=6), min_size=1, max_size=8),
        st.integers(0, 3),
    )
    def test_equal_the_flat_enumeration(self, rankings, extra_items):
        feedback = [GraderFeedback.from_ordinal(f"g{i}", r) for i, r in enumerate(rankings)]
        roster = {d for r in rankings for d in r.items} | {f"z{i}" for i in range(extra_items)}
        arrays = Dataset.from_feedback(feedback, items=roster).feedback_arrays
        assert_ends_are_the_flat_pairs(arrays)
        assert arrays.ends is arrays.ends

    def test_mixed_lengths_ties_and_single_items(self):
        data = make_ordinal_dataset(
            {"g1": [["c"]], "g2": [["b"], ["a", "d"], ["c"]], "g3": [["a", "b"]], "g4": [["d"], ["c"]], "g5": [["b"]]},
            items=("a", "b", "c", "d", "e"),
        )
        arrays = data.feedback_arrays
        assert_ends_are_the_flat_pairs(arrays)
        # Each of the six pairs, five of g2 and one of g4, under both its items.
        assert sorted((arrays.ends.key // 2).tolist()) == [1] * 10 + [3] * 2

    def test_graders_of_one_item_give_no_pairs(self):
        data = make_ordinal_dataset({"g1": [["a"]], "g2": [["b"]], "g3": [["a"]]}, items=("a", "b", "c"))
        ends = data.feedback_arrays.ends
        assert_ends_are_the_flat_pairs(data.feedback_arrays)
        assert len(ends.other) == len(ends.key) == 0
        assert ends.offsets.tolist() == [0, 0, 0, 0]

    def test_holds_16_bytes_a_pair_and_the_block_tables(self):
        """Of a 600 x 1800 x 7 class, the block table keeps each block's graders, entries, position pairs
        and masks, and the end table, derived after it, its two int32 arrays of ends and its item offsets;
        neither keeps other memory."""
        arrays = simulate(SynthConfig(600, 1800, 7, seed=1))[0].feedback_arrays
        n_pairs = len(flat_strict_pairs(arrays)[0])
        tracemalloc.start()
        try:
            blocks = arrays.blocks
            held_blocks = tracemalloc.get_traced_memory()[0]
            ends = arrays.ends
            held_ends = tracemalloc.get_traced_memory()[0] - held_blocks
        finally:
            tracemalloc.stop()
        # Per block of G graders of m items and m(m - 1) / 2 position pairs: 8 bytes a grader and an
        # entry, 16 a position pair, and 1 a pair of a grader's mask.
        tables = sum(a.nbytes for block in blocks for a in block)
        assert tables == sum(8 * g.size + 8 * e.size + 16 * len(f) + f.size * g.size for g, e, f, *_ in blocks)
        assert ends.other.nbytes + ends.key.nbytes == 16 * n_pairs
        assert ends.offsets.nbytes == 8 * (arrays.n_items + 1)
        # 4 KB each for the Python objects: the tables, their tuples and the cached attributes' slots.
        assert held_blocks <= tables + 4096
        assert held_ends <= 16 * n_pairs + ends.offsets.nbytes + 4096


@pytest.fixture
def protocol_subsets(tmp_path, monkeypatch):
    """The tied dataset and the grader subsets that a bootstrap, a consistency run and
    a reviewer-downsampling curve draw from it; a cardinal model touches no ordinal arrays."""
    data = make_tied_csv_dataset(tmp_path, np.random.default_rng(2))
    subsets = []
    select = experiments._select_graders

    def recording(*args):
        subsets.append(select(*args))
        return subsets[-1]

    monkeypatch.setattr(experiments, "_select_graders", recording)
    targets = [WeakRanking.from_order(data.items)]
    with pytest.warns(UserWarning, match="never graded"):
        bootstrap_ek(data, "scavg", targets, reps=12, seed=0)
        self_consistency(data, "scavg", partitions=6, seed=0)
        downsample_curve(data, "scavg", "reviewers", (1, 5, 11, 16), targets, reps=3, seed=0)
    assert len(subsets) == 12 + 12 + 12
    assert all("feedback_arrays" not in vars(d) for d in [data, *subsets])
    return data, subsets


class TestGatheredSubsets:
    def test_take_equals_build(self, protocol_subsets):
        data, subsets = protocol_subsets
        parent = data.feedback_arrays
        for sub in subsets:
            assert_same_arrays(sub.feedback_arrays, FeedbackArrays.build(sub))
            assert sub.has_full_ordinal() and sub.has_full_cardinal()
        # Duplicate draws, subsets narrower than the widest grader and with fewer coeff rows all occur.
        assert any(any("#" in g for g in sub.graders) for sub in subsets)
        assert any(sub.feedback_arrays.coeff.shape[1] < parent.coeff.shape[1] for sub in subsets)
        assert any(len(sub.feedback_arrays.coeff) < len(parent.coeff) for sub in subsets)
        assert any(sub.lazy_graders for sub in subsets)

    def test_cardinal_observations_equal_the_dict_walk(self, protocol_subsets):
        data, subsets = protocol_subsets
        for d in [data, *subsets]:
            got, want = _cardinal_observations(d), dict_cardinal_observations(d)
            assert got[:2] == want[:2]
            for a, b in zip(got[2:], want[2:]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert all(not a.flags.writeable for a in d.cardinal_arrays)

    def test_a_subset_of_a_mixed_dataset_compiles_its_own(self):
        ordinal = make_ordinal_dataset({"g1": [["a"], ["b", "c"]], "g2": [["c"], ["a"]]}).feedback
        grades_only = GraderFeedback(grader="g3", items=("a", "b"), cardinal={"a": 1.0, "b": 2.0})
        data = Dataset.from_feedback([*ordinal, grades_only])
        sub = experiments._select_graders(data, [1, 0])
        assert not data.has_full_ordinal() and sub.has_full_ordinal() and not sub.has_full_cardinal()
        assert experiments._select_graders(data, [2]).has_full_cardinal()
        assert_same_arrays(sub.feedback_arrays, FeedbackArrays.build(dataclasses.replace(sub)))
        assert "feedback_arrays" not in vars(data)
        with pytest.raises(ValidationError, match="grader 'g2' has no cardinal feedback"):
            _cardinal_observations(sub)
        assert _cardinal_observations(experiments._select_graders(data, [2]))[2].tolist() == [0, 1]

    def test_bootstrap_on_built_arrays_builds_none(self, builds, tmp_path):
        data = make_tied_csv_dataset(tmp_path, np.random.default_rng(3))
        data.feedback_arrays
        builds.clear()
        with pytest.warns(UserWarning, match="never graded"):
            bootstrap_ek(data, "malbc", [WeakRanking.from_order(data.items)], reps=5)
        assert builds == []
        assert "cardinal_arrays" not in vars(data)

    def test_cardinal_bootstrap_gathers_no_ordinal_arrays(self, builds, tmp_path, monkeypatch):
        data = make_tied_csv_dataset(tmp_path, np.random.default_rng(3))
        takes = []
        take = FeedbackArrays.take
        monkeypatch.setattr(FeedbackArrays, "take", lambda *args: takes.append(args) or take(*args))
        with pytest.warns(UserWarning, match="never graded"):
            bootstrap_ek(data, "scavg", [WeakRanking.from_order(data.items)], reps=5)
        assert builds == [] and takes == []
        assert "feedback_arrays" not in vars(data) and "cardinal_arrays" in vars(data)

    @pytest.mark.parametrize("nesting", ["half-of-resample", "resample-of-parsed-half"])
    def test_nested_subsets_equal_the_oracle_and_build_no_records(self, nesting, tmp_path, monkeypatch):
        data = make_tied_csv_dataset(tmp_path, np.random.default_rng(9))
        n = len(data.graders)
        half = np.sort(np.random.default_rng(0).permutation(n)[: n // 2])

        def records_half(d: Dataset) -> Dataset:
            picked = [d.feedback[r] for r in half.tolist()]
            return Dataset.from_feedback(picked, d.items, d.lazy_graders & {fb.grader for fb in picked})

        if nesting == "half-of-resample":
            outer = experiments._resample_graders(data, np.random.default_rng(1))
            inner = experiments._select_graders(outer, half)
            want_outer = resample_graders_oracle(data, np.random.default_rng(1))
            want_inner = records_half(want_outer)
        else:
            write_ordinal_json(data, str(tmp_path / "d.json"))
            outer = experiments._select_graders(parse_ordinal_json(str(tmp_path / "d.json")), half)
            inner = experiments._resample_graders(outer, np.random.default_rng(1))
            want_outer = records_half(data)
            want_inner = resample_graders_oracle(want_outer, np.random.default_rng(1))
        assert any("#" in g for g in outer.graders + inner.graders)
        renamed = []
        monkeypatch.setattr(GraderFeedback, "_renamed", lambda fb, name: renamed.append(name))
        with pytest.warns(UserWarning, match="never graded"):
            fits = [fit_model(m, d) for d in (outer, inner) for m in ("malbc", "scavg")]
        assert renamed == [] and "feedback" not in vars(outer) and "feedback" not in vars(inner)
        monkeypatch.undo()
        with pytest.warns(UserWarning, match="never graded"):
            wants = [fit_model(m, d) for d in (want_outer, want_inner) for m in ("malbc", "scavg")]
        assert [_json_text(estimate_to_dict(e)) for e in fits] == [_json_text(estimate_to_dict(e)) for e in wants]
        for got, want in ((outer, want_outer), (inner, want_inner)):
            assert_same_arrays(got.feedback_arrays, FeedbackArrays.build(want))
            assert got == want


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

    def test_reliabilities_by_grader_follow_the_roster(self):
        prior, etas = ReliabilityPrior(), np.array([0.5, 2.0])
        assert list(prior._by_grader(("a", "b"), ("a", "b"), etas).items()) == [("a", 0.5), ("b", 2.0)]
        by_grader = prior._by_grader(("a", "b", "c"), ("c", "a"), etas)
        assert list(by_grader.items()) == [("a", 2.0), ("b", prior.mode), ("c", 0.5)]
