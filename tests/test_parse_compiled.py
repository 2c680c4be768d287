"""The JSON parse that compiles rankings in bulk against the record-by-record oracle: the same datasets,
the same refusals, arrays equal to ``FeedbackArrays.build``'s, and records built only when read."""

import copy
import dataclasses
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opg.data import Dataset, FeedbackArrays, GraderFeedback
from opg.dataio import (
    _json_text,
    dataset_from_dict,
    dataset_to_dict,
    estimate_to_dict,
    parse_ordinal_json,
    write_estimate,
    write_ordinal_json,
)
from opg.errors import ValidationError
from opg.estimators import MODEL_NAMES, fit_model
from opg.experiments import _resample_graders, _select_graders
from opg.synth import CardinalNormalGraders, SynthConfig, simulate

from conftest import make_tied_csv_dataset
from oracles import records_dataset_from_dict, resample_graders_oracle
from test_data import assert_same_arrays, builds  # noqa: F401 (a fixture)

_IDS = st.text(alphabet="abcxyzé", min_size=1, max_size=3)  # never "q", the unknown id of the faults


@st.composite
def _rankings(draw, roster: list[str], tied: bool) -> list[list[str]]:
    """A weak ranking of a random non-empty subset, as JSON lists, each group in a random order."""
    order = draw(st.permutations(draw(st.lists(st.sampled_from(roster), min_size=1, unique=True))))
    groups: list[list[str]] = [[order[0]]]
    for d in order[1:]:
        if tied and draw(st.booleans()):
            groups[-1].append(d)
        else:
            groups.append([d])
    return groups


@st.composite
def payloads(draw) -> dict:
    """Strict or tied rankings, some with grades, over a roster with ungraded items, from graders in
    no particular id order, some of them labelled lazy."""
    roster = draw(st.lists(_IDS, min_size=1, max_size=8, unique=True))
    gids = draw(st.lists(_IDS.map("g".__add__), min_size=1, max_size=6, unique=True))
    tied, graded = draw(st.booleans()), draw(st.sampled_from(["none", "some", "all"]))
    grade = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-3, 3) | st.sampled_from([0.5, 2.0])
    graders = []
    for gid in gids:
        entry = {"id": gid, "ranking": draw(_rankings(roster, tied))}
        if graded == "all" or (graded == "some" and draw(st.booleans())):
            keys = draw(st.permutations([d for group in entry["ranking"] for d in group]))
            entry["grades"] = {d: draw(grade) for d in keys}
        graders.append(entry)
    payload = {"items": draw(st.permutations(roster)), "graders": graders}
    if draw(st.booleans()):
        payload["lazy_graders"] = draw(st.lists(st.sampled_from(gids), unique=True))
    return payload


def _entry(payload: dict, k: int) -> dict:
    return payload["graders"][k % len(payload["graders"])]


def _group(payload: dict, k: int) -> list:
    ranking = _entry(payload, k)["ranking"]
    return ranking[k % len(ranking)]


# Each fault edits a well-formed payload at a drawn position k.
_FAULTS = {
    "unknown item": lambda p, k: _group(p, k).append("q"),
    "empty item": lambda p, k: _group(p, k).__setitem__(0, ""),
    "empty item on the roster": lambda p, k: (p["items"].append(""), _group(p, k).__setitem__(0, "")),
    "number item": lambda p, k: _group(p, k).insert(0, 5),
    "item twice": lambda p, k: _entry(p, k)["ranking"].append([_group(p, k)[0]]),
    "item twice in a group": lambda p, k: _group(p, k).append(_group(p, k)[0]),
    "empty group": lambda p, k: _entry(p, k)["ranking"].insert(k % 2, []),
    "no groups": lambda p, k: _entry(p, k).__setitem__("ranking", []),
    "ranking a string": lambda p, k: _entry(p, k).__setitem__("ranking", "ab"),
    "group a string": lambda p, k: _entry(p, k)["ranking"].append("a"),
    "no ranking": lambda p, k: _entry(p, k).pop("ranking"),
    "empty id": lambda p, k: _entry(p, k).__setitem__("id", ""),
    "number id": lambda p, k: _entry(p, k).__setitem__("id", 7),
    "entry a string": lambda p, k: p["graders"].insert(k % 3, "g"),
    "grader twice": lambda p, k: p["graders"].append(copy.deepcopy(_entry(p, k))),
    "grades a list": lambda p, k: _entry(p, k).__setitem__("grades", [1.0]),
    "grade a word": lambda p, k: _entry(p, k).__setitem__("grades", dict.fromkeys(_group(p, k), "x")),
    "grade NaN": lambda p, k: _entry(p, k).setdefault("grades", {}).__setitem__(_group(p, k)[0], float("nan")),
    "grades miss an item": lambda p, k: _entry(p, k).__setitem__("grades", {}),
    "lazy unknown": lambda p, k: p.setdefault("lazy_graders", []).append("q"),
    "lazy a number": lambda p, k: p.setdefault("lazy_graders", []).append(1),
    "lazy a string": lambda p, k: p.__setitem__("lazy_graders", "g"),
    "roster item twice": lambda p, k: p["items"].append(p["items"][k % len(p["items"])]),
    "roster number": lambda p, k: p["items"].append(3),
    "no graders": lambda p, k: p.pop("graders"),
}


@st.composite
def malformed_payloads(draw) -> dict:
    """A well-formed payload with one to three faults, so that their precedence shows."""
    payload = draw(payloads())
    for name in draw(st.lists(st.sampled_from(sorted(_FAULTS)), min_size=1, max_size=3)):
        try:
            _FAULTS[name](payload, draw(st.integers(0, 20)))
        except (AttributeError, IndexError, KeyError, TypeError, ZeroDivisionError):
            pass  # an earlier fault took away what this one edits
    return payload


def assert_parsed_as_the_oracle(payload) -> None:
    """The parse raises the oracle's exception, or returns its dataset: compiled, with no records until
    read, arrays equal to ``build``'s on the oracle's records, and then records equal to the oracle's."""
    try:
        want = records_dataset_from_dict(payload)
    except Exception as exc:  # the parse must raise exactly this
        with pytest.raises(type(exc)) as got:
            dataset_from_dict(payload)
        assert str(got.value) == str(exc)
        return
    data = dataset_from_dict(payload)
    assert "feedback" not in vars(data) and "feedback_arrays" in vars(data)
    assert (data.has_full_ordinal(), data.has_full_cardinal()) == (want.has_full_ordinal(), want.has_full_cardinal())
    assert_same_arrays(data.feedback_arrays, FeedbackArrays.build(want))
    assert data == want and repr(data) == repr(want)
    for got, expected in zip(data.feedback, want.feedback, strict=True):
        assert list(got.ordinal.ranks().items()) == list(expected.ordinal.ranks().items())
        assert list((got.cardinal or {}).items()) == list((expected.cardinal or {}).items())
    assert_same_arrays(data.feedback_arrays, FeedbackArrays.build(data))


class TestParseEqualsTheRecordOracle:
    @settings(max_examples=300, deadline=None)
    @given(payloads())
    def test_well_formed(self, payload):
        assert_parsed_as_the_oracle(payload)

    @settings(max_examples=500, deadline=None)
    @given(malformed_payloads())
    def test_malformed(self, payload):
        assert_parsed_as_the_oracle(payload)

    def test_a_file(self, tmp_path):
        data = simulate(SynthConfig(12, 20, 4, grader_model=CardinalNormalGraders(), n_lazy=2, seed=1))[0]
        write_ordinal_json(data, str(tmp_path / "d.json"))
        parsed = parse_ordinal_json(str(tmp_path / "d.json"))
        assert "feedback" not in vars(parsed)
        assert_same_arrays(parsed.feedback_arrays, FeedbackArrays.build(data))
        assert parsed == records_dataset_from_dict(json.loads((tmp_path / "d.json").read_text(encoding="utf-8")))


def _graded_tied(seed: int) -> Dataset:
    """A 40 x 150 x 7 class of whole-number grades, so with ties, and an item nobody graded."""
    data = simulate(SynthConfig(40, 150, 7, grader_model=CardinalNormalGraders(bias_std=0.5), n_lazy=3, seed=seed))[0]
    feedback = [GraderFeedback.from_cardinal(fb.grader, {d: float(round(v)) for d, v in fb.cardinal.items()})
                for fb in data.feedback]
    return Dataset(data.items + ("zz",), data.graders, feedback, data.lazy_graders)


def _shuffled_payload(data: Dataset, seed: int) -> dict:
    payload = dataset_to_dict(data)
    order = np.random.default_rng(seed).permutation(len(payload["graders"]))
    payload["graders"] = [payload["graders"][k] for k in order]
    return payload


@pytest.fixture(scope="module")
def classes() -> dict[str, dict]:
    return {"mallows": _shuffled_payload(simulate(SynthConfig(40, 150, 7, seed=2))[0], 0),
            "graded-tied": _shuffled_payload(_graded_tied(3), 1)}


class TestSameAnswers:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    @pytest.mark.parametrize("kind", ["mallows", "graded-tied"])
    def test_every_estimate_is_byte_identical(self, classes, kind, model):
        want_data, got_data = records_dataset_from_dict(classes[kind]), dataset_from_dict(classes[kind])
        try:
            want = fit_model(model, want_data)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
                fit_model(model, got_data)
            return
        assert _json_text(estimate_to_dict(fit_model(model, got_data))) == _json_text(estimate_to_dict(want))


class TestRecordsOnlyWhenAsked:
    def test_parse_fit_write_builds_neither_records_nor_arrays(self, builds, tmp_path):
        write_ordinal_json(simulate(SynthConfig(40, 150, 7, seed=4))[0], str(tmp_path / "d.json"))
        data = parse_ordinal_json(str(tmp_path / "d.json"))
        for model in ("mal", "mal+g", "malbc", "mal+k", "bt"):
            write_estimate(fit_model(model, data), str(tmp_path / f"{model}.json"))
        assert "feedback" not in vars(data)
        assert builds == []

    @pytest.mark.parametrize(
        "act",
        [lambda d: d, dataclasses.replace, copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))],
        ids=["itself", "replace", "copy", "deepcopy", "pickle"],
    )
    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_acts_as_an_eagerly_built_dataset(self, classes, act, read_first):
        eager = records_dataset_from_dict(classes["graded-tied"])
        data = dataset_from_dict(classes["graded-tied"])
        if read_first:
            assert data.feedback == eager.feedback
        got = act(data)
        # A frozenset rebuilt by pickle or deepcopy may list its members in another order, so the
        # reprs are compared after the same act on both.
        assert got == eager and eager == got and repr(got) == repr(act(eager))
        assert (got.has_full_ordinal(), got.has_full_cardinal()) == (True, True)
        assert dataset_to_dict(got) == dataset_to_dict(eager)
        assert all(np.array_equal(a, b) for a, b in zip(got.cardinal_arrays, eager.cardinal_arrays, strict=True))
        # Values only: numpy unpickles and deep-copies an array writable, an eagerly built dataset's too.
        for f in dataclasses.fields(FeedbackArrays):
            assert np.array_equal(getattr(got.feedback_arrays, f.name), getattr(eager.feedback_arrays, f.name))

    @pytest.mark.parametrize("subset", [False, True], ids=["parsed", "grader-subset"])
    def test_an_absent_attribute_is_still_absent(self, subset):
        data = dataset_from_dict({"items": ["a"], "graders": [{"id": "g", "ranking": [["a"]]}]})
        data = _select_graders(data, [0]) if subset else data
        with pytest.raises(AttributeError, match="'Dataset' object has no attribute 'records'"):
            data.records  # noqa: B018
        assert not hasattr(data, "__setstate__") and "feedback" not in vars(data)


def _every_array(data: Dataset) -> list[np.ndarray]:
    """The dataset's cached arrays: its compiled feedback, their block and end tables, and its grades."""
    fa = data.feedback_arrays
    arrays = [getattr(fa, f.name) for f in dataclasses.fields(FeedbackArrays)]
    return [a for a in arrays if isinstance(a, np.ndarray)] + [a for b in fa.blocks for a in b] + [
        *fa.ends, *data.cardinal_arrays]


class TestCopiesAreCheckedDatasets:
    """A derived dataset pickles and copies to a dataset rebuilt from its fields, whose arrays are derived
    again and read-only, also when the original still holds its records callable."""

    @pytest.fixture(params=["parsed", "resample"])
    def derived(self, request, classes, tmp_path) -> tuple[Dataset, Dataset]:
        """A derived dataset and the same dataset built record by record."""
        if request.param == "parsed":
            return dataset_from_dict(classes["graded-tied"]), records_dataset_from_dict(classes["graded-tied"])
        data = make_tied_csv_dataset(tmp_path, np.random.default_rng(8))
        got = _resample_graders(data, np.random.default_rng(1))
        assert any("#" in g for g in got.graders)
        return got, resample_graders_oracle(data, np.random.default_rng(1))

    @pytest.mark.parametrize(
        "act", [copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))], ids=["copy", "deepcopy", "pickle"]
    )
    @pytest.mark.parametrize("cached", [False, True], ids=["unread", "arrays-cached"])
    def test_equal_with_read_only_arrays(self, derived, act, cached):
        data, eager = derived
        if cached:
            assert all(not a.flags.writeable for a in _every_array(data))
        else:
            assert "feedback" not in vars(data)
        got = act(data)
        assert type(got) is Dataset and got == data and got == eager
        assert (got.has_full_ordinal(), got.has_full_cardinal()) == (True, True)
        assert all(not a.flags.writeable for a in _every_array(got))
        assert_same_arrays(got.feedback_arrays, FeedbackArrays.build(eager))
        for a, b in zip(got.cardinal_arrays, eager.cardinal_arrays, strict=True):
            assert np.array_equal(a, b)
