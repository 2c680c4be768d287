"""The one-pass JSON writer against the two-pass oracle, and the readers' total-order path."""

import gc
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opg.cli import main
from opg.dataio import _json_text, dataset_from_dict, parse_ordinal_json, read_estimate, write_json
from opg.errors import DataFormatError
from opg.rankings import WeakRanking

from oracles import json_text

_special_floats = st.sampled_from(
    [0.0, -0.0, 1.0, 3.0, -7.0, 1e16, -1e16, 1e-5, 1e22, 0.1, 1 / 3, 2.5e-308, float("nan"), float("inf"), float("-inf")]
)
_strings = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(["", "é", "\x00\x1f\x7f", '"\\/', " 𝄞"])
_scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    _special_floats,
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    st.none(),
    _strings,
)
_keys = _strings | st.integers(-5, 5)
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_keys, inner, max_size=5),
        st.dictionaries(_strings, st.floats(allow_nan=True, allow_infinity=True) | _special_floats, max_size=6),
        st.lists(_strings, max_size=6),
        st.sets(_strings, max_size=4),
        st.frozensets(st.integers(-9, 9), max_size=4),
    ),
    max_leaves=25,
)


class TestWriterMatchesTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(_payloads)
    def test_any_nested_payload(self, payload):
        assert _json_text(payload) + "\n" == json_text(payload)

    @pytest.mark.parametrize(
        "payload",
        [{}, [], (), set(), frozenset(), {"a": {}}, [[], {}], {"e": [[]]}, "", 0, -0.0, None, True],
    )
    def test_empty_containers_and_bare_scalars(self, payload):
        assert _json_text(payload) + "\n" == json_text(payload)

    def test_integer_keys_are_written_as_strings_and_sorted_as_strings(self):
        payload = {10: 1.0, 9: 2.0, "1": 0.5}
        assert _json_text(payload) + "\n" == json_text(payload)
        assert list(json.loads(_json_text(payload))) == ["1", "10", "9"]

    @pytest.mark.parametrize("value", [np.bool_(True), object(), np.zeros(2)])
    def test_unserializable_values_raise_as_json_does(self, value):
        with pytest.raises(TypeError) as expected:
            json_text({"v": value})
        with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
            _json_text({"v": value})

    def test_write_json_writes_the_same_text(self, tmp_path):
        payload = {"b": [np.float64(0.1) * 3, ("x", "y")], "a": {2: np.int64(4)}}
        path = tmp_path / "p.json"
        write_json(payload, str(path))
        assert path.read_bytes() == json_text(payload).encode("ascii")


class _Str(str):
    pass


# Malformed rankings and the message the constructor path gives for each.
_BAD_RANKINGS = [
    pytest.param([[5], ["b"]], "item ids must be non-empty strings, got 5", id="non-str id"),
    pytest.param([[""], ["b"]], "item ids must be non-empty strings, got ''", id="empty id"),
    pytest.param([["a"], ["b"], ["a"]], "item 'a' appears in more than one tie group", id="item twice"),
    pytest.param([[["a"]], ["b"]], "item ids must be non-empty strings, got ['a']", id="list as item"),
    pytest.param([], "a ranking must contain at least one tie group", id="no groups"),
    pytest.param([["a"], []], "tie groups must be non-empty", id="empty group"),
]


def _dataset_payload(ranking):
    return {"items": ["a", "b"], "graders": [{"id": "g1", "ranking": ranking}]}


class TestSingletonRankingsKeepTheConstructorsErrors:
    @pytest.mark.parametrize("ranking, message", _BAD_RANKINGS)
    def test_parse_ordinal_json(self, tmp_path, ranking, message):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(_dataset_payload(ranking)), encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}: grader g1: {message}')}$"):
            parse_ordinal_json(str(path))

    @pytest.mark.parametrize("ranking, message", _BAD_RANKINGS)
    def test_read_estimate(self, tmp_path, ranking, message):
        path = tmp_path / "e.json"
        path.write_text(json.dumps({"ranking": ranking}), encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_estimate(str(path))

    def test_a_non_list_group(self, tmp_path):
        data_path, est_path = tmp_path / "d.json", tmp_path / "e.json"
        data_path.write_text(json.dumps(_dataset_payload([["a"], 5])), encoding="utf-8")
        est_path.write_text(json.dumps({"ranking": [["a"], 5]}), encoding="utf-8")
        message = f"{data_path}: grader g1: 'ranking' must be a list of lists"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            parse_ordinal_json(str(data_path))
        message = f"{est_path}: 'ranking' must be a list of lists"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            read_estimate(str(est_path))

    @pytest.mark.parametrize("ranking", ["ab", [["c"], "ab"]], ids=["ranking", "group"])
    def test_strings_are_refused(self, tmp_path, ranking):
        """Both readers take a ranking only as a list of lists, never a string's characters."""
        data_path, est_path = tmp_path / "d.json", tmp_path / "e.json"
        data_path.write_text(json.dumps(_dataset_payload(ranking)), encoding="utf-8")
        est_path.write_text(json.dumps({"ranking": ranking}), encoding="utf-8")
        message = f"{data_path}: grader g1: 'ranking' must be a list of lists"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            parse_ordinal_json(str(data_path))
        message = f"{est_path}: 'ranking' must be a list of lists"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            read_estimate(str(est_path))

    def test_str_subclass_ids_are_kept_as_the_constructor_keeps_them(self):
        data = dataset_from_dict(_dataset_payload([[_Str("b")], ["a"]]))
        ranking = data.feedback[0].ordinal
        assert ranking == WeakRanking([(_Str("b"),), ("a",)])
        assert type(ranking.groups[0][0]) is _Str

    def test_singleton_rankings_equal_the_constructors(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(_dataset_payload([["b"], ["a"]])), encoding="utf-8")
        fb = parse_ordinal_json(str(path)).feedback[0]
        assert fb.ordinal == WeakRanking([("b",), ("a",)])
        assert fb.ordinal.ranks() == {"b": 1, "a": 2}
        assert fb.items == ("a", "b")


class TestEstimateFields:
    @pytest.mark.parametrize("key, value", [("scores", [1, 2]), ("reliabilities", "xy"), ("scores", 3.0)])
    def test_scores_and_reliabilities_must_be_objects(self, tmp_path, key, value):
        path = tmp_path / "e.json"
        path.write_text(json.dumps({"ranking": [["a"], ["b"]], key: value}), encoding="utf-8")
        message = f"{path}: {key!r} must be an object"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            read_estimate(str(path))

    @pytest.mark.parametrize("value", [[["model", "bt"]], "bt", 3, None])
    def test_metadata_must_be_an_object(self, tmp_path, value):
        path = tmp_path / "e.json"
        path.write_text(json.dumps({"ranking": [["a"], ["b"]], "metadata": value}), encoding="utf-8")
        message = f"{path}: 'metadata' must be an object"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            read_estimate(str(path))

    def test_evaluate_exits_one_on_them(self, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"ranking": [["a"], ["b"]]}), encoding="utf-8")
        bad.write_text(json.dumps({"ranking": [["a"], ["b"]], "scores": [1, 2]}), encoding="utf-8")
        assert main(["evaluate", "--input", str(bad), "--target", str(good)]) == 1
        assert main(["evaluate", "--input", str(good), "--target", str(bad)]) == 1
        assert "internal error" not in capsys.readouterr().err


class TestParseLeavesTheCollectorAsItFoundIt:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_after_a_parse_and_after_a_failed_one(self, tmp_path, enabled):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(_dataset_payload([["b"], ["a"]])), encoding="utf-8")
        bad.write_text(json.dumps(_dataset_payload([["a"], ["a"]])), encoding="utf-8")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            parse_ordinal_json(str(good))
            assert gc.isenabled() is enabled
            with pytest.raises(DataFormatError):
                parse_ordinal_json(str(bad))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
