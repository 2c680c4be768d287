"""Every refusal of ``dataset_from_dict`` with its exact message, and which of two faults it reports."""

import json
import re

import pytest

from opg.dataio import dataset_from_dict, parse_ordinal_json, read_estimate
from opg.errors import DataFormatError


def _grader(gid="g", ranking=None, **extra):
    return {"id": gid, "ranking": [["a"], ["b"]] if ranking is None else ranking, **extra}


def _payload(*graders, items=None, **extra):
    return {"items": ["a", "b"] if items is None else items, "graders": list(graders) or [_grader()], **extra}


def _refused(payload, message):
    with pytest.raises(DataFormatError, match=f"^{re.escape('<json>: ' + message)}$"):
        dataset_from_dict(payload)


_NOT_A_LIST_OF_LISTS = "grader g: 'ranking' must be a list of lists"
_NOT_STRINGS = "grader g: item ids must be non-empty strings, got {}"
_NON_FINITE = "grader g: grade of grader 'g' for item 'a' is not finite: {}"

_REFUSALS = [
    pytest.param([], "expected a JSON object at top level", id="top-level list"),
    pytest.param("x", "expected a JSON object at top level", id="top-level string"),
    pytest.param({"graders": [_grader()]}, "'items' must be a list of id strings", id="no items"),
    pytest.param(_payload(items="ab"), "'items' must be a list of id strings", id="items a string"),
    pytest.param(_payload(items=["a", 2]), "'items' must be a list of id strings", id="non-str item id"),
    pytest.param({"items": ["a", "b"]}, "'graders' must be a list", id="no graders"),
    pytest.param({"items": ["a", "b"], "graders": {"g": []}}, "'graders' must be a list", id="graders an object"),
    pytest.param(_payload("g"), "each grader needs 'id' and 'ranking'", id="entry a string"),
    pytest.param(_payload({"ranking": [["a"]]}), "each grader needs 'id' and 'ranking'", id="no id"),
    pytest.param(_payload({"id": "g"}), "each grader needs 'id' and 'ranking'", id="no ranking"),
    pytest.param(_payload(_grader(gid=3)), "grader id must be a non-empty string", id="id a number"),
    pytest.param(_payload(_grader(gid="")), "grader id must be a non-empty string", id="id empty"),
    pytest.param(_payload(_grader(ranking="ab")), _NOT_A_LIST_OF_LISTS, id="ranking a string"),
    pytest.param(_payload(_grader(ranking=None) | {"ranking": None}), _NOT_A_LIST_OF_LISTS, id="ranking null"),
    pytest.param(_payload(_grader(ranking=[["a"], "b"])), _NOT_A_LIST_OF_LISTS, id="group a string"),
    pytest.param(_payload(_grader(ranking=[])), "grader g: a ranking must contain at least one tie group", id="no groups"),
    pytest.param(_payload(_grader(ranking=[["a"], []])), "grader g: tie groups must be non-empty", id="empty group"),
    pytest.param(_payload(_grader(ranking=[["a"], [""]])), _NOT_STRINGS.format("''"), id="empty item, strict"),
    pytest.param(_payload(_grader(ranking=[["a", ""]])), _NOT_STRINGS.format("''"), id="empty item, tied"),
    pytest.param(
        _payload(_grader(ranking=[["a"], [""]]), items=["", "a", "b"]), _NOT_STRINGS.format("''"), id="empty item on the roster"
    ),
    pytest.param(_payload(_grader(ranking=[["a"], [7]])), _NOT_STRINGS.format("7"), id="number item, strict"),
    pytest.param(_payload(_grader(ranking=[[5, 3]])), _NOT_STRINGS.format("3"), id="number items, tied"),
    pytest.param(
        _payload(_grader(ranking=[["a"], ["b"], ["a"]])),
        "grader g: item 'a' appears in more than one tie group",
        id="item twice, strict",
    ),
    pytest.param(
        _payload(_grader(ranking=[["a", "b"], ["a"]])),
        "grader g: item 'a' appears in more than one tie group",
        id="item in two tie groups",
    ),
    pytest.param(
        _payload(_grader(ranking=[["b", "b"]])),
        "grader g: item 'b' appears in more than one tie group",
        id="item twice in one group",
    ),
    pytest.param(_payload(_grader(grades=[1, 2])), "grader g: 'grades' must be an object", id="grades a list"),
    pytest.param(_payload(_grader(grades=3.0)), "grader g: 'grades' must be an object", id="grades a number"),
    pytest.param(
        _payload(_grader(grades={"a": "x", "b": 1.0})),
        "grader g: could not convert string to float: 'x'",
        id="grade a word",
    ),
    pytest.param(
        _payload(_grader(grades={"a": [1.0], "b": 1.0})),
        "grader g: float() argument must be a string or a real number, not 'list'",
        id="grade a list",
    ),
    pytest.param(
        _payload(_grader(grades={"a": None, "b": 1.0})),
        "grader g: float() argument must be a string or a real number, not 'NoneType'",
        id="grade null",
    ),
    pytest.param(_payload(_grader(grades={"a": float("nan"), "b": 1.0})), _NON_FINITE.format("nan"), id="grade NaN"),
    pytest.param(_payload(_grader(grades={"a": float("-inf"), "b": 1.0})), _NON_FINITE.format("-inf"), id="grade -inf"),
    pytest.param(_payload(_grader(grades={"a": "inf", "b": 1.0})), _NON_FINITE.format("inf"), id="grade 'inf'"),
    pytest.param(
        _payload(_grader(grades={"a": 1.0})),
        "grader g: cardinal feedback of grader 'g' does not cover its items",
        id="grades miss an item",
    ),
    pytest.param(
        _payload(_grader(grades={"a": 1.0, "b": 2.0, "c": 3.0}), items=["a", "b", "c"]),
        "grader g: cardinal feedback of grader 'g' does not cover its items",
        id="grades name an unranked item",
    ),
    pytest.param(_payload(lazy_graders="g"), "'lazy_graders' must be a list of grader ids", id="lazy a string"),
    pytest.param(_payload(lazy_graders=["g", 1]), "'lazy_graders' must be a list of grader ids", id="lazy a number"),
    pytest.param(_payload(lazy_graders=None), "'lazy_graders' must be a list of grader ids", id="lazy null"),
    pytest.param(_payload(lazy_graders=["g", "x"]), "lazy labels for unknown graders: ['x']", id="lazy unknown"),
    pytest.param(_payload(items=["a", "b", "a"]), "item roster contains duplicates", id="roster item twice"),
    pytest.param(_payload(_grader(), _grader()), "grader roster contains duplicates", id="grader id twice"),
    pytest.param(
        _payload(_grader(ranking=[["y"], ["a"], ["z"]])),
        "grader 'g' graded unknown items: ['y', 'z']",
        id="unknown items",
    ),
]


class TestEveryRefusal:
    @pytest.mark.parametrize("payload, message", _REFUSALS)
    def test_exact_message(self, payload, message):
        _refused(payload, message)

    def test_a_file_is_named_by_its_path(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(_payload(_grader(ranking=[["a"], ["a"]]))), encoding="utf-8")
        message = f"{path}: grader g: item 'a' appears in more than one tie group"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            parse_ordinal_json(str(path))


class TestPrecedence:
    def test_items_before_graders(self):
        _refused({"items": "ab", "graders": "g"}, "'items' must be a list of id strings")

    def test_per_entry_faults_in_file_order(self):
        bad_ranking, bad_id = _grader(gid="z", ranking=[["a"], ["a"]]), _grader(gid="")
        _refused(_payload(bad_ranking, bad_id), "grader z: item 'a' appears in more than one tie group")
        _refused(_payload(bad_id, bad_ranking), "grader id must be a non-empty string")

    def test_within_an_entry_its_id_then_its_ranking_then_its_grades(self):
        _refused(_payload(_grader(gid="", ranking="ab")), "grader id must be a non-empty string")
        _refused(_payload(_grader(ranking="ab", grades=[1])), _NOT_A_LIST_OF_LISTS)

    def test_a_later_entrys_fault_before_roster_level_ones(self):
        late = _grader(gid="h", ranking=[["a", "b"], ["b"]])
        message = "grader h: item 'b' appears in more than one tie group"
        _refused(_payload(_grader(), _grader(), late, items=["a", "a", "b"]), message)
        _refused(_payload(_grader(ranking=[["y"]]), late, lazy_graders=["x"]), message)

    def test_lazy_labels_type_before_roster_level_faults(self):
        payload = _payload(_grader(), _grader(), items=["a", "a", "b"], lazy_graders=[1])
        _refused(payload, "'lazy_graders' must be a list of grader ids")

    def test_roster_items_before_grader_ids(self):
        _refused(_payload(_grader(), _grader(), items=["a", "b", "b"]), "item roster contains duplicates")

    def test_grader_ids_before_unknown_items(self):
        _refused(_payload(_grader(ranking=[["y"]]), _grader(ranking=[["y"]])), "grader roster contains duplicates")

    def test_unknown_items_before_unknown_lazy_labels(self):
        _refused(_payload(_grader(ranking=[["y"]]), lazy_graders=["x"]), "grader 'g' graded unknown items: ['y']")

    def test_unknown_items_of_the_first_grader_in_id_order(self):
        """Two graders name unknown items: the one first in sorted id order is reported, not the first in the file."""
        payload = _payload(_grader(gid="h", ranking=[["a"], ["z"]]), _grader(gid="g", ranking=[["y"], ["b"]]))
        _refused(payload, "grader 'g' graded unknown items: ['y']")


class TestATieGroupOfIdsThatDoNotCompare:
    """Sorting such a group raised a bare TypeError; it is refused as any other id that is not a string."""

    @pytest.mark.parametrize("group, shown", [(["a", None], "None"), (["d", 5, "b"], "5"), (["a", ["b"]], "['b']")])
    def test_refused_naming_the_id_that_is_not_a_string(self, tmp_path, group, shown):
        _refused(_payload(_grader(ranking=[group])), _NOT_STRINGS.format(shown))
        path = tmp_path / "e.json"
        path.write_text(json.dumps({"ranking": [["c"], group]}), encoding="utf-8")
        message = f"{path}: item ids must be non-empty strings, got {shown}"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            read_estimate(str(path))
