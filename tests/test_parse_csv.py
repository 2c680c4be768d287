"""The cardinal CSV parse that checks its rows in bulk against the row-by-row oracle: the same datasets,
the same refusals, arrays equal to the oracle's, and records and ordinal arrays built only when read."""

import csv
import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opg.data import FeedbackArrays
from opg.dataio import _json_text, estimate_to_dict, parse_cardinal_csv, write_cardinal_csv
from opg.errors import DataFormatError
from opg.estimators import MODEL_NAMES, fit_model
from opg.experiments import bootstrap_ek
from opg.rankings import WeakRanking
from opg.synth import CardinalNormalGraders, SynthConfig, simulate

from oracles import records_dataset_from_csv
from test_data import assert_same_arrays, builds  # noqa: F401 (a fixture)

_HEADER = "grader_id,item_id,score"
_IDS = st.text(alphabet="abxyé", min_size=1, max_size=2)
# Few distinct grades, so graders tie; each written as one of several texts that all read as it.
_GRADES = st.sampled_from([0.0, -0.0, 1.0, 2.5, 3.0, -1.25, 1e-9, 7.0])


@st.composite
def _field(draw, text: str) -> str:
    """``text`` as a CSV field: bare, padded with blanks, or quoted (blanks then stay inside the field)."""
    form = draw(st.sampled_from(["bare", "padded", "quoted"]))
    if form == "padded":
        return " " * draw(st.integers(1, 2)) + text + " " * draw(st.integers(0, 2))
    return f'"{text}"' if form == "quoted" else text


@st.composite
def _score(draw, grade: float) -> str:
    return draw(_field(draw(st.sampled_from([repr(grade), "%.12g" % grade, "%e" % grade]))))


@st.composite
def graded_rows(draw) -> list[str]:
    """Lines of well-formed rows, every grader's grades of a random item subset, interleaved at random."""
    items = draw(st.lists(_IDS, min_size=1, max_size=6, unique=True))
    rows = []
    for grader in draw(st.lists(_IDS.map("g".__add__), min_size=1, max_size=5, unique=True)):
        for item in draw(st.lists(st.sampled_from(items), min_size=1, unique=True)):
            rows.append((grader, item, draw(_GRADES)))
    return [",".join([draw(_field(g)), draw(_field(d)), draw(_score(y))]) for g, d, y in draw(st.permutations(rows))]


@st.composite
def _with_blank_lines(draw, lines: list[str]) -> list[str]:
    out = []
    for line in lines:
        out.extend([""] * draw(st.integers(0, 1)) + [line])
    return out


def _write(tmp_path, lines: list[str], name: str = "d.csv") -> str:
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def assert_parsed_as_the_oracle(path: str) -> None:
    """The parse raises the oracle's exception with its text, or returns its dataset: grades preset, the
    ordinal arrays and records unbuilt until read, then every value equal to the oracle's."""
    try:
        want = records_dataset_from_csv(path)
    except Exception as exc:  # the parse must raise exactly this
        with pytest.raises(type(exc)) as got:
            parse_cardinal_csv(path)
        assert str(got.value) == str(exc)
        return
    data = parse_cardinal_csv(path)
    assert "cardinal_arrays" in vars(data)
    assert "feedback" not in vars(data) and "feedback_arrays" not in vars(data)
    assert (data.items, data.graders, data.lazy_graders) == (want.items, want.graders, want.lazy_graders)
    assert (data.has_full_ordinal(), data.has_full_cardinal()) == (True, True)
    for a, b in zip(data.cardinal_arrays, want.cardinal_arrays, strict=True):
        assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, False)
        assert np.array_equal(a, b)
    assert_same_arrays(data.feedback_arrays, FeedbackArrays.build(want))
    assert "feedback" not in vars(data)
    assert data == want and repr(data) == repr(want)
    for got, expected in zip(data.feedback, want.feedback, strict=True):
        assert list(got.ordinal.ranks().items()) == list(expected.ordinal.ranks().items())
        assert list(got.cardinal.items()) == list(expected.cardinal.items())
    assert_same_arrays(data.feedback_arrays, FeedbackArrays.build(data))


# Each fault is a row that fails one per-row check, or two on one line, of which the row-by-row oracle
# names the earlier; a duplicate repeats the grader and item of the first row.
_FAULTS = {
    "two fields": lambda first: "gq,q",
    "four fields": lambda first: "gq,q,1,2",
    "empty grader": lambda first: " ,q,1",
    "empty item": lambda first: "gq,,1",
    "not a number": lambda first: "gq,q,best",
    "not finite": lambda first: "gq,q,-inf",
    "overflows": lambda first: "gq,q,1e999",
    "duplicate": lambda first: first + ",5",
    "two fields, one empty": lambda first: ",q",
    "empty grader, not a number": lambda first: " ,q,best",
    "empty item, not finite": lambda first: "gq,,inf",
    "duplicate, not a number": lambda first: first + ",x1",
    "duplicate, not finite": lambda first: first + ",nan",
}


def _grader_and_item(line: str) -> str:
    return ",".join(next(csv.reader([line]))[:2])


class TestParseEqualsTheRowOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_well_formed(self, tmp_path_factory, data):
        lines = data.draw(_with_blank_lines(data.draw(graded_rows())))
        assert_parsed_as_the_oracle(_write(tmp_path_factory.mktemp("csv"), [_HEADER] + lines))

    def test_header_only(self, tmp_path):
        assert_parsed_as_the_oracle(_write(tmp_path, [_HEADER]))
        assert_parsed_as_the_oracle(_write(tmp_path, [_HEADER, "", ""], "blank.csv"))
        assert parse_cardinal_csv(str(tmp_path / "blank.csv")).items == ()

    @pytest.mark.parametrize("first, second", itertools.permutations(sorted(_FAULTS), 2))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_the_earlier_of_two_faults_is_named(self, tmp_path_factory, first, second, data):
        lines = data.draw(graded_rows())
        i = data.draw(st.integers(1, len(lines)))
        j = data.draw(st.integers(i, len(lines)))
        pair = _grader_and_item(lines[0])
        lines = lines[:i] + [_FAULTS[first](pair)] + lines[i:j] + [_FAULTS[second](pair)] + lines[j:]
        path = _write(tmp_path_factory.mktemp("csv"), [_HEADER] + lines)
        with pytest.raises(DataFormatError, match=f"^{re.escape(path)}: line {i + 2}: "):
            parse_cardinal_csv(path)
        assert_parsed_as_the_oracle(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_malformed(self, tmp_path_factory, data):
        lines = data.draw(graded_rows())
        for name in data.draw(st.lists(st.sampled_from(sorted(_FAULTS)), min_size=1, max_size=3)):
            lines.insert(data.draw(st.integers(1, len(lines))), _FAULTS[name](_grader_and_item(lines[0])))
        lines = data.draw(_with_blank_lines(lines))
        assert_parsed_as_the_oracle(_write(tmp_path_factory.mktemp("csv"), [_HEADER] + lines))

    @pytest.mark.parametrize("fault", [None, *sorted(_FAULTS)])
    def test_a_row_the_reader_refuses_comes_after_earlier_faults(self, tmp_path, fault):
        lines = ["g1,a,1", "g1,b,2"] + ([_FAULTS[fault]("g1,a")] if fault else [])
        path = _write(tmp_path, [_HEADER] + lines + ["g2,a," + "9" * (csv.field_size_limit() + 1)])
        refused = f"^{re.escape(path)}: line 4: field larger than field limit"
        with pytest.raises(DataFormatError, match=None if fault else refused):
            parse_cardinal_csv(path)
        assert_parsed_as_the_oracle(path)

    def test_a_header_the_reader_refuses(self, tmp_path):
        path = _write(tmp_path, ["grader_id,item_id," + "s" * (csv.field_size_limit() + 1), "g1,a,1"])
        with pytest.raises(DataFormatError, match=f"^{re.escape(path)}: line 1: field larger than field limit"):
            parse_cardinal_csv(path)
        assert_parsed_as_the_oracle(path)

    @pytest.mark.parametrize(
        "text", ["", "grader,item,score\n", "grader_id,item_id,score,x\n", "grader_id;item_id;score\n"],
        ids=["empty", "renamed", "extra column", "semicolons"],
    )
    def test_header_refusals(self, tmp_path, text):
        (tmp_path / "d.csv").write_text(text, encoding="utf-8")
        assert_parsed_as_the_oracle(str(tmp_path / "d.csv"))


@pytest.fixture(scope="module")
def tied_class(tmp_path_factory) -> str:
    """A CSV of a 40 x 150 x 7 class whose grades are rounded to whole numbers, so with ties."""
    data = simulate(SynthConfig(40, 150, 7, grader_model=CardinalNormalGraders(bias_std=0.5), seed=5))[0]
    rounded = dataclasses.replace(data, feedback=tuple(
        dataclasses.replace(fb, cardinal={d: float(round(v)) for d, v in fb.cardinal.items()}, ordinal=None)
        for fb in data.feedback))
    path = str(tmp_path_factory.mktemp("tied") / "class.csv")
    write_cardinal_csv(rounded, path)
    return path


class TestSameAnswers:
    def test_the_class_parses_as_the_oracle(self, tied_class):
        assert_parsed_as_the_oracle(tied_class)

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_every_estimate_is_byte_identical(self, tied_class, model):
        want = fit_model(model, records_dataset_from_csv(tied_class))
        assert _json_text(estimate_to_dict(fit_model(model, parse_cardinal_csv(tied_class)))) == _json_text(
            estimate_to_dict(want))


class TestBuiltOnlyWhenRead:
    def test_cardinal_fits_build_neither_records_nor_ordinal_arrays(self, builds, tied_class):
        data = parse_cardinal_csv(tied_class)
        for model in ("scavg", "ncs+g"):
            fit_model(model, data)
        bootstrap_ek(data, "scavg", [WeakRanking.from_order(data.items)], reps=5, seed=0)
        assert "feedback" not in vars(data) and "feedback_arrays" not in vars(data)
        fit_model("mal", data)
        assert "feedback_arrays" in vars(data) and "feedback" not in vars(data)
        assert builds == []

    def test_records_read_first_share_one_compile(self, monkeypatch, tied_class):
        compiles, compile_ = [], FeedbackArrays._compile.__func__
        monkeypatch.setattr(FeedbackArrays, "_compile", classmethod(lambda *a: compiles.append(a) or compile_(*a)))
        data = parse_cardinal_csv(tied_class)
        assert data.feedback == records_dataset_from_csv(tied_class).feedback
        fit_model("mal", data)
        assert len(compiles) == 1
