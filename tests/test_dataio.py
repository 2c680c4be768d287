"""Tests for file formats: cardinal CSV, ordinal JSON, estimate JSON."""

import json
import os
import re

import numpy as np
import pytest

from opg import dataio
from opg.data import Dataset, Estimate, _scan_grades
from opg.dataio import (
    dataset_from_dict,
    dataset_to_dict,
    parse_cardinal_csv,
    parse_ordinal_json,
    percentile_ranks,
    read_estimate,
    read_target_ranking,
    write_cardinal_csv,
    write_estimate,
    write_json,
    write_ordinal_json,
)
from opg.errors import DataFormatError, ValidationError
from opg.estimators import fit_model
from opg.rankings import WeakRanking
from opg.synth import CardinalNormalGraders, SynthConfig, simulate

from conftest import make_cardinal_dataset, make_ordinal_dataset


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseCardinalCsv:
    def test_scores_induce_ordering(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "grader_id,item_id,score\ng1,a,9\ng1,b,7\n")
        data = parse_cardinal_csv(path)
        assert data.items == ("a", "b")
        assert data.graders == ("g1",)
        fb = data.feedback[0]
        assert fb.cardinal == {"a": 9.0, "b": 7.0}
        assert fb.ordinal.groups == (("a",), ("b",))

    def test_equal_scores_tie(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "grader_id,item_id,score\ng1,a,8\ng1,b,8\n")
        data = parse_cardinal_csv(path)
        assert data.feedback[0].ordinal.groups == (("a", "b"),)

    def test_duplicate_pair_names_both_lines(self, tmp_path):
        path = write_text(
            tmp_path / "d.csv", "grader_id,item_id,score\ng1,a,8\ng1,b,6\ng1,a,9\n"
        )
        with pytest.raises(DataFormatError, match=r"line 4.*line 2"):
            parse_cardinal_csv(path)

    def test_header_must_match_exactly(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "grader,item,score\ng1,a,8\n")
        with pytest.raises(DataFormatError, match="header"):
            parse_cardinal_csv(path)

    def test_empty_file(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "")
        with pytest.raises(DataFormatError, match="empty"):
            parse_cardinal_csv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "grader_id,item_id,score\ng1,a\n")
        with pytest.raises(DataFormatError, match="line 2"):
            parse_cardinal_csv(path)

    def test_non_numeric_score(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "grader_id,item_id,score\ng1,a,best\n")
        with pytest.raises(DataFormatError, match="not a number"):
            parse_cardinal_csv(path)

    def test_non_finite_score(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "grader_id,item_id,score\ng1,a,inf\n")
        with pytest.raises(DataFormatError, match="not finite"):
            parse_cardinal_csv(path)

    def test_empty_id(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "grader_id,item_id,score\n,a,5\n")
        with pytest.raises(DataFormatError, match="empty grader or item"):
            parse_cardinal_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "grader_id,item_id,score\n\ng1,a,5\n\n")
        data = parse_cardinal_csv(path)
        assert data.items == ("a",)

    def test_a_file_with_a_byte_order_mark_parses_as_the_file_without_it(self, tmp_path):
        text = 'grader_id,item_id,score\ng1,a,9\ng1,b,7\n"g1",c,7\n\ng2, b ,1.5\ng2,a,1.5\n'
        want = parse_cardinal_csv(write_text(tmp_path / "plain.csv", text))
        data = parse_cardinal_csv(write_text(tmp_path / "marked.csv", "\ufeff" + text))
        for a, b in zip(data.cardinal_arrays, want.cardinal_arrays, strict=True):
            assert np.array_equal(a, b)
        for field in ("offsets", "item", "rank", "coeff", "grader_coeff"):
            assert np.array_equal(getattr(data.feedback_arrays, field), getattr(want.feedback_arrays, field))
        assert data == want


class TestWriteCardinalCsv:
    def test_round_trip(self, tmp_path):
        data = make_cardinal_dataset(
            {"g1": {"a": 9.0, "b": 7.5}, "g2": {"b": 4.0, "c": 4.0}}
        )
        path = str(tmp_path / "out.csv")
        write_cardinal_csv(data, path)
        assert parse_cardinal_csv(path) == data

    def test_deterministic_bytes(self, tmp_path):
        data = make_cardinal_dataset({"g1": {"a": 1.0, "b": 2.0}})
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_cardinal_csv(data, p1)
        write_cardinal_csv(data, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_rejects_ordinal_only_data(self, tmp_path):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]]})
        with pytest.raises(ValidationError, match="cardinal"):
            write_cardinal_csv(data, str(tmp_path / "o.csv"))

    def test_rejects_lazy_labels(self, tmp_path):
        import dataclasses

        data = make_cardinal_dataset({"g1": {"a": 1.0, "b": 2.0}})
        labeled = dataclasses.replace(data, lazy_graders=frozenset({"g1"}))
        with pytest.raises(ValidationError, match="lazy"):
            write_cardinal_csv(labeled, str(tmp_path / "o.csv"))

    def test_rejects_ungraded_roster_items(self, tmp_path):
        data = make_cardinal_dataset({"g1": {"a": 1.0}}, items=["a", "ghost"])
        with pytest.raises(ValidationError, match="nobody graded"):
            write_cardinal_csv(data, str(tmp_path / "o.csv"))

    def test_no_temp_files_left(self, tmp_path):
        data = make_cardinal_dataset({"g1": {"a": 1.0, "b": 2.0}})
        write_cardinal_csv(data, str(tmp_path / "o.csv"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv"]


class TestOrdinalJson:
    def test_parse_groups(self, tmp_path):
        payload = {
            "items": ["a", "b", "c"],
            "graders": [{"id": "g1", "ranking": [["a"], ["b", "c"]]}],
        }
        path = write_text(tmp_path / "d.json", json.dumps(payload))
        data = parse_ordinal_json(path)
        assert data.feedback[0].ordinal.groups == (("a",), ("b", "c"))
        assert data.feedback[0].cardinal is None

    def test_item_listed_twice_is_error(self, tmp_path):
        payload = {
            "items": ["a", "b"],
            "graders": [{"id": "g1", "ranking": [["a"], ["b", "a"]]}],
        }
        path = write_text(tmp_path / "d.json", json.dumps(payload))
        with pytest.raises(DataFormatError):
            parse_ordinal_json(path)

    def test_empty_graders_list_is_valid(self, tmp_path):
        payload = {"items": ["a", "b"], "graders": []}
        path = write_text(tmp_path / "d.json", json.dumps(payload))
        data = parse_ordinal_json(path)
        assert data.items == ("a", "b")
        assert data.feedback == ()

    def test_unknown_item_id(self, tmp_path):
        payload = {"items": ["a"], "graders": [{"id": "g1", "ranking": [["a"], ["zz"]]}]}
        path = write_text(tmp_path / "d.json", json.dumps(payload))
        with pytest.raises(DataFormatError, match="unknown item"):
            parse_ordinal_json(path)

    def test_duplicate_roster_ids_name_the_file(self, tmp_path):
        payload = {"items": ["a", "b", "a"], "graders": [{"id": "g1", "ranking": [["a"], ["b"]]}]}
        path = write_text(tmp_path / "d.json", json.dumps(payload))
        with pytest.raises(DataFormatError, match=f"^{re.escape(path)}: .*duplicate"):
            parse_ordinal_json(path)

    def test_empty_group_is_error(self, tmp_path):
        payload = {"items": ["a", "b"], "graders": [{"id": "g1", "ranking": [["a"], []]}]}
        path = write_text(tmp_path / "d.json", json.dumps(payload))
        with pytest.raises(DataFormatError):
            parse_ordinal_json(path)

    def test_invalid_json_reports_path(self, tmp_path):
        path = write_text(tmp_path / "d.json", "{not json")
        with pytest.raises(DataFormatError, match="invalid JSON"):
            parse_ordinal_json(path)

    def test_round_trip_ordinal(self, tmp_path):
        data = make_ordinal_dataset(
            {"g1": [["a"], ["b", "c"]], "g2": [["c"], ["a"]]}, items=["a", "b", "c", "d"]
        )
        path = str(tmp_path / "d.json")
        write_ordinal_json(data, path)
        assert parse_ordinal_json(path) == data

    def test_round_trip_with_grades_and_lazy(self, tmp_path):
        import dataclasses

        base = make_cardinal_dataset({"g1": {"a": 9.0, "b": 7.0}, "g2": {"a": 3.5, "b": 3.5}})
        data = dataclasses.replace(base, lazy_graders=frozenset({"g2"}))
        path = str(tmp_path / "d.json")
        write_ordinal_json(data, path)
        restored = parse_ordinal_json(path)
        assert restored == data
        assert restored.lazy_graders == frozenset({"g2"})
        assert restored.feedback[0].cardinal == {"a": 9.0, "b": 7.0}

    def test_config_echo_embedded(self, tmp_path):
        data = make_ordinal_dataset({"g1": [["a"], ["b"]]})
        path = str(tmp_path / "d.json")
        write_ordinal_json(data, path, config={"seed": 7, "source": "unit"})
        payload = json.loads(open(path, encoding="utf-8").read())
        assert payload["config"] == {"seed": 7, "source": "unit"}

    def test_non_finite_grade_rejected(self, tmp_path):
        payload = {
            "items": ["a"],
            "graders": [{"id": "g1", "ranking": [["a"]], "grades": {"a": float("inf")}}],
        }
        path = write_text(tmp_path / "d.json", json.dumps(payload))
        with pytest.raises(DataFormatError):
            parse_ordinal_json(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = write_text(tmp_path / "d.json", "[1, 2]")
        with pytest.raises(DataFormatError, match="object"):
            parse_ordinal_json(path)

    def test_dict_round_trip_without_files(self):
        data = make_ordinal_dataset({"g1": [["b"], ["a"]]})
        assert dataset_from_dict(dataset_to_dict(data)) == data

    @pytest.mark.parametrize("payload, read", [
        ({"items": ["a", "b", "c"], "graders": [
            {"id": "g1", "ranking": [["b"], ["a", "c"]], "grades": {"a": 1.0, "b": 2.5, "c": 1.0}},
            {"id": "g2", "ranking": [["c"], ["a"]]}]}, parse_ordinal_json),
        ({"ranking": [["b"], ["a", "c"]], "scores": {"a": 0.5, "b": 1.5}, "metadata": {"k": 1}}, read_estimate),
    ], ids=["dataset", "estimate"])
    def test_a_file_with_a_byte_order_mark_parses_as_the_file_without_it(self, tmp_path, payload, read):
        text = json.dumps(payload)
        want = read(write_text(tmp_path / "plain.json", text))
        assert read(write_text(tmp_path / "marked.json", "\ufeff" + text)) == want


class TestGradedJsonParse:
    def test_cardinal_fits_build_no_records(self, tmp_path):
        data = simulate(SynthConfig(12, 30, 4, grader_model=CardinalNormalGraders(), n_lazy=2, seed=3))[0]
        write_ordinal_json(Dataset(data.items + ("zz",), data.graders, data.feedback, data.lazy_graders),
                           str(tmp_path / "d.json"))
        parsed = parse_ordinal_json(str(tmp_path / "d.json"))
        for model in ("scavg", "ncs+g"):
            fit_model(model, parsed)
        assert "cardinal_arrays" in vars(parsed) and "feedback" not in vars(parsed)
        for got, want in zip(parsed.cardinal_arrays, _scan_grades(parsed), strict=True):
            assert (got.dtype, got.shape, got.flags.writeable) == (want.dtype, want.shape, False)
            assert np.array_equal(got, want)

    def test_a_grader_without_grades_is_still_refused(self, tmp_path):
        payload = {"items": ["a", "b"], "graders": [{"id": "g1", "ranking": [["a"], ["b"]], "grades": {"a": 2, "b": 1}},
                                                    {"id": "g2", "ranking": [["b"], ["a"]]}]}
        parsed = dataset_from_dict(payload)
        with pytest.raises(ValidationError, match="needs cardinal grades from every grader"):
            fit_model("scavg", parsed)
        with pytest.raises(ValidationError, match="grader 'g2' has no cardinal feedback"):
            parsed.cardinal_arrays  # noqa: B018


class TestPercentileRanks:
    def test_single_item_maps_to_hundred(self):
        ranking = WeakRanking.from_order(["only"])
        assert percentile_ranks(ranking) == {"only": 100.0}

    def test_strict_order_spans_range(self):
        ranking = WeakRanking.from_order(["a", "b", "c"])
        assert percentile_ranks(ranking) == {"a": 100.0, "b": 50.0, "c": 0.0}

    def test_all_tied_midrank(self):
        ranking = WeakRanking((("a", "b", "c"),))
        assert percentile_ranks(ranking) == {"a": 50.0, "b": 50.0, "c": 50.0}

    def test_tied_middle_group(self):
        ranking = WeakRanking((("a",), ("b", "c"), ("d",)))
        pct = percentile_ranks(ranking)
        assert pct == {"a": 100.0, "b": 50.0, "c": 50.0, "d": 0.0}

    def test_two_items(self):
        ranking = WeakRanking.from_order(["hi", "lo"])
        assert percentile_ranks(ranking) == {"hi": 100.0, "lo": 0.0}


class TestEstimateIo:
    def test_round_trip(self, tmp_path):
        est = Estimate(
            ranking=WeakRanking((("a",), ("b", "c"))),
            scores={"a": 1.25, "b": -0.5, "c": -0.5},
            reliabilities={"g1": 2.0, "g2": 0.5},
            metadata={"model": "bt+g", "seed": 3},
        )
        path = str(tmp_path / "est.json")
        write_estimate(est, path)
        assert read_estimate(path) == est

    def test_percentiles_embedded(self, tmp_path):
        est = Estimate(ranking=WeakRanking.from_order(["a", "b", "c"]))
        path = str(tmp_path / "est.json")
        write_estimate(est, path)
        payload = json.loads(open(path, encoding="utf-8").read())
        assert payload["percentiles"] == {"a": 100.0, "b": 50.0, "c": 0.0}

    def test_twelve_digit_rounding(self, tmp_path):
        est = Estimate(ranking=WeakRanking.from_order(["a", "b"]), scores={"a": 1 / 3, "b": 0.1 + 0.2})
        path = str(tmp_path / "est.json")
        write_estimate(est, path)
        text = open(path, encoding="utf-8").read()
        assert "0.333333333333" in text
        assert "0.30000000000000004" not in text
        assert json.loads(text)["scores"]["b"] == 0.3

    def test_deterministic_bytes(self, tmp_path):
        est = Estimate(
            ranking=WeakRanking.from_order(["b", "a"]),
            scores={"b": 2.0, "a": 1.0},
            metadata={"model": "ncs"},
        )
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_estimate(est, p1)
        write_estimate(est, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_read_target_ranking(self, tmp_path):
        est = Estimate(ranking=WeakRanking((("x",), ("y", "z"))))
        path = str(tmp_path / "est.json")
        write_estimate(est, path)
        assert read_target_ranking(path) == WeakRanking((("x",), ("y", "z")))

    def test_bare_ranking_file_accepted(self, tmp_path):
        path = write_text(tmp_path / "t.json", json.dumps({"ranking": [["a"], ["b"]]}))
        assert read_target_ranking(path) == WeakRanking.from_order(["a", "b"])

    def test_missing_ranking_key(self, tmp_path):
        path = write_text(tmp_path / "t.json", json.dumps({"scores": {"a": 1.0}}))
        with pytest.raises(DataFormatError, match="ranking"):
            read_estimate(path)

    def test_invalid_ranking_payload(self, tmp_path):
        path = write_text(tmp_path / "t.json", json.dumps({"ranking": [["a"], ["a"]]}))
        with pytest.raises(DataFormatError):
            read_estimate(path)


class TestWriteJson:
    def test_sorted_keys_and_newline(self, tmp_path):
        path = str(tmp_path / "x.json")
        write_json({"b": 1, "a": 2}, path)
        text = open(path, encoding="utf-8").read()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_overwrites_existing_file(self, tmp_path):
        path = str(tmp_path / "x.json")
        write_json({"v": 1}, path)
        write_json({"v": 2}, path)
        assert json.loads(open(path, encoding="utf-8").read()) == {"v": 2}

    def test_failed_replace_removes_the_temp_file_and_reraises(self, tmp_path, monkeypatch):
        path = tmp_path / "x.json"
        write_json({"v": 1}, str(path))

        def failing_replace(src, dst):
            assert os.path.exists(src)
            raise OSError("disk full")

        monkeypatch.setattr(dataio.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            write_json({"v": 2}, str(path))
        assert os.listdir(tmp_path) == ["x.json"]
        assert json.loads(path.read_text(encoding="utf-8")) == {"v": 1}


_WRITERS = {
    "write_json": lambda path: write_json({"v": 1}, path),
    "write_estimate": lambda path: write_estimate(Estimate(ranking=WeakRanking.from_order(["a", "b"])), path),
    "write_ordinal_json": lambda path: write_ordinal_json(make_ordinal_dataset({"g1": [["a"], ["b"]]}), path),
    "write_cardinal_csv": lambda path: write_cardinal_csv(make_cardinal_dataset({"g1": {"a": 1.0, "b": 2.0}}), path),
}


@pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
@pytest.mark.parametrize("writer", sorted(_WRITERS))
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_written_files_follow_the_umask(tmp_path, writer, umask, mode):
    """An atomic write gives the file the mode ``open(path, "w")`` would, new or replacing a file."""
    path = str(tmp_path / "out")
    previous = os.umask(umask)
    try:
        with open(str(tmp_path / "plain"), "w"):
            pass
        _WRITERS[writer](path)
        first = os.stat(path).st_mode & 0o777
        _WRITERS[writer](path)
    finally:
        os.umask(previous)
    assert first == os.stat(path).st_mode & 0o777 == os.stat(str(tmp_path / "plain")).st_mode & 0o777 == mode
    assert sorted(os.listdir(tmp_path)) == ["out", "plain"]
