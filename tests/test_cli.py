"""End-to-end tests for the command-line interface."""

import json
import shutil
import subprocess

import pytest

from opg.cli import main
from opg.dataio import parse_cardinal_csv, parse_ordinal_json, write_estimate, write_ordinal_json
from opg.data import Estimate
from opg.rankings import WeakRanking

from conftest import make_ordinal_dataset


@pytest.fixture
def ordinal_path(tmp_path):
    data = make_ordinal_dataset(
        {
            "g1": [["a"], ["b"], ["c"]],
            "g2": [["a"], ["c"], ["b"]],
            "g3": [["b"], ["a"], ["c"]],
        }
    )
    path = str(tmp_path / "data.json")
    write_ordinal_json(data, path)
    return path


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "data.csv"
    rows = ["grader_id,item_id,score", "g1,a,9", "g1,b,6", "g2,a,8", "g2,b,7"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


class TestEstimate:
    def test_writes_estimate_json(self, ordinal_path, tmp_path):
        out = str(tmp_path / "est.json")
        code = main(
            ["estimate", "--model", "mal", "--input", ordinal_path, "--output", out, "--seed", "7"]
        )
        assert code == 0
        payload = json.loads(open(out, encoding="utf-8").read())
        assert payload["ranking"][0] == ["a"]
        assert payload["config"]["model"] == "mal"
        assert payload["config"]["seed"] == 7
        assert "percentiles" in payload

    def test_reruns_are_byte_identical(self, ordinal_path, tmp_path):
        out1, out2 = str(tmp_path / "e1.json"), str(tmp_path / "e2.json")
        base = ["estimate", "--model", "bt+g", "--input", ordinal_path, "--seed", "3"]
        assert main(base + ["--output", out1]) == 0
        assert main(base + ["--output", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_prints_to_stdout_without_output(self, ordinal_path, capsys):
        assert main(["estimate", "--model", "mal", "--input", ordinal_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ranking"][0] == ["a"]

    @pytest.mark.parametrize("model", ["mal", "bt+g"])
    def test_stdout_and_output_file_are_the_same_bytes(self, ordinal_path, tmp_path, capsysbinary, model):
        out = str(tmp_path / "est.json")
        base = ["estimate", "--model", model, "--input", ordinal_path]
        assert main(base) == 0
        printed = capsysbinary.readouterr().out
        assert main(base + ["--output", out]) == 0
        assert printed == open(out, "rb").read()

    def test_cardinal_csv_autodetected(self, csv_path, tmp_path):
        out = str(tmp_path / "est.json")
        code = main(["estimate", "--model", "ncs", "--input", csv_path, "--output", out])
        assert code == 0
        payload = json.loads(open(out, encoding="utf-8").read())
        assert payload["config"]["format"] == "cardinal"
        assert payload["ranking"] == [["a"], ["b"]]
        assert "scores" in payload

    def test_reliability_models_embed_reliabilities(self, ordinal_path, tmp_path):
        out = str(tmp_path / "est.json")
        assert main(["estimate", "--model", "mal+g", "--input", ordinal_path, "--output", out]) == 0
        payload = json.loads(open(out, encoding="utf-8").read())
        assert set(payload["reliabilities"]) == {"g1", "g2", "g3"}

    def test_incompatible_model_exits_one(self, ordinal_path, capsys):
        code = main(["estimate", "--model", "scavg", "--input", ordinal_path])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code = main(["estimate", "--model", "mal", "--input", str(tmp_path / "nope.json")])
        assert code == 1

    def test_unknown_model_exits_one(self, ordinal_path):
        assert main(["estimate", "--model", "elo", "--input", ordinal_path]) == 1

    def test_unknown_flag_exits_one(self, ordinal_path):
        assert main(["estimate", "--model", "mal", "--input", ordinal_path, "--banana", "1"]) == 1

    def test_malformed_input_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        assert main(["estimate", "--model", "mal", "--input", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_identical_files_score_zero(self, tmp_path, capsys):
        est = Estimate(ranking=WeakRanking.from_order(["a", "b", "c"]))
        path = str(tmp_path / "est.json")
        write_estimate(est, path)
        code = main(["evaluate", "--input", path, "--target", path])
        assert code == 0
        assert "E_K: 0.0" in capsys.readouterr().out

    def test_reversed_prediction_scores_hundred(self, tmp_path, capsys):
        pred = str(tmp_path / "pred.json")
        targ = str(tmp_path / "targ.json")
        write_estimate(Estimate(ranking=WeakRanking.from_order(["c", "b", "a"])), pred)
        write_estimate(Estimate(ranking=WeakRanking.from_order(["a", "b", "c"])), targ)
        assert main(["evaluate", "--input", pred, "--target", targ]) == 0
        assert "E_K: 100.0" in capsys.readouterr().out

    def test_multiple_targets_average(self, tmp_path, capsys):
        pred = str(tmp_path / "pred.json")
        t1 = str(tmp_path / "t1.json")
        t2 = str(tmp_path / "t2.json")
        write_estimate(Estimate(ranking=WeakRanking.from_order(["a", "b", "c"])), pred)
        write_estimate(Estimate(ranking=WeakRanking.from_order(["a", "b", "c"])), t1)
        write_estimate(Estimate(ranking=WeakRanking.from_order(["c", "b", "a"])), t2)
        assert main(["evaluate", "--input", pred, "--target", t1, "--target", t2]) == 0
        assert "E_K: 50.0" in capsys.readouterr().out

    def test_scores_add_mae_rmse(self, tmp_path, capsys):
        from opg.metrics import cardinal_errors

        pred_scores = {"a": 3.0, "b": 2.0, "c": 1.0}
        targ_scores = {"a": 9.0, "b": 4.0, "c": 2.0}
        pred = str(tmp_path / "pred.json")
        targ = str(tmp_path / "targ.json")
        write_estimate(
            Estimate(ranking=WeakRanking.from_order(["a", "b", "c"]), scores=pred_scores), pred
        )
        write_estimate(
            Estimate(ranking=WeakRanking.from_order(["a", "b", "c"]), scores=targ_scores), targ
        )
        out_file = str(tmp_path / "report.json")
        assert main(["evaluate", "--input", pred, "--target", targ, "--output", out_file]) == 0
        printed = capsys.readouterr().out
        mae, rmse = cardinal_errors(pred_scores, targ_scores)
        assert mae > 0.0
        assert f"MAE: {float(f'{mae:.12g}')!r}" in printed
        assert f"RMSE: {float(f'{rmse:.12g}')!r}" in printed
        report = json.loads(open(out_file, encoding="utf-8").read())
        assert report["e_k"] == 0.0
        assert report["mae"] == pytest.approx(mae, rel=1e-11)

    def test_a_failing_figure_leaves_stdout_and_output_empty(self, tmp_path, capsys):
        """E_K is computable, but MAE needs two items; nothing is printed or written."""
        path, out = tmp_path / "pred.json", tmp_path / "report.json"
        path.write_text(json.dumps({"ranking": [["a"], ["b"]], "scores": {"a": 1}}), encoding="utf-8")
        code = main(["evaluate", "--input", str(path), "--target", str(path), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "cardinal errors need at least two items" in captured.err
        assert not out.exists()

    def test_missing_target_file_exits_one(self, tmp_path):
        est = Estimate(ranking=WeakRanking.from_order(["a", "b"]))
        path = str(tmp_path / "est.json")
        write_estimate(est, path)
        assert main(["evaluate", "--input", path, "--target", str(tmp_path / "no.json")]) == 1


class TestSimulate:
    def test_writes_dataset_and_truth(self, tmp_path):
        out = str(tmp_path / "sim.json")
        truth = str(tmp_path / "truth.json")
        code = main(
            [
                "simulate", "--items", "8", "--graders", "10", "--items-per-grader", "3",
                "--grader-model", "mallows:2.0", "--seed", "5",
                "--output", out, "--truth-output", truth,
            ]
        )
        assert code == 0
        data = parse_ordinal_json(out)
        assert len(data.items) == 8
        assert len(data.graders) == 10
        truth_payload = json.loads(open(truth, encoding="utf-8").read())
        assert truth_payload["metadata"]["truth"] is True
        assert truth_payload["config"]["seed"] == 5

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        args = [
            "simulate", "--items", "6", "--graders", "8", "--items-per-grader", "3",
            "--seed", "9",
        ]
        p1, p2 = str(tmp_path / "s1.json"), str(tmp_path / "s2.json")
        assert main(args + ["--output", p1]) == 0
        assert main(args + ["--output", p2]) == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_cardinal_format_writes_csv(self, tmp_path):
        out = str(tmp_path / "sim.csv")
        code = main(
            [
                "simulate", "--items", "6", "--graders", "8", "--items-per-grader", "3",
                "--grader-model", "normal:4.0", "--format", "cardinal", "--output", out,
            ]
        )
        assert code == 0
        data = parse_cardinal_csv(out)
        assert data.has_full_cardinal()

    def test_bad_grader_model_exits_one(self, tmp_path, capsys):
        code = main(
            ["simulate", "--grader-model", "uniform:1", "--output", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "grader-model" in capsys.readouterr().err

    def test_infeasible_assignment_exits_one(self, tmp_path):
        code = main(
            [
                "simulate", "--items", "3", "--graders", "2", "--items-per-grader", "9",
                "--output", str(tmp_path / "x.json"),
            ]
        )
        assert code == 1


class TestPipeline:
    def test_simulate_estimate_evaluate(self, tmp_path, capsys):
        sim = str(tmp_path / "sim.json")
        truth = str(tmp_path / "truth.json")
        est = str(tmp_path / "est.json")
        assert main(
            [
                "simulate", "--items", "12", "--graders", "30", "--items-per-grader", "4",
                "--grader-model", "mallows:4.0", "--seed", "1",
                "--output", sim, "--truth-output", truth,
            ]
        ) == 0
        assert main(
            ["estimate", "--model", "mal", "--input", sim, "--output", est, "--seed", "1"]
        ) == 0
        assert main(["evaluate", "--input", est, "--target", truth]) == 0
        line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("E_K:")][0]
        assert float(line.split(":")[1]) <= 20.0


class TestExperimentCommand:
    def test_bootstrap_report(self, ordinal_path, tmp_path):
        target = str(tmp_path / "target.json")
        write_estimate(Estimate(ranking=WeakRanking.from_order(["a", "b", "c"])), target)
        out = str(tmp_path / "report.json")
        code = main(
            [
                "experiment", "--name", "bootstrap", "--model", "mal",
                "--input", ordinal_path, "--target", target,
                "--reps", "8", "--seed", "2", "--output", out,
            ]
        )
        assert code == 0
        report = json.loads(open(out, encoding="utf-8").read())
        assert report["experiment"] == "bootstrap"
        assert report["method"] == "mal"
        assert 0.0 <= report["ek_mean"] <= 100.0
        assert report["params"]["reps"] == 8

    def test_time_accepts_comma_separated_models(self, ordinal_path, capsys):
        code = main(
            ["experiment", "--name", "time", "--model", "mal,borda", "--input", ordinal_path]
        )
        # borda is not a model name, so the run must fail cleanly
        assert code == 1

    def test_time_report_keys(self, ordinal_path, capsys):
        code = main(
            [
                "experiment", "--name", "time", "--model", "mal,malbc",
                "--input", ordinal_path, "--reps", "2",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["runtimes"]) == {"mal", "malbc"}

    def test_downsample_requires_axis_and_levels(self, ordinal_path, tmp_path, capsys):
        target = str(tmp_path / "target.json")
        write_estimate(Estimate(ranking=WeakRanking.from_order(["a", "b", "c"])), target)
        base = [
            "experiment", "--name", "downsample", "--model", "mal",
            "--input", ordinal_path, "--target", target, "--reps", "2",
        ]
        assert main(base) == 1
        assert main(base + ["--axis", "reviewers"]) == 1
        assert main(base + ["--axis", "reviewers", "--levels", "2,3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [point["level"] for point in report["curve"]] == [2, 3]

    def test_bootstrap_requires_target(self, ordinal_path, capsys):
        code = main(
            ["experiment", "--name", "bootstrap", "--model", "mal", "--input", ordinal_path]
        )
        assert code == 1
        assert "--target" in capsys.readouterr().err

    def test_self_consistency_no_target_needed(self, ordinal_path, capsys):
        code = main(
            [
                "experiment", "--name", "self_consistency", "--model", "mal",
                "--input", ordinal_path, "--reps", "4", "--seed", "0",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "ek_mean" in report


@pytest.mark.skipif(shutil.which("opg") is None, reason="console script not installed")
class TestConsoleScript:
    def test_entry_point_runs(self, ordinal_path):
        proc = subprocess.run(
            ["opg", "estimate", "--model", "mal", "--input", ordinal_path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ranking"][0] == ["a"]
