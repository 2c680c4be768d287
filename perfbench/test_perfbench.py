"""Tests of the benchmark itself, on toy classrooms (12 items x 20 graders x 7).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, seed: int, trace: int, cwd: str = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last, proc.stderr


def _report(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(HERE, "_work", f"{workload}-seed{seed}-trace{trace}", "report.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _setup_digests(tmp_path, workload: str, seed: int) -> dict:
    out = tmp_path / f"{workload}-{seed}"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_worker.py"), "--root", ROOT, "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--out", str(out), "--toy"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    classrooms = json.loads(proc.stdout.strip().splitlines()[-1])["classrooms"]
    return {name: digest for c in classrooms.values() for name, digest in c.items() if name.startswith(("class", "truth"))}


def test_benchmark_json_follows_the_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(tmp_path, workload):
    first = _setup_digests(tmp_path / "a", workload, 1)
    again = _setup_digests(tmp_path / "b", workload, 1)
    other = _setup_digests(tmp_path / "c", workload, 2)
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace):
    code, last, stderr = _run(workload, 1, trace)
    assert code == 0, stderr
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in last["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_answers_repeat_exactly_for_one_seed(workload):
    answers = []
    for _ in range(2):
        assert _run(workload, 3, 1)[0] == 0
        report = _report(workload, 3, 1)
        answers.append((
            {m: (e.get("ek"), e.get("bootstrap_ek")) for m, e in report["models"].items()},
            {k: v for k, v in report["values"].items() if k.startswith(("ek", "scoremodels.objective.", "scoremodels.grad_norm", "mallows.kemeny_cost"))},
            {k: v for k, v in report["quality"].items() if not k.startswith("scoremodels.objective_s")},
        ))
    assert answers[0] == answers[1]
    assert answers[0][2], "the traced run reported no quality values"


def _checkout_copy(tmp_path, with_sources: bool) -> str:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return str(root)


def test_fails_without_the_program(tmp_path):
    code, last, _ = _run("paper", 1, 0, cwd=_checkout_copy(tmp_path, with_sources=False))
    assert code != 0 and last is None


def test_wrong_answers_fail_the_run(tmp_path):
    root = _checkout_copy(tmp_path, with_sources=True)
    with open(os.path.join(root, "src", "opg", "estimators.py"), "a", encoding="utf-8") as fh:
        fh.write(
            "\n_fit_model = fit_model\n\n"
            "def fit_model(name, data, options=None):\n"
            "    est = _fit_model(name, data, options)\n"
            "    return dataclasses.replace(est, ranking=WeakRanking(reversed(est.ranking.groups)))\n"
        )
        fh.write("\nfrom .rankings import WeakRanking\n")
    code, last, _ = _run("paper", 1, 0, cwd=root)
    assert code == 1
    assert last["correct"] is False and last["failed"] > 0 and last["metrics"] == {}


def test_times_scale_by_the_mean_kernel_time():
    from speed import REFERENCE_S, Speedometer

    speed = Speedometer()
    speed.kernel_s = [0.01, 0.03]
    assert speed.scale() == pytest.approx(REFERENCE_S / 0.02)
    speed.sample()
    assert len(speed.kernel_s) == 3 and speed.kernel_s[-1] > 0
    speed.tick()  # too soon after the last sample to take another
    assert len(speed.kernel_s) == 3
