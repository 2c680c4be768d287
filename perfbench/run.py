"""opg benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 24 --trace 0

The run sets up the workload's classrooms from ``--seed`` in several fresh
processes, then runs the timed pipeline over all of them in another fresh
process (see setup_worker.py and pipeline_worker.py). With ``--trace 0`` it
reports the end-to-end metrics listed in BENCHMARK.json, with ``--trace 1``
the per-layer ones. It prints each metric with its unit, a full report, and
as its last line one JSON object with the keys correct, attempted, failed and
metrics. It exits 1 when an operation or an output check failed, and 2 when
it cannot run at all, for instance when the checkout has no ``src/opg``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0


def _commit(root: str) -> str | None:
    """The checked-out commit when ``root`` is a git work tree, read without running git."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(root, ".git", *ref[5:].split("/"))
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "opg")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _worker(script: str, argv: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run a worker to completion and return the JSON object on its last output line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *argv],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help="12 x 20 x 7 classrooms, for smoke tests")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "opg", "__init__.py")):
        print(f"no opg sources under {os.path.join(root, 'src')}; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(HERE, "_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = {k: v for k, v in os.environ.items() if k != "OPG_THREADS"}
    env.update(wl.THREAD_ENV)
    common = ["--root", root, "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--toy"] * args.toy)

    errors: list[str] = []
    setups: list[dict] = []
    pipeline: dict = {}
    inputs = os.path.join(work, "inputs")
    try:
        for i in range(wl.SETUP_PROCESSES):
            part = ["--part", f"{i}/{wl.SETUP_PROCESSES}", "--out", inputs]
            setups.append(_worker("setup_worker.py", common + part, env, deadline))
        pipeline = _worker("pipeline_worker.py", common + ["--inputs", inputs, "--out", work], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        errors.append(f"worker failed: {exc}")

    classes = [c for s in setups for c in s["classrooms"].values()]
    attempted = max(1, 3 * len(classes) + pipeline.get("attempted", 0))
    failed = len(errors) + pipeline.get("failed", 0)
    errors += pipeline.get("errors", [])

    values: dict[str, float] = {}
    if classes:
        values["setup_s"] = statistics.median(s["import_s"] for s in setups) + statistics.median(
            c["setup_s"] for c in classes
        )
        values["dataio.input_bytes"] = statistics.median(c["input_bytes"] for c in classes)
        for key in classes[0].get("layers", {}):
            values[key] = statistics.median(c["layers"][key] for c in classes)
    values.update(pipeline.get("e2e", {}))
    values.update({k: v for k, v in pipeline.get("layers", {}).items() if v is not None})
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            errors.append(f"metric {m['name']} was not measured")
            failed += 1
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "setup": setups,
        **{k: v for k, v in pipeline.items() if k not in ("attempted", "failed", "errors")},
        "values": values,
        "errors": errors,
    }
    with open(os.path.join(work, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, allow_nan=True)
    # Keep spans and the report; every run rebuilds the inputs and estimates.
    shutil.rmtree(os.path.join(work, "estimates"), ignore_errors=True)
    if os.path.isdir(inputs):
        for name in os.listdir(inputs):
            if name.startswith(("class", "truth")):
                os.remove(os.path.join(inputs, name))

    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} operations attempted = {attempted}, failed = {failed}")
    print(f"report: {os.path.relpath(os.path.join(work, 'report.json'), root)}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
