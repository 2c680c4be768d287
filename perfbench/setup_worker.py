"""Set-up of one benchmark run, in a fresh process.

Imports opg, then simulates the classrooms ``--part`` selects and writes each
one's input file (ordinal JSON or cardinal CSV) and truth file into
``--out``. A run starts several of these processes, so the import and the
per-classroom set-up are each measured several times. The import is timed,
so work moved to import time shows. Times are CPU seconds scaled to
reference speed (see speed.py). The last line of standard output is one
JSON object with the measurements.

    python3 perfbench/setup_worker.py --root . --workload paper --seed 1 \\
        --seconds 24 --part 0/3 --out perfbench/_work/x/inputs --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

import tracer as tr
import workloads as wl
from speed import Speedometer


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--part", default="0/1", help="i/n: set up the classrooms whose index is i modulo n")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()
    w = wl.resolve(args.workload, args.toy)
    part, parts = (int(x) for x in args.part.split("/"))
    mine = range(part, w.classrooms(args.seconds), parts)
    os.makedirs(args.out, exist_ok=True)

    start = wl.CLOCK()
    wl.import_opg(args.root)
    from opg import dataio, synth

    imported = wl.CLOCK()
    speed = Speedometer()
    speed.sample()
    tracer = None
    if args.trace:
        tracer = tr.Tracer(f"{args.workload}-{args.seed}-setup{part}-{os.getpid()}")
        tracer.install()
    graders = synth.MallowsGraders(1.0) if w.graders == "mallows" else synth.CardinalNormalGraders(1.0, 0.5)
    classes = {}
    for k in mine:
        cfg = synth.SynthConfig(
            w.n_items, w.n_graders, w.per_grader, graders, seed=wl.classroom_seed(w.name, args.seed, k)
        )
        first_span = len(tracer.spans) if tracer else 0
        speed.sample()
        began = wl.CLOCK()
        data, truth = synth.simulate(cfg)
        input_path = os.path.join(args.out, f"class{k}.{w.fmt}")
        if w.fmt == "json":
            dataio.write_ordinal_json(data, input_path)
        else:
            dataio.write_cardinal_csv(data, input_path)
        dataio.write_estimate(truth, os.path.join(args.out, f"truth{k}.json"))
        entry = {"setup_cpu_s": wl.CLOCK() - began, "input_bytes": os.path.getsize(input_path)}
        for name in (f"class{k}.{w.fmt}", f"truth{k}.json"):
            with open(os.path.join(args.out, name), "rb") as fh:
                entry[name] = hashlib.sha256(fh.read()).hexdigest()
        if tracer is not None:
            setup_spans = tracer.spans[first_span:]
            synth.assign_reviewers(cfg)
            summary = tr.summarize(setup_spans, tracer.spans)
            assign = tr.summarize(tracer.spans[first_span + len(setup_spans):], tracer.spans)
            entry["layers_cpu"] = {
                "synth.busy_s": summary["synth"]["self_s"],
                "synth.simulate_s": summary["synth.simulate"]["self_s"],
                "synth.sample_s": summary.get("synth.sample_mallows_feedback", {}).get("self_s", 0.0),
                "synth.sample_calls": summary.get("synth.sample_mallows_feedback", {}).get("calls", 0),
                "synth.assign_s": assign["synth.assign_reviewers"]["self_s"],
                "dataio.write_input_s": summary["dataio"]["self_s"],
            }
        classes[k] = entry
    if tracer is not None:
        tracer.dump(os.path.join(args.out, f"spans-setup{part}.json"))
    speed.sample()
    scale = speed.scale()
    for entry in classes.values():
        entry["setup_s"] = entry["setup_cpu_s"] * scale
        layers = entry.pop("layers_cpu", {})
        entry["layers"] = {key: value * scale if key.endswith("_s") else value for key, value in layers.items()}
    import_cpu_s = imported - start
    print(json.dumps({
        "import_s": import_cpu_s * scale,
        "import_cpu_s": import_cpu_s,
        "speed": speed.summary(),
        "classrooms": classes,
    }))


if __name__ == "__main__":
    main()
