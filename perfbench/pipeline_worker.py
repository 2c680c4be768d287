"""Timed pipeline of one benchmark run, in a fresh process.

For every classroom the set-up wrote: read the truth, parse the input, then
per model fit -> write the estimate -> read it back -> score it against the
truth, and run the workload's bootstrap studies. All calls go through opg's
public functions, one after another, with no warm-up before the first. Every
classroom is parsed afresh, so nothing cached on a Dataset carries over.

Times are CPU seconds scaled to reference speed (see speed.py), summed per
classroom and averaged over the run's classrooms. After the first classroom
its whole pipeline runs once more, untimed, to check that every fit and
bootstrap study repeats its answers byte for byte.

Each classroom is checked as soon as it is done and then dropped, except the
first, which the probes behind the per-layer metrics of ``--trace 1`` use
after the loop. The last line of standard output is one JSON object.

    python3 perfbench/pipeline_worker.py --root . --workload paper --seed 1 \\
        --seconds 24 --inputs perfbench/_work/x/inputs --out perfbench/_work/x --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import tracer as tr
import workloads as wl
from speed import Speedometer

IO_KINDS = {"truth", "parse", "write", "read"}
FIT_KINDS = {"fit", "boot"}
ALL_KINDS = IO_KINDS | FIT_KINDS | {"eval"}
MALLOWS = {m for m, family in wl.FAMILIES.items() if family == "mallows"}


@dataclass
class Op:
    kind: str  # truth, parse, fit, write, read, eval, boot; probe runs after the loop
    layer: str
    model: str | None
    classroom: int
    repeat: bool
    start: float = 0.0  # CPU clock
    end: float = 0.0
    seconds: float = 0.0  # CPU time at reference speed, once Ledger.normalize has run
    error: str | None = None

    @property
    def cpu(self) -> float:
        return self.end - self.start


@dataclass
class Fit:
    est: Any
    fit_op: Op
    path: str
    write_op: Op
    back: Any
    read_op: Op
    ek: float | None
    eval_op: Op


@dataclass
class Pass:
    """One pass of the pipeline over one classroom."""

    classroom: int
    repeat: bool = False
    start: float = 0.0  # CPU clock
    end: float = 0.0
    wall: float = 0.0  # wall seconds of the pass
    data: Any = None
    truth: Any = None
    fits: dict[str, Fit] = field(default_factory=dict)
    boots: dict[str, tuple[Any, Op]] = field(default_factory=dict)


class Ledger:
    """Every operation attempted, its time, and whether it or its check failed."""

    def __init__(self, speed: Speedometer) -> None:
        self.ops: list[Op] = []
        self.speed = speed

    def run(self, kind: str, layer: str, model: str | None, where: Pass, fn, *args, **kwargs):
        op = Op(kind, layer, model, where.classroom, where.repeat)
        self.ops.append(op)
        self.speed.tick()
        op.start = wl.CLOCK()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            result = None
            op.error = f"{type(exc).__name__}: {exc}"
        op.end = wl.CLOCK()
        return result, op

    def normalize(self) -> None:
        """Scale every operation's CPU time to reference speed."""
        scale = self.speed.scale()
        for op in self.ops:
            op.seconds = op.cpu * scale

    def skip(self, kind: str, layer: str, model: str | None, where: Pass, reason: str) -> None:
        self.ops.append(Op(kind, layer, model, where.classroom, where.repeat, error=f"not run: {reason}"))

    @staticmethod
    def check(op: Op, ok: bool, message: str) -> None:
        if not ok and op.error is None:
            op.error = f"check failed: {message}"

    def per_classroom(self, classrooms: int, kinds: set[str], models: set[str] | None = None) -> list[float]:
        """Per classroom, the summed time of its timed operations of the given kinds."""
        totals = [0.0] * classrooms
        for op in self.ops:
            if not op.repeat and op.kind in kinds and (models is None or op.model in models):
                totals[op.classroom] += op.seconds
        return totals


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def run_pass(w: wl.Workload, p: Pass, seed: int, opg, inputs: str, estimates_dir: str, ledger: Ledger) -> None:
    """One classroom through the pipeline. Functions are looked up at call time, so traced runs call the wrappers."""
    dataio, estimators, experiments, metrics = opg.dataio, opg.estimators, opg.experiments, opg.metrics
    parse = dataio.parse_ordinal_json if w.fmt == "json" else dataio.parse_cardinal_csv
    k = p.classroom
    p.wall = -time.perf_counter()
    p.start = wl.CLOCK()
    p.truth, _ = ledger.run("truth", "dataio", None, p, dataio.read_target_ranking, os.path.join(inputs, f"truth{k}.json"))
    p.data, _ = ledger.run("parse", "dataio", None, p, parse, os.path.join(inputs, f"class{k}.{w.fmt}"))
    ready = p.data is not None and p.truth is not None
    for m in w.models:
        est = None
        if ready:
            est, fit_op = ledger.run("fit", "estimators", m, p, estimators.fit_model, m, p.data)
        else:
            ledger.skip("fit", "estimators", m, p, "no input")
        if est is None:
            for kind, layer in (("write", "dataio"), ("read", "dataio"), ("eval", "metrics")):
                ledger.skip(kind, layer, m, p, "no estimate")
            continue
        path = os.path.join(estimates_dir, f"c{k}-{'r' if p.repeat else 'f'}-{m}.json")
        _, write_op = ledger.run("write", "dataio", m, p, dataio.write_estimate, est, path)
        back, read_op = ledger.run("read", "dataio", m, p, dataio.read_estimate, path)
        ek, eval_op = ledger.run("eval", "metrics", m, p, metrics.ek_error, [p.truth], est.ranking)
        p.fits[m] = Fit(est, fit_op, path, write_op, back, read_op, ek, eval_op)
    for m in w.boot_models:
        if ready:
            p.boots[m] = ledger.run(
                "boot", "experiments", m, p, experiments.bootstrap_ek,
                p.data, m, [p.truth], reps=w.reps, seed=seed,
            )
        else:
            ledger.skip("boot", "experiments", m, p, "no input")
    p.end = wl.CLOCK()
    p.wall += time.perf_counter()


def check_pass(p: Pass, base: Pass, ledger: Ledger) -> None:
    """The output checks of one pass; a repeated pass must also give the first one's answers byte for byte."""
    for m, f in p.fits.items():
        ledger.check(f.fit_op, f.est.ranking.items == frozenset(p.data.items), f"{m} ranks other items than the dataset")
        if f.back is not None:
            ledger.check(f.read_op, f.back.ranking == f.est.ranking, f"{m} estimate read back differs")
        if f.ek is not None:
            ledger.check(f.eval_op, 0.0 <= f.ek < 50.0, f"{m} E_K {f.ek} not in [0, 50)")
        if p is not base and m in base.fits and f.write_op.error is None and base.fits[m].write_op.error is None:
            with open(f.path, "rb") as a, open(base.fits[m].path, "rb") as b:
                ledger.check(f.fit_op, a.read() == b.read(), f"a repeated {m} fit wrote different bytes")
    for m, (result, op) in p.boots.items():
        if result is not None:
            ledger.check(op, 0.0 <= result[0] < 50.0, f"{m} bootstrap E_K {result[0]} not in [0, 50)")
            if p is not base and m in base.boots:
                ledger.check(op, result == base.boots[m][0], f"a repeated {m} bootstrap gave other numbers")


def release(p: Pass) -> None:
    """Drop a checked pass's dataset and estimates, so memory is that of one classroom at a time."""
    p.data = p.truth = None
    for f in p.fits.values():
        f.est = f.back = None


def scored(w: wl.Workload, p: Pass) -> dict[str, float]:
    """E_K per model of one pass: the bootstrap mean where the workload bootstraps, else the fit's."""
    if w.boot_models:
        return {m: r[0] for m, (r, _) in p.boots.items() if r is not None}
    return {m: f.ek for m, f in p.fits.items() if f.ek is not None}


def end_to_end(w: wl.Workload, passes: list[Pass], ledger: Ledger) -> dict[str, float]:
    def per_class(kinds: set[str], models: set[str] | None = None) -> float:
        return statistics.fmean(ledger.per_classroom(len(passes), kinds, models))

    def ek(family: str | None) -> float:
        return _mean(
            _mean(v for m, v in scored(w, p).items() if family is None or wl.FAMILIES[m] == family) for p in passes
        )

    return {
        "pipeline_s": per_class(ALL_KINDS),
        "io_s": per_class(IO_KINDS),
        "fit_s": per_class(FIT_KINDS),
        "fit_s.mallows": per_class(FIT_KINDS, MALLOWS),
        "ek": ek(None),
        "ek.mallows": ek("mallows"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_model(w: wl.Workload, passes: list[Pass], ledger: Ledger) -> dict[str, dict[str, float]]:
    """Per model: fit and bootstrap time per classroom, and mean E_K."""
    n = len(passes)
    out = {}
    for m in w.models + tuple(b for b in w.boot_models if b not in w.models):
        entry = {"family": wl.FAMILIES[m]}
        if m in w.models:
            entry["fit_s"] = statistics.fmean(ledger.per_classroom(n, {"fit"}, {m}))
            entry["ek"] = _mean(p.fits[m].ek for p in passes if m in p.fits and p.fits[m].ek is not None)
        if m in w.boot_models:
            entry["bootstrap_s"] = statistics.fmean(ledger.per_classroom(n, {"boot"}, {m}))
            entry["bootstrap_ek"] = _mean(p.boots[m][0][0] for p in passes if p.boots.get(m, (None,))[0] is not None)
        out[m] = entry
    return out


def per_family(w: wl.Workload, passes: list[Pass], ledger: Ledger) -> dict[str, dict[str, float]]:
    """Per model family: fit and bootstrap time per classroom, and mean E_K of each."""
    out = {}
    for family in sorted({wl.FAMILIES[m] for m in w.models + w.boot_models}):
        models = {m for m, f in wl.FAMILIES.items() if f == family}
        out[family] = {"fit_s": statistics.fmean(ledger.per_classroom(len(passes), FIT_KINDS, models))}
        if models & set(w.models):
            out[family]["ek"] = _mean(_mean(f.ek for m, f in p.fits.items() if m in models) for p in passes)
        if models & set(w.boot_models):
            out[family]["bootstrap_ek"] = _mean(
                _mean(r[0] for m, (r, _) in p.boots.items() if m in models and r is not None) for p in passes
            )
    return out


def per_layer(
    w: wl.Workload, passes: list[Pass], spans: list[tr.Span], kemenize: Counter, speed: Speedometer
) -> dict[str, float]:
    """Per-layer metrics of the timed passes, per classroom, averaged over classrooms."""
    cost = tr.per_call_cost()
    scale = speed.scale()
    rows: list[dict[str, float]] = []
    for p in passes:
        mine = [s for s in spans if p.start <= s.start < p.end]
        summary = tr.summarize(mine, spans)

        def self_s(*keys: str) -> float:
            return scale * sum(summary.get(key, {}).get("self_s", 0.0) for key in keys)

        def calls(key: str) -> int:
            return summary.get(key, {}).get("calls", 0)

        rows.append({
            "dataio.parse_s": self_s("dataio.parse_ordinal_json", "dataio.parse_cardinal_csv"),
            "dataio.write_estimate_s": self_s("dataio.write_estimate"),
            "dataio.read_estimate_s": self_s("dataio.read_estimate", "dataio.read_target_ranking"),
            "dataio.estimate_bytes": sum(os.path.getsize(f.path) for f in p.fits.values() if f.write_op.error is None),
            "estimators.fit_s": scale * sum(s.duration for s in mine if s.name == "estimators.fit_model"),
            "estimators.fit_calls": calls("estimators.fit_model"),
            "mallows.busy_s": self_s("mallows"),
            "mallows.greedy_s": self_s("mallows.greedy_mle_ranking"),
            "mallows.greedy_calls": calls("mallows.greedy_mle_ranking"),
            "mallows.borda_s": self_s("mallows.borda_ranking"),
            "mallows.reliability_s": self_s("mallows.fit_reliabilities"),
            "mallows.kemenize_s": self_s("mallows.local_kemenization"),
            "mallows.kemenize_calls": calls("mallows.local_kemenization"),
            "scoremodels.busy_s": self_s("scoremodels"),
            "scoremodels.fit_calls": calls("scoremodels.fit"),
            "cardinal.busy_s": self_s("cardinal"),
            "cardinal.fit_calls": calls("cardinal"),
            "metrics.ek_s": self_s("metrics.ek_error"),
            "metrics.ek_calls": calls("metrics.ek_error"),
            "experiments.self_s": self_s("experiments.bootstrap_ek"),
            "experiments.reps": sum(w.reps for r, _ in p.boots.values() if r is not None),
            "trace.spans": len(mine),
            "trace.overhead_s": len(mine) * cost * scale,
            # CPU time of the pass outside every top-level span: the benchmark's own bookkeeping and kernel samples.
            "trace.unaccounted_s": scale * ((p.end - p.start) - sum(s.duration for s in mine if s.parent is None)),
        })
    layers = {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}
    layers["mallows.kemenize_moved"] = kemenize["moved"] / len(passes)
    return layers


def dataset_build(p: Pass, opg, ledger: Ledger) -> Op:
    """One extra ``Dataset.from_feedback`` over a pass's parsed feedback, outside the pass."""
    return ledger.run("probe", "data", None, p, opg.data.Dataset.from_feedback, p.data.feedback, items=p.data.items)[1]


def probes(p: Pass, opg, ledger: Ledger) -> tuple[dict, dict, dict[str, Op]]:
    """Measured after the loop: per-layer values, per-model quality at the fitted points of one pass, and timed probes."""
    layers: dict[str, float | None] = {}
    quality: dict[str, float] = {}
    timed: dict[str, Op] = {}
    if p.data is None or p.truth is None or not p.fits:
        return layers, quality, timed
    for m, f in p.fits.items():
        key, est = m.replace("+", "_"), f.est
        if wl.FAMILIES[m] in ("pairwise", "listwise", "mals"):
            obj, op = ledger.run(
                "probe", "scoremodels", m, p, opg.scoremodels.negative_log_posterior,
                m.split("+")[0], p.data, est.scores, est.reliabilities,
            )
            if obj is not None:
                timed[f"scoremodels.objective_s.{key}"] = op
                quality[f"scoremodels.objective.{key}"] = obj.value
                quality[f"scoremodels.grad_norm.{key}"] = math.sqrt(sum(g * g for g in obj.score_gradient.values()))
        elif m in ("mal", "mal+g", "mal+k", "mal+kg"):
            params = opg.mallows.MallowsParams(est.reliabilities)
            cost, _ = ledger.run("probe", "mallows", m, p, opg.mallows.weighted_kendall_cost, est.ranking, p.data, params)
            if cost is not None:
                quality[f"mallows.kemeny_cost.{key}"] = cost
    tracemalloc.start()
    try:
        ledger.run("probe", "metrics", None, p, opg.metrics.ek_error, [p.truth], next(iter(p.fits.values())).est.ranking)
        layers["metrics.ek_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    for key in ("scoremodels.objective.bt", "scoremodels.grad_norm.bt", "mallows.kemeny_cost.mal"):
        layers[key] = quality.get(key)
    return layers, quality, timed


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()
    w = wl.resolve(args.workload, args.toy)
    seeds = [wl.classroom_seed(w.name, args.seed, k) for k in range(w.classrooms(args.seconds))]
    estimates_dir = os.path.join(args.out, "estimates")
    os.makedirs(estimates_dir, exist_ok=True)

    opg = wl.import_opg(args.root)
    import numpy
    import scipy

    tracer = None
    kemenize = Counter()
    if args.trace:

        def observe_kemenization(call_args, result) -> None:
            kemenize["moved"] += result != call_args[0]

        tracer = tr.Tracer(f"{args.workload}-{args.seed}-pipeline-{os.getpid()}")
        tracer.install({"mallows.local_kemenization": observe_kemenization})

    ledger = Ledger(Speedometer())
    passes: list[Pass] = []
    builds: list[Op] = []
    for k, seed in enumerate(seeds):
        p = Pass(k)
        run_pass(w, p, seed, opg, args.inputs, estimates_dir, ledger)
        check_pass(p, p, ledger)
        if tracer is not None and p.data is not None:
            builds.append(dataset_build(p, opg, ledger))
        passes.append(p)
        if k == 0:
            again = Pass(k, repeat=True)
            held = kemenize["moved"]
            run_pass(w, again, seed, opg, args.inputs, estimates_dir, ledger)
            kemenize["moved"] = held  # per-layer counts are of timed passes only
            check_pass(again, p, ledger)
            release(again)
        else:
            release(p)
    loop_spans = [] if tracer is None else list(tracer.spans)
    if tracer is not None:
        probe_layers, quality, timed = probes(passes[0], opg, ledger)
    ledger.speed.sample()
    ledger.normalize()

    out: dict[str, Any] = {
        "classrooms": len(seeds),
        "seeds": seeds,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "usable_cpus": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in (*wl.THREAD_ENV, "OPG_THREADS")},
        },
        "speed": ledger.speed.summary(),
        "pass_cpu_s": [p.end - p.start for p in passes],
        "pass_wall_s": [p.wall for p in passes],
        "classroom_pipeline_s": ledger.per_classroom(len(passes), ALL_KINDS),
        "e2e": end_to_end(w, passes, ledger),
        "models": per_model(w, passes, ledger),
        "families": per_family(w, passes, ledger),
        "reps_per_s": len(w.boot_models) * w.reps / statistics.fmean(ledger.per_classroom(len(passes), {"boot"}))
        if w.boot_models
        else None,
    }
    if tracer is not None:
        out["layers"] = per_layer(w, passes, loop_spans, kemenize, ledger.speed)
        # pipeline_s as a traced run measures it; minus the untraced figure, it is the tracing overhead.
        out["layers"]["trace.pipeline_s"] = out["e2e"]["pipeline_s"]
        quality.update({key: op.seconds for key, op in timed.items()})
        out["quality"] = quality
        out["layers"].update(probe_layers)
        out["layers"]["scoremodels.objective_s"] = quality.get("scoremodels.objective_s.bt")
        out["layers"]["data.dataset_build_s"] = statistics.fmean(op.seconds for op in builds) if builds else None
        tracer.dump(os.path.join(args.out, "spans-pipeline.json"))

    failed = [op for op in ledger.ops if op.error is not None]
    out["attempted"] = len(ledger.ops)
    out["failed"] = len(failed)
    out["failed_by_layer"] = dict(Counter(op.layer for op in failed))
    out["errors"] = [
        f"{op.kind} {op.model or ''} classroom {op.classroom}{' (repeat)' if op.repeat else ''}: {op.error}"
        for op in failed
    ][:20]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
