"""Command-line interface: estimate, evaluate, simulate, experiment."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Any

from . import dataio, experiments
from .data import Dataset
from .errors import ValidationError
from .estimators import MODEL_NAMES, ModelOptions, fit_model
from .metrics import TargetSet, cardinal_errors, ek_error
from .synth import CardinalNormalGraders, MallowsGraders, SynthConfig, simulate

__all__ = ["main"]

# Each protocol and its repetitions when --reps is not given.
_EXPERIMENTS = {
    "bootstrap": 1000,
    "self_consistency": 20,
    "downsample": 20,
    "lazy_identification": 50,
    "lazy_heuristic": 50,
    "robustness": 20,
    "time": 3,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opg", description="Ordinal peer grading toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--input", required=True)
    fitting.add_argument("--format", choices=("ordinal", "cardinal"), default=None)
    fitting.add_argument("--seed", type=int, default=0)
    fitting.add_argument("--iterations", type=int, default=10, help=(
        "alternating reliability rounds of mal+g, malbc+g, mal+kg and ncs+g; ncs+g runs "
        "exactly this many; mal+g, malbc+g and mal+kg run at most this many and stop, "
        "converged, at the first round whose ranking step finds no descent; bt+g, "
        "thur+g, pl+g and mals+g have no rounds"
    ))
    fitting.add_argument("--tie-epsilon", type=float, default=1e-9)
    fitting.add_argument("--output", default=None)

    est = sub.add_parser("estimate", parents=[fitting], help="fit a model and write its estimate")
    est.add_argument("--model", required=True, choices=MODEL_NAMES)
    est.set_defaults(func=_cmd_estimate)

    ev = sub.add_parser("evaluate", help="score a predicted ranking against targets")
    ev.add_argument("--input", required=True, help="predicted estimate JSON")
    ev.add_argument("--target", action="append", required=True, help="target file (repeatable)")
    ev.add_argument("--output", default=None)
    ev.set_defaults(func=_cmd_evaluate)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset plus ground truth")
    sim.add_argument("--items", type=int, default=40)
    sim.add_argument("--graders", type=int, default=150)
    sim.add_argument("--items-per-grader", type=int, default=7)
    sim.add_argument(
        "--grader-model",
        default="mallows:1.0",
        help="mallows:ETA or normal:ETA[:BIAS_STD]",
    )
    sim.add_argument("--lazy-count", type=int, default=0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--format", choices=("ordinal", "cardinal"), default="ordinal")
    sim.add_argument("--output", required=True)
    sim.add_argument("--truth-output", default=None)
    sim.set_defaults(func=_cmd_simulate)

    exp = sub.add_parser("experiment", parents=[fitting], help="run an evaluation protocol")
    exp.add_argument("--name", required=True, choices=_EXPERIMENTS)
    exp.add_argument("--model", required=True, help="model name (comma-separated for 'time')")
    exp.add_argument("--target", action="append", default=None)
    exp.add_argument("--reps", type=int, help=f"repetitions, at least 1; default by --name: {_EXPERIMENTS}")
    exp.add_argument("--lazy-count", type=int, default=10)
    exp.add_argument("--axis", choices=("reviewers", "items_per_reviewer"), default=None)
    exp.add_argument("--levels", default=None, help="comma-separated level values")
    exp.add_argument("--bottom-k", type=int, default=None)
    exp.set_defaults(func=_cmd_experiment)
    return parser


def _options(args: argparse.Namespace) -> ModelOptions:
    return ModelOptions(seed=args.seed, iterations=args.iterations, tie_epsilon=args.tie_epsilon)


def _load_dataset(path: str, fmt: str | None) -> tuple[Dataset, str]:
    """The dataset at ``path`` and the format it was read as; without ``fmt``, a ``.csv`` is cardinal."""
    if fmt is None:
        fmt = "cardinal" if path.lower().endswith(".csv") else "ordinal"
    if fmt == "cardinal":
        return dataio.parse_cardinal_csv(path), fmt
    return dataio.parse_ordinal_json(path), fmt


def _emit(payload: dict[str, Any], output: str | None) -> None:
    if output is None:
        print(dataio._json_text(payload))
    else:
        dataio.write_json(payload, output)


def _cmd_estimate(args: argparse.Namespace) -> int:
    data, fmt = _load_dataset(args.input, args.format)
    options = _options(args)
    est = fit_model(args.model, data, options)
    config = {
        "command": "estimate",
        "model": args.model,
        "input": args.input,
        "format": fmt,
        "seed": args.seed,
        "iterations": args.iterations,
        "tie_epsilon": args.tie_epsilon,
        "score_prior": dataclasses.asdict(options.score_prior),
        "reliability_prior": dataclasses.asdict(options.reliability_prior),
    }
    payload = dataio.estimate_to_dict(est, config=config)
    _emit(payload, args.output)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    predicted = dataio.read_estimate(args.input)
    target_estimates = [dataio.read_estimate(t) for t in args.target]
    targets = TargetSet(tuple(t.ranking for t in target_estimates))
    ek = ek_error(targets, predicted.ranking)
    result: dict[str, Any] = {
        "e_k": ek,
        "config": {"command": "evaluate", "input": args.input, "targets": list(args.target)},
    }
    if predicted.scores is not None:
        same = [t.scores for t in target_estimates if t.scores is not None and set(t.scores) == set(predicted.scores)]
        errors = [cardinal_errors(predicted.scores, scores) for scores in same]
        if errors:
            result["mae"] = sum(mae for mae, _ in errors) / len(errors)
            result["rmse"] = sum(rmse for _, rmse in errors) / len(errors)
    # Every figure is computed first, so that a failing one prints and writes nothing.
    print(f"E_K: {dataio._round12(ek)!r}")
    for key in ("mae", "rmse"):
        if key in result:
            print(f"{key.upper()}: {dataio._round12(result[key])!r}")
    if args.output:
        dataio.write_json(result, args.output)
    return 0


def _parse_grader_model(text: str) -> MallowsGraders | CardinalNormalGraders:
    parts = text.split(":")
    try:
        if parts[0] == "mallows" and len(parts) <= 2:
            return MallowsGraders(eta=float(parts[1]) if len(parts) == 2 else 1.0)
        if parts[0] == "normal" and len(parts) <= 3:
            return CardinalNormalGraders(
                eta=float(parts[1]) if len(parts) >= 2 else 1.0,
                bias_std=float(parts[2]) if len(parts) == 3 else 0.0,
            )
    except ValueError:
        pass
    raise ValidationError(
        f"bad --grader-model {text!r}; expected mallows:ETA or normal:ETA[:BIAS_STD]"
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = SynthConfig(
        n_items=args.items,
        n_graders=args.graders,
        items_per_grader=args.items_per_grader,
        grader_model=_parse_grader_model(args.grader_model),
        n_lazy=args.lazy_count,
        seed=args.seed,
    )
    data, truth = simulate(cfg)
    config = {
        "command": "simulate",
        "items": args.items,
        "graders": args.graders,
        "items_per_grader": args.items_per_grader,
        "grader_model": args.grader_model,
        "lazy_count": args.lazy_count,
        "seed": args.seed,
        "format": args.format,
    }
    if args.format == "cardinal":
        dataio.write_cardinal_csv(data, args.output)
    else:
        dataio.write_ordinal_json(data, args.output, config=config)
    if args.truth_output:
        dataio.write_estimate(truth, args.truth_output, config=config)
    return 0


def _parse_levels(text: str | None) -> list[int]:
    if not text:
        raise ValidationError("--levels is required for the downsample experiment")
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"bad --levels {text!r}; expected comma-separated integers")


def _cmd_experiment(args: argparse.Namespace) -> int:
    data, _ = _load_dataset(args.input, args.format)
    options = _options(args)
    targets: TargetSet | None = None
    if args.target:
        targets = TargetSet(tuple(dataio.read_target_ranking(t) for t in args.target))

    def need_targets() -> TargetSet:
        if targets is None:
            raise ValidationError(f"experiment {args.name!r} requires --target")
        return targets

    name, model, seed = args.name, args.model, args.seed
    reps = _EXPERIMENTS[name] if args.reps is None else args.reps
    params: dict[str, Any] = {
        "input": args.input,
        "iterations": args.iterations,
        "tie_epsilon": args.tie_epsilon,
        "partitions" if name == "self_consistency" else "reps": reps,
    }
    if name == "bootstrap":
        mean, std = experiments.bootstrap_ek(data, model, need_targets(), reps, seed, options)
        report_kwargs: dict[str, Any] = {"ek_mean": mean, "ek_std": std}
    elif name == "self_consistency":
        mean, std = experiments.self_consistency(data, model, reps, seed, options)
        report_kwargs = {"ek_mean": mean, "ek_std": std}
    elif name == "downsample":
        if args.axis is None:
            raise ValidationError("experiment 'downsample' requires --axis")
        levels = _parse_levels(args.levels)
        curve = experiments.downsample_curve(
            data, model, args.axis, levels, need_targets(), reps, seed, options
        )
        report_kwargs = {"curve": curve}
        params.update({"axis": args.axis, "levels": levels})
    elif name in ("lazy_identification", "lazy_heuristic"):
        fn = (
            experiments.lazy_identification
            if name == "lazy_identification"
            else experiments.lazy_identification_heuristic
        )
        rate = fn(data, model, args.bottom_k, reps, seed, options)
        report_kwargs = {"identification_rate": rate}
        params["bottom_k"] = args.bottom_k
    elif name == "robustness":
        deltas = experiments.robustness_delta(
            data, model, [args.lazy_count], need_targets(), reps, seed, options
        )
        report_kwargs = {"deltas": deltas}
        params["lazy_counts"] = [args.lazy_count]
    else:  # time
        methods = [m for m in model.split(",") if m]
        runtimes = experiments.time_methods(data, methods, reps, options)
        report_kwargs = {"runtimes": runtimes}
    report = experiments.ExperimentReport(
        experiment=name, method=model, seed=seed, params=params, **report_kwargs
    )
    _emit(report.to_dict(), args.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
