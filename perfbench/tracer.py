"""Spans around opg's public functions, recorded from outside the package.

``Tracer.install`` replaces each named function, in every ``opg`` module
namespace that refers to it, with a wrapper that records one span per call:
name, start, end (CPU time, ``workloads.CLOCK``), parent span and the
tracer's run id. Spans stay in memory
until ``dump`` writes them out. Self time is a span's duration minus the
time of its child spans; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from collections.abc import Callable, Iterable
from typing import Any

from workloads import CLOCK

# Public functions wrapped per layer (the module of the same name in opg).
TRACED: dict[str, tuple[str, ...]] = {
    "synth": ("simulate", "assign_reviewers", "sample_mallows_feedback"),
    "dataio": (
        "parse_ordinal_json",
        "parse_cardinal_csv",
        "write_ordinal_json",
        "write_cardinal_csv",
        "write_estimate",
        "read_estimate",
        "read_target_ranking",
    ),
    "estimators": ("fit_model",),
    "mallows": (
        "fit_mallows",
        "greedy_mle_ranking",
        "borda_ranking",
        "local_kemenization",
        "fit_reliabilities",
        "weighted_kendall_cost",
    ),
    "scoremodels": ("fit", "negative_log_posterior"),
    "cardinal": ("scavg", "ncs_fit"),
    "metrics": ("ek_error",),
    "experiments": ("bootstrap_ek",),
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "error")

    def __init__(self, span_id: int, parent: int | None, name: str):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.error: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Callable[[tuple, Any], None] | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, CLOCK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name)
            spans.append(span)
            stack.append(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self, observers: dict[str, Callable[[tuple, Any], None]] | None = None) -> None:
        """Wrap every function in ``TRACED`` wherever an opg module refers to it."""
        observers = observers or {}
        modules = [m for n, m in list(sys.modules.items()) if n == "opg" or n.startswith("opg.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"opg.{layer}"]
            for attr in names:
                original = getattr(module, attr)
                wrapped = self.wrap(f"{layer}.{attr}", original, observers.get(f"{layer}.{attr}"))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        dataset = sys.modules["opg.data"].Dataset
        build = dataset.__dict__["from_feedback"].__func__
        dataset.from_feedback = classmethod(self.wrap("data.from_feedback", build))

    def dump(self, path: str) -> None:
        rows = [
            {
                "run": self.run_id,
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "error": s.error,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the summed duration of its children."""
    child: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child.get(s.id, 0.0) for s in spans}


def summarize(spans: Iterable[Span], all_spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name and per layer: call count and summed self time."""
    selfs = self_times(all_spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        for key in (s.name, s.layer):
            entry = out.setdefault(key, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += selfs[s.id]
    return out


def per_call_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds, measured on a no-op function."""

    def noop() -> None:
        return None

    probe = Tracer("calibration").wrap("probe.noop", noop)
    clock = CLOCK
    start = clock()
    for _ in range(calls):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(calls):
        probe()
    return max(0.0, (clock() - start - bare) / calls)
