"""File formats: cardinal CSV, ordinal JSON, estimate and report JSON.

All writers are atomic (temp file + rename) and deterministic: keys are
sorted, floats carry 12 significant digits, and no timestamps are embedded.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from typing import Any

import numpy as np

from .data import Dataset, Estimate, GraderFeedback, induced_ordinal
from .errors import DataFormatError, ValidationError
from .rankings import WeakRanking

__all__ = [
    "parse_cardinal_csv",
    "write_cardinal_csv",
    "parse_ordinal_json",
    "write_ordinal_json",
    "dataset_to_dict",
    "dataset_from_dict",
    "percentile_ranks",
    "estimate_to_dict",
    "write_estimate",
    "read_estimate",
    "read_target_ranking",
    "write_json",
]

_CSV_HEADER = ["grader_id", "item_id", "score"]


def _round12(x: float) -> float:
    # Reported floats are fixed points of the 12-significant-digit writer,
    # so serialize/deserialize round-trips exactly.
    return float(f"{x:.12g}")


def _jsonable(obj: Any) -> Any:
    """Plain JSON types with floats rounded to 12 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (np.floating, float)):
        return _round12(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [_jsonable(v) for v in sorted(obj)]
    return obj


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(payload: Any, path: str) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    _atomic_write_text(path, text)


def parse_cardinal_csv(path: str) -> Dataset:
    """Read grades from a CSV with header exactly ``grader_id,item_id,score``.

    Each (grader, item) pair may appear once; the induced ordinal ranking is
    attached per grader so ordinal methods can run on the same data.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        return _parse_cardinal_rows(csv.reader(fh), path)


def _parse_cardinal_rows(reader: Any, source: str) -> Dataset:
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{source}: empty file, expected header {','.join(_CSV_HEADER)}")
    if header != _CSV_HEADER:
        raise DataFormatError(
            f"{source}: bad header {','.join(header)!r}, expected {','.join(_CSV_HEADER)!r}"
        )
    grades: dict[str, dict[str, float]] = {}
    first_line: dict[tuple[str, str], int] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DataFormatError(f"{source}: line {lineno}: expected 3 fields, got {len(row)}")
        grader, item, raw = (field.strip() for field in row)
        if not grader or not item:
            raise DataFormatError(f"{source}: line {lineno}: empty grader or item id")
        try:
            score = float(raw)
        except ValueError:
            raise DataFormatError(f"{source}: line {lineno}: score {raw!r} is not a number")
        if not math.isfinite(score):
            raise DataFormatError(f"{source}: line {lineno}: score {raw!r} is not finite")
        key = (grader, item)
        if key in first_line:
            raise DataFormatError(
                f"{source}: line {lineno}: duplicate grade for ({grader}, {item}), "
                f"first seen on line {first_line[key]}"
            )
        first_line[key] = lineno
        grades.setdefault(grader, {})[item] = score
    feedback = tuple(
        GraderFeedback.from_cardinal(grader, grades[grader]) for grader in sorted(grades)
    )
    return Dataset.from_feedback(feedback)


def write_cardinal_csv(data: Dataset, path: str) -> None:
    """Write grades as CSV; parsing the file recovers the dataset.

    The format carries grades only, so datasets with lazy labels, ungraded
    roster items, or graders without cardinal feedback are rejected rather
    than silently lossy (use the JSON format for those).
    """
    if not data.has_full_cardinal():
        raise ValidationError("CSV needs cardinal grades from every grader")
    if data.lazy_graders:
        raise ValidationError("CSV cannot record lazy grader labels; use the JSON format")
    graded = {d for fb in data.feedback for d in fb.items}
    if graded != set(data.items):
        raise ValidationError("CSV cannot represent roster items nobody graded")
    if {fb.grader for fb in data.feedback} != set(data.graders):
        raise ValidationError("CSV cannot represent graders without feedback")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for fb in data.feedback:
        for item in fb.items:
            writer.writerow([fb.grader, item, f"{fb.cardinal[item]:.12g}"])
    _atomic_write_text(path, buf.getvalue())


def dataset_to_dict(data: Dataset, config: dict[str, Any] | None = None) -> dict[str, Any]:
    graders_payload = []
    with_feedback = {fb.grader for fb in data.feedback}
    if with_feedback != set(data.graders):
        raise ValidationError("JSON format cannot represent graders without feedback")
    for fb in data.feedback:
        ordinal = fb.ordinal if fb.ordinal is not None else induced_ordinal(fb.cardinal)
        entry: dict[str, Any] = {
            "id": fb.grader,
            "ranking": [list(group) for group in ordinal.groups],
        }
        if fb.cardinal is not None:
            entry["grades"] = {d: fb.cardinal[d] for d in fb.items}
        graders_payload.append(entry)
    out: dict[str, Any] = {"items": list(data.items), "graders": graders_payload}
    if data.lazy_graders:
        out["lazy_graders"] = sorted(data.lazy_graders)
    if config is not None:
        out["config"] = config
    return out


def dataset_from_dict(payload: Any, source: str = "<json>") -> Dataset:
    if not isinstance(payload, dict):
        raise DataFormatError(f"{source}: expected a JSON object at top level")
    items = payload.get("items")
    if not isinstance(items, list) or not all(isinstance(d, str) for d in items):
        raise DataFormatError(f"{source}: 'items' must be a list of id strings")
    if len(set(items)) != len(items):
        raise DataFormatError(f"{source}: duplicate ids in 'items'")
    roster = set(items)
    graders_payload = payload.get("graders")
    if not isinstance(graders_payload, list):
        raise DataFormatError(f"{source}: 'graders' must be a list")
    feedback = []
    for entry in graders_payload:
        if not isinstance(entry, dict) or "id" not in entry or "ranking" not in entry:
            raise DataFormatError(f"{source}: each grader needs 'id' and 'ranking'")
        gid = entry["id"]
        if not isinstance(gid, str) or not gid:
            raise DataFormatError(f"{source}: grader id must be a non-empty string")
        ranking_payload = entry["ranking"]
        if not isinstance(ranking_payload, list) or not all(
            isinstance(g, list) for g in ranking_payload
        ):
            raise DataFormatError(f"{source}: grader {gid}: 'ranking' must be a list of lists")
        try:
            ranking = WeakRanking(tuple(tuple(g) for g in ranking_payload))
        except ValidationError as exc:
            raise DataFormatError(f"{source}: grader {gid}: {exc}")
        unknown = ranking.items - roster
        if unknown:
            raise DataFormatError(f"{source}: grader {gid}: unknown item ids {sorted(unknown)}")
        grades_payload = entry.get("grades")
        if grades_payload is not None:
            if not isinstance(grades_payload, dict):
                raise DataFormatError(f"{source}: grader {gid}: 'grades' must be an object")
            try:
                grades = {str(d): float(v) for d, v in grades_payload.items()}
                fb = GraderFeedback(
                    grader=gid,
                    items=tuple(sorted(ranking.items)),
                    ordinal=ranking,
                    cardinal=grades,
                )
            except (TypeError, ValueError, ValidationError) as exc:
                raise DataFormatError(f"{source}: grader {gid}: {exc}")
        else:
            fb = GraderFeedback.from_ordinal(gid, ranking)
        feedback.append(fb)
    lazy_payload = payload.get("lazy_graders", [])
    if not isinstance(lazy_payload, list) or not all(isinstance(g, str) for g in lazy_payload):
        raise DataFormatError(f"{source}: 'lazy_graders' must be a list of grader ids")
    feedback.sort(key=lambda fb: fb.grader)
    try:
        return Dataset(
            items=tuple(items),
            graders=tuple(sorted(fb.grader for fb in feedback)),
            feedback=tuple(feedback),
            lazy_graders=frozenset(lazy_payload),
        )
    except ValidationError as exc:
        raise DataFormatError(f"{source}: {exc}")


def parse_ordinal_json(path: str) -> Dataset:
    """Read a dataset from the JSON ranking format.

    Shape: ``{"items": [...], "graders": [{"id": ..., "ranking": [[best
    group], ..., [worst group]]}]}`` with optional per-grader ``grades`` and
    a top-level ``lazy_graders`` list.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}")
    return dataset_from_dict(payload, source=path)


def write_ordinal_json(data: Dataset, path: str, config: dict[str, Any] | None = None) -> None:
    write_json(dataset_to_dict(data, config=config), path)


def percentile_ranks(ranking: WeakRanking) -> dict[str, float]:
    """Percentile per item: 100 for the unique best, 0 for the unique worst.

    Tied items share the midrank of their group; a single-item ranking maps
    to 100.
    """
    n = len(ranking)
    if n == 0:
        return {}
    if n == 1:
        return {next(iter(ranking.items)): 100.0}
    out: dict[str, float] = {}
    offset = 0
    for group in ranking.groups:
        midrank = offset + (len(group) + 1) / 2.0
        pct = 100.0 * (n - midrank) / (n - 1)
        for d in group:
            out[d] = pct
        offset += len(group)
    return out


def estimate_to_dict(est: Estimate, config: dict[str, Any] | None = None) -> dict[str, Any]:
    out: dict[str, Any] = {
        "ranking": [list(group) for group in est.ranking.groups],
        "percentiles": percentile_ranks(est.ranking),
        "metadata": dict(est.metadata),
    }
    if est.scores is not None:
        out["scores"] = {d: est.scores[d] for d in sorted(est.scores)}
    if est.reliabilities is not None:
        out["reliabilities"] = {g: est.reliabilities[g] for g in sorted(est.reliabilities)}
    if config is not None:
        out["config"] = config
    return out


def write_estimate(est: Estimate, path: str, config: dict[str, Any] | None = None) -> None:
    write_json(estimate_to_dict(est, config=config), path)


def read_estimate(path: str) -> Estimate:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}")
    if not isinstance(payload, dict) or "ranking" not in payload:
        raise DataFormatError(f"{path}: expected an object with a 'ranking' key")
    try:
        ranking = WeakRanking(tuple(tuple(g) for g in payload["ranking"]))
        scores = payload.get("scores")
        reliabilities = payload.get("reliabilities")
        return Estimate(
            ranking=ranking,
            scores={str(k): float(v) for k, v in scores.items()} if scores else None,
            reliabilities=(
                {str(k): float(v) for k, v in reliabilities.items()} if reliabilities else None
            ),
            metadata=dict(payload.get("metadata", {})),
        )
    except (TypeError, ValueError, ValidationError) as exc:
        raise DataFormatError(f"{path}: {exc}")


def read_target_ranking(path: str) -> WeakRanking:
    """Ranking from any JSON file carrying a 'ranking' key (estimates included)."""
    return read_estimate(path).ranking
