"""File formats: cardinal CSV, ordinal JSON, estimate and report JSON.

All writers are atomic (temp file + rename) and deterministic: keys are
sorted, floats carry 12 significant digits, and no timestamps are embedded.
Every JSON file and the CLI's printed JSON come from one writer, which builds
the text in one pass and lays it out exactly as
``json.dumps(..., indent=2, sort_keys=True)`` would.

A float is written as ``json`` writes the float rounded to 12 significant
digits, ``repr(float("%.12g" % x))``, but from the text of ``"%.12g" % x``
alone: two decimals of at most 15 significant digits never round to the same
double, so ``repr`` prints the same digits, and only the notation can differ.
Integer-looking text gains ``.0`` and ``nan``/``inf`` become ``NaN``/
``Infinity``. Two cases still take the round trip through ``float``: decimal
exponents 12 to 15, which ``%.12g`` writes in exponent notation and ``repr``
does not (999999999999.5 is ``1e+12`` against ``1000000000000.0``), and
exponents of -308 and below, where subnormal doubles hold fewer digits
(``5e-324``).
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import os
import tempfile
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
from typing import Any

import numpy as np

from .data import Dataset, Estimate, FeedbackArrays, GraderFeedback, induced_ordinal
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
    return float("%.12g" % x)


_quote = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(x: float) -> str:
    """``x`` rounded to 12 significant digits, as ``json`` writes a float (see the module docstring)."""
    text = "%.12g" % x
    if "e" in text:
        exponent = int(text.partition("e")[2])
        return float.__repr__(float(text)) if 12 <= exponent <= 15 or exponent <= -308 else text
    if "." in text:
        return text
    return _FLOAT_WORDS.get(text) or text + ".0"


def _json_text(obj: Any, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` in one pass from the indent ``newline``, floats by ``_number``."""
    inner = newline + "  "
    if not isinstance(obj, (list, tuple)):  # tested first: a ranking is a list of tie-group lists
        if isinstance(obj, str):
            return _quote(obj)
        if obj is None:
            return "null"
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, (float, np.floating)):
            return _number(float(obj))
        if isinstance(obj, (int, np.integer)):
            return int.__repr__(int(obj))
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            if set(map(type, obj)) != {str}:
                obj = {str(k): v for k, v in obj.items()}
            flat = set(map(type, obj.values())) == {float}
            body = [f"{_quote(k)}: {_number(obj[k]) if flat else _json_text(obj[k], inner)}" for k in sorted(obj)]
            return "{" + inner + ("," + inner).join(body) + newline + "}"
        if not isinstance(obj, (set, frozenset)):
            raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
        obj = sorted(obj)
    if not obj:
        return "[]"
    kinds = set(map(type, obj))
    if kinds == {str}:
        body = ("," + inner).join(map(_quote, obj))
    elif kinds == {list} and set(map(len, obj)) == {1} and set(map(type, members := [v[0] for v in obj])) == {str}:
        # One-string lists, as every total-order ranking is: each one's text is "[", its quoted member, "]".
        deeper = inner + "  "
        body = "[" + deeper + (inner + "]," + inner + "[" + deeper).join(map(_quote, members)) + inner + "]"
    else:
        body = ("," + inner).join([_json_text(v, inner) for v in obj])
    return "[" + inner + body + newline + "]"


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
    _atomic_write_text(path, _json_text(payload) + "\n")


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


def _ranking(groups: Any) -> WeakRanking:
    """A parsed JSON ranking, a list of tie-group lists; one-item groups take
    ``from_order``, which raises the constructor's errors."""
    if not isinstance(groups, list) or not all(map(isinstance, groups, repeat(list))):
        raise ValidationError("'ranking' must be a list of lists")
    if set(map(len, groups)) <= {1}:
        return WeakRanking.from_order([g[0] for g in groups])
    return WeakRanking(tuple(tuple(g) for g in groups))


def dataset_from_dict(payload: Any, source: str = "<json>") -> Dataset:
    """The dataset of a parsed JSON payload (see ``parse_ordinal_json``).

    A payload of plain JSON types is checked in bulk and its rankings are
    compiled straight into the dataset's ``feedback_arrays``; the per-grader
    ``feedback`` records are built from them, with any grades, only when
    something reads ``Dataset.feedback``, as a protocol's grader subset
    builds its own: equality, ``repr``, ``dataclasses.replace``, pickling,
    copying, ``dataset_to_dict``, ``cardinal_arrays`` and the experiments'
    grader subsets do, the ordinal fits do not. Any other
    payload, and every malformed one, takes the record-by-record path,
    which raises each fault's ``DataFormatError``: per-entry faults in file
    order, then roster-level ones.
    """
    data = _compiled(payload)
    return data if data is not None else _from_records(payload, source)


def _grade_map(grades: Any, ranking: list) -> dict[str, float] | None:
    """A grader's parsed grades, or None unless they are an object of finite numbers over its ranked items."""
    if type(grades) is not dict:
        return None
    try:
        parsed = {str(d): float(v) for d, v in grades.items()}
    except (TypeError, ValueError):
        return None
    if parsed.keys() != set(chain.from_iterable(ranking)) or not all(map(math.isfinite, parsed.values())):
        return None
    return parsed


def _compiled(payload: Any) -> Dataset | None:
    """``payload``'s dataset, checked in bulk and compiled by ``FeedbackArrays._compile``, or None unless
    every part has exactly the JSON type the format asks for and passes every check of ``_from_records``."""
    if type(payload) is not dict:
        return None
    items, entries, lazy = payload.get("items"), payload.get("graders"), payload.get("lazy_graders", [])
    if {type(items), type(entries), type(lazy)} != {list} or set(map(type, entries)) != {dict}:
        return None
    ids = [entry.get("id") for entry in entries]
    if set(map(type, ids)) != {str} or not set(map(type, items + lazy)) <= {str} or "" in ids:
        return None
    roster, graders = tuple(sorted(items)), sorted(ids)
    if len(set(roster)) < len(roster) or len(set(graders)) < len(graders) or not set(lazy) <= set(graders):
        return None
    if graders != ids:
        entries = sorted(entries, key=itemgetter("id"))
    rankings = [entry.get("ranking") for entry in entries]
    arrays = FeedbackArrays._compile(tuple(graders), roster, rankings, parsed=True)
    if arrays is None:
        return None
    grades = [entry.get("grades") for entry in entries]
    maps = [g if g is None else _grade_map(g, ranking) for g, ranking in zip(grades, rankings)]
    if maps.count(None) != grades.count(None):
        return None
    return Dataset._derived(roster, arrays.graders, frozenset(lazy), partial(arrays._records, roster, maps),
                            feedback_arrays=arrays, _full_ordinal=True, _full_cardinal=None not in maps)


def _from_records(payload: Any, source: str) -> Dataset:
    """``dataset_from_dict`` record by record: the path of every payload ``_compiled`` declines, such as
    one with ids of a ``str`` subclass, and the one that raises each malformed payload's fault."""
    if not isinstance(payload, dict):
        raise DataFormatError(f"{source}: expected a JSON object at top level")
    items = payload.get("items")
    if not isinstance(items, list) or not all(isinstance(d, str) for d in items):
        raise DataFormatError(f"{source}: 'items' must be a list of id strings")
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
        try:
            ranking = _ranking(entry["ranking"])
        except ValidationError as exc:
            raise DataFormatError(f"{source}: grader {gid}: {exc}")
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
    try:
        return Dataset.from_feedback(feedback, items=items, lazy_graders=lazy_payload)
    except ValidationError as exc:
        raise DataFormatError(f"{source}: {exc}")


def _load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}")


def parse_ordinal_json(path: str) -> Dataset:
    """Read a dataset from the JSON ranking format.

    Shape: ``{"items": [...], "graders": [{"id": ..., "ranking": [[best
    group], ..., [worst group]]}]}`` with optional per-grader ``grades`` and
    a top-level ``lazy_graders`` list.
    """
    # No cycles form here: collecting midway would only age the JSON the parse drops, so collect once, at the end.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return dataset_from_dict(_load_json(path), source=path)
    finally:
        if collecting:
            gc.enable()
            gc.collect(0)


def write_ordinal_json(data: Dataset, path: str, config: dict[str, Any] | None = None) -> None:
    write_json(dataset_to_dict(data, config=config), path)


def percentile_ranks(ranking: WeakRanking) -> dict[str, float]:
    """Percentile per item: 100 for the unique best, 0 for the unique worst.

    Tied items share the midrank of their group; a single-item ranking maps
    to 100.
    """
    n = len(ranking)
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
    payload = _load_json(path)
    if not isinstance(payload, dict) or "ranking" not in payload:
        raise DataFormatError(f"{path}: expected an object with a 'ranking' key")
    maps = {key: payload.get(key) for key in ("scores", "reliabilities")}
    for key, value in maps.items():
        if value is not None and not isinstance(value, dict):
            raise DataFormatError(f"{path}: {key!r} must be an object")
    if not isinstance(payload.get("metadata", {}), dict):
        raise DataFormatError(f"{path}: 'metadata' must be an object")
    try:
        return Estimate(
            ranking=_ranking(payload["ranking"]),
            metadata=dict(payload.get("metadata", {})),
            **{key: {str(k): float(v) for k, v in value.items()} if value else None for key, value in maps.items()},
        )
    except (TypeError, ValueError, ValidationError) as exc:
        raise DataFormatError(f"{path}: {exc}")


def read_target_ranking(path: str) -> WeakRanking:
    """Ranking from any JSON file carrying a 'ranking' key (estimates included)."""
    return read_estimate(path).ranking
