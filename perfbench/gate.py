"""Correctness gate: every unit of every batch is checked before it counts.

A group of output (one sweep pair, one search record, one verify check)
fails when the command exited non-zero, when the group is missing, or when
it breaks a numerical contract:

* sweep: every applicable bound has slack >= -1e-10 (and no NaN slack);
* verify: the routes agree to 1e-9 relative, a representation round-trip
  or normalization residual is within 1e-6, a proven case holds;
* search: the record is well formed, counts the trials asked for, and its
  maximum ratio matches its argmax instance.

For the default seed, batch 0 is also compared with the reference recorded
under ``reference/``: non-numeric tokens and integers must match exactly,
floating-point tokens may differ by at most 1e-13 relative, the allowance
for a change that only reorders summation.

This module imports neither numpy nor quasirel, so its tests run anywhere.
"""

from __future__ import annotations

import gzip
import json
import math
import re
from pathlib import Path

SLACK_FLOOR = -1e-10
ROUTE_RTOL = 1e-9
REPR_RTOL = 1e-6
REFERENCE_RTOL = 1e-13

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def failed_units(kind: str, batch, reference: dict | None = None) -> tuple:
    """Return (units failed, descriptions) for one batch.

    ``reference`` maps group keys to the reference text; groups it does not
    name are held to the contracts only.
    """
    failed = 0
    notes = []
    for key, units in batch.expected.items():
        text = batch.texts.get(key)
        if batch.exit_code != 0:
            problem = f"exit code {batch.exit_code}"
        elif text is None:
            problem = "missing from the output"
        else:
            problem = contract_problem(kind, text, units)
            if not problem and reference and key in reference:
                problem = reference_problem(reference[key], text)
        if problem:
            failed += units
            notes.append(f"batch {batch.index} {key}: {problem}")
    return failed, notes


def contract_problem(kind: str, text: str, units: int = 1) -> str:
    """An empty string when the group keeps its contracts, else the reason."""
    try:
        if kind == "sweep":
            return _sweep_problem(text)
        if kind == "verify":
            return _verify_problem(text)
        if kind == "search":
            return _search_problem(text, units)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output ({exc})"
    raise ValueError(f"unknown workload kind {kind!r}")


def _sweep_problem(text: str) -> str:
    for line in text.split("\n"):
        cells = line.split(",")
        if len(cells) != 10:
            return f"row has {len(cells)} cells, not 10"
        slack, applicable = cells[8], cells[9]
        if applicable == "true" and slack:
            value = float(slack)
            if math.isnan(value) or value < SLACK_FLOOR:
                return f"slack {slack} of {cells[5]} below {SLACK_FLOOR:g}"
    return ""


def _verify_problem(text: str) -> str:
    kind, *cells = text.split(",")
    if kind == "error":
        return "raised " + ",".join(cells)
    if kind == "proven":
        return "" if cells == ["true"] else "proven-case inequality failed"
    values = [float(c) for c in cells]
    if kind == "route":
        scale = max(max(abs(v) for v in values), 1e-300)
        spread = (max(values) - min(values)) / scale
        if not spread < ROUTE_RTOL:
            return f"route spread {spread:.3e} not below {ROUTE_RTOL:g}"
        return ""
    if kind == "repr":
        direct, via = values
        err = abs(via - direct) / max(1.0, abs(direct))
        return "" if err < REPR_RTOL else f"round-trip error {err:.3e}"
    if kind == "residual":
        return "" if abs(values[0]) < REPR_RTOL else f"residual {values[0]:.3e}"
    return f"unknown check kind {kind!r}"


def _search_problem(text: str, units: int) -> str:
    record = json.loads(text)
    if record["trial_count"] != units:
        return f"trial_count {record['trial_count']}, expected {units}"
    ratio = record["max_ratio"]
    if not (math.isfinite(ratio) and ratio >= 0.0):
        return f"max_ratio {ratio!r} is not a finite nonnegative number"
    if record["argmax_instance"].get("ratio") != ratio:
        return "argmax instance ratio differs from max_ratio"
    return ""


def reference_problem(expected: str, actual: str) -> str:
    """Compare two outputs token by token with the reference allowance."""
    exp_lines, act_lines = expected.split("\n"), actual.split("\n")
    if len(exp_lines) != len(act_lines):
        return f"{len(act_lines)} lines, reference has {len(exp_lines)}"
    for exp_line, act_line in zip(exp_lines, act_lines):
        if exp_line == act_line:
            continue
        exp_text, act_text = _NUMBER.split(exp_line), _NUMBER.split(act_line)
        exp_nums, act_nums = _NUMBER.findall(exp_line), _NUMBER.findall(act_line)
        if exp_text != act_text or len(exp_nums) != len(act_nums):
            return f"text differs from the reference: {act_line[:120]!r}"
        for e, a in zip(exp_nums, act_nums):
            if e == a:
                continue
            if _is_integer(e) and _is_integer(a):
                return f"integer {a} differs from the reference {e}"
            ev, av = float(e), float(a)
            if abs(ev - av) > REFERENCE_RTOL * max(abs(ev), abs(av)):
                return f"{a} differs from the reference {e} beyond {REFERENCE_RTOL:g}"
    return ""


def _is_integer(token: str) -> bool:
    return token.lstrip("+-").isdigit()


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt") as fh:
        return json.load(fh)


def save_reference(workload: str, groups: dict) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the file byte-identical when re-recorded unchanged.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(groups, indent=0, sort_keys=True).encode())
    return path
