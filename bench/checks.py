"""Checks on the files one CLI invocation wrote.

Each check returns a list of failure messages; an empty list means the
output passed. The downlink reference was recorded at the commit that added
the benchmark (``record_reference.py``) and is compared within the
workload's ``reference_tolerance``, relative.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

DOWNLINK_COLUMNS = (
    "ta_sum_rate",
    "ta_sum_rate_baseline",
    "fairness_per_slot",
    "fairness_coherence",
    "fairness_per_slot_baseline",
    "fairness_coherence_baseline",
    "radiated_power_ratio",
)


def read_results(out_dir: Path) -> list[dict]:
    with open(out_dir / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def row_key(row: dict) -> str:
    sweep = [f"{k}={row[k]}" for k in row if k not in ("experiment", "metric", "value", "seed", "elapsed_s")]
    return ",".join(sweep + [f"seed={row['seed']}"])


def downlink_columns(rows: list[dict]) -> dict[str, dict[str, float]]:
    """``{row key: {column: value}}`` for the reference-checked columns."""
    table: dict[str, dict[str, float]] = {}
    for row in rows:
        if row["metric"] in DOWNLINK_COLUMNS:
            table.setdefault(row_key(row), {})[row["metric"]] = float(row["value"])
    return table


def check_results(rows: list[dict]) -> list[str]:
    problems = []
    if not rows:
        problems.append("results.csv has no records")
    for row in rows:
        if row["metric"] == "trial_failed":
            problems.append(f"trial_failed record at {row_key(row)}")
        elif not math.isfinite(float(row["value"])):
            problems.append(f"non-finite {row['metric']} at {row_key(row)}")
    return problems


def check_summary(out_dir: Path) -> list[str]:
    payload = json.loads((out_dir / "summary.json").read_text())
    problems = []
    for row in payload["summary"]:
        if row.get("flagged"):
            problems.append(f"summary row flagged: {row}")
        for key in ("median", "mean", "p10", "p90"):
            if key in row and not math.isfinite(row[key]):
                problems.append(f"non-finite {key} of {row['metric']} in summary.json")
    return problems


def check_overhead(rows: list[dict], config: dict) -> list[str]:
    """Overhead columns against their closed forms, per record."""
    output_size = config["stack"]["output_shape"][0] * config["stack"]["output_shape"][1]
    streams = config["scenario"]["streams"]
    eta = config["eta_feedback"]
    problems = []
    for row in rows:
        users = int(row.get("users") or config["scenario"]["user_count"])
        slots = int(row.get("slots") or config["scenario"]["slot_count"])
        expected = {
            "overhead_train_partial": streams * slots,
            "overhead_train_full": output_size,
            "overhead_feedback_partial": eta * users * slots,
            "overhead_feedback_full": users * output_size,
            "training_budget_ok": 1.0 if slots <= output_size / streams else 0.0,
        }.get(row["metric"])
        if expected is not None and float(row["value"]) != float(expected):
            problems.append(f"{row['metric']} at {row_key(row)} is {row['value']}, closed form gives {expected}")
    return problems


def check_reference(rows: list[dict], reference: dict[str, dict[str, float]], tolerance: float) -> list[str]:
    problems = []
    measured = downlink_columns(rows)
    if set(measured) != set(reference):
        problems.append(f"downlink rows differ from the reference: {sorted(set(measured) ^ set(reference))[:4]}")
    for key, columns in reference.items():
        for column, expected in columns.items():
            value = measured.get(key, {}).get(column)
            if value is None or abs(value - expected) > tolerance * max(abs(expected), 1e-12):
                problems.append(f"{column} at {key} is {value}, reference {expected}")
    return problems


def check_traces(out_dir: Path, expected_files: int) -> list[str]:
    """Trace CSVs of a convergence run: one per synthesis, each non-increasing."""
    files = sorted(out_dir.glob("trace_*.csv"))
    problems = []
    if len(files) != expected_files:
        problems.append(f"expected {expected_files} trace files, found {len(files)}")
    for path in files:
        with open(path, newline="") as fh:
            values = [float(row["objective_linear"]) for row in csv.DictReader(fh)]
        if any(b > a for a, b in zip(values, values[1:])):
            problems.append(f"{path.name}: objective trace not monotone")
    return problems


def check_outputs(out_dir: Path, workload, reference: dict | None) -> list[str]:
    rows = read_results(out_dir)
    config = json.loads((out_dir / "summary.json").read_text())["config"]
    problems = check_results(rows) + check_summary(out_dir) + check_overhead(rows, config)
    if reference is not None:
        problems += check_reference(rows, reference, workload.reference_tolerance)
    if workload.writes_traces:
        problems += check_traces(out_dir, workload.points * workload.trials)
    return problems
