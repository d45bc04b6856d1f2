#!/usr/bin/env python3
"""Compare the output files of two stacksim runs exactly, with no tolerance.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Both directories are searched recursively for the files the CLI writes, and
files are paired by their path relative to the directory:

- ``results.csv``: one record per row, compared on every column except
  ``elapsed_s``, the only one that depends on the machine. A difference in
  ``value``, or a row on one side only, is grouped under the row's metric; a
  difference in another column, such as ``experiment`` or ``seed``, under
  that column's name;
- ``trace_*.csv``: one record per cell, grouped by column;
- ``summary.json``: one record per leaf, grouped by its key path. It holds
  no timing: it is the summary table plus the resolved config, so a change
  in how a config is resolved shows here.

Rows of ``results.csv`` and of the summary table are paired by their sweep
point and metric (results rows also by their order within that pair, which
is the trial order), not by position in the file, so a metric added on one
side shows as that metric's records alone.

For every group with a difference it prints the number of differing records
and the largest relative difference (``inf`` where a value is not a number or
is missing on one side). The exit status is 0 only when every record of every
file is textually identical; a file or row present on one side only, or no
files found at all, counts as a difference. Uses the standard library only.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

PATTERNS = ("results.csv", "trace_*.csv", "summary.json")
IGNORED_COLUMNS = {"elapsed_s"}
# The columns of a results.csv row that are not its sweep point.
RESULT_COLUMNS = {"experiment", "metric", "value", "seed", "elapsed_s"}
# The statistics of a summary row; its other keys are its sweep point and metric.
SUMMARY_STATISTICS = {"count", "median", "mean", "p10", "p90", "flagged"}
MISSING = "<missing>"


def relative_difference(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if math.isfinite(scale) else math.inf


def flatten(value, prefix: str = "") -> dict[str, str]:
    """JSON leaves keyed by their dotted path, each as its JSON text."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix: json.dumps(value)}
    out = {}
    for key, item in items:
        out.update(flatten(item, f"{prefix}.{key}" if prefix else str(key)))
    return out


def summary_leaves(path: Path) -> dict[str, str]:
    """``flatten`` of a ``summary.json``, each summary row keyed by its sweep point and metric."""
    payload = json.loads(path.read_text())
    rows = {}
    for row in payload.get("summary", []):
        point = [f"{k}={row[k]}" for k in sorted(row) if k not in SUMMARY_STATISTICS and k != "metric"]
        rows[",".join([*point, f"metric={row['metric']}"])] = {k: row[k] for k in row if k in SUMMARY_STATISTICS}
    return flatten({**payload, "summary": rows})


def csv_records(path: Path):
    """Yield ``(key, group, cells)`` for the header and every record of a CSV
    file; ``cells`` maps the group a difference in each cell is reported
    under to the cell's text."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    yield "<header>", "<header>", {"<header>": ",".join(header)}
    if "metric" in header:
        metric = header.index("metric")
        point = [i for i, name in enumerate(header) if name not in RESULT_COLUMNS]
        # The metric and sweep columns are the key; value is reported under the metric.
        compared = [i for i, name in enumerate(header) if name in RESULT_COLUMNS - IGNORED_COLUMNS - {"metric"}]
        seen: dict[tuple, int] = defaultdict(int)
        for row in rows:
            at = (row[metric], *(row[i] for i in point))
            seen[at] += 1
            cells = {row[metric] if header[i] == "value" else header[i]: row[i] for i in compared}
            yield (*at, seen[at]), row[metric], cells
    else:
        kept = [i for i, name in enumerate(header) if name not in IGNORED_COLUMNS]
        for n, row in enumerate(rows):
            for i in kept:
                yield (n, i), header[i], {header[i]: row[i]}


def file_records(path: Path) -> dict:
    """``{key: (group, cells)}`` for every record of an output file."""
    if path.suffix == ".json":
        return {key: (key, {key: text}) for key, text in summary_leaves(path).items()}
    return {key: (group, cells) for key, group, cells in csv_records(path)}


def compare_files(parent: Path, change: Path) -> dict[str, list]:
    """Per group: [differing records, largest relative difference]. A record
    on one side only counts under its group, a differing cell under the
    cell's group."""
    stats: dict[str, list] = defaultdict(lambda: [0, 0.0])

    def count(group: str, difference: float) -> None:
        stats[group][0] += 1
        stats[group][1] = max(stats[group][1], difference)

    records_p, records_c = file_records(parent), file_records(change)
    for key in records_p.keys() | records_c.keys():
        if key not in records_p or key not in records_c:
            count((records_p.get(key) or records_c[key])[0], math.inf)
            continue
        cells_p, cells_c = records_p[key][1], records_c[key][1]
        for group in cells_p.keys() | cells_c.keys():
            a, b = cells_p.get(group, MISSING), cells_c.get(group, MISSING)
            if a != b:
                count(group, relative_difference(a, b))
    return stats


def output_files(root: Path) -> set[Path]:
    return {path.relative_to(root) for pattern in PATTERNS for path in root.rglob(pattern)}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(arg).is_dir() for arg in argv):
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent_root, change_root = Path(argv[0]), Path(argv[1])
    names = sorted(output_files(parent_root) | output_files(change_root))
    if not names:
        print("no output files found", file=sys.stderr)
        return 1
    different = 0
    for name in names:
        parent, change = parent_root / name, change_root / name
        if not (parent.is_file() and change.is_file()):
            print(f"{name}: present in {'PARENT_DIR' if parent.is_file() else 'CHANGE_DIR'} only")
            different += 1
            continue
        stats = compare_files(parent, change)
        if not stats:
            print(f"{name}: identical")
        for group, (count, worst) in sorted(stats.items()):
            print(f"{name}: {group}: {count} differing records, largest relative difference {worst:.3g}")
            different += count
    print(f"{len(names)} files compared, {different} differing records")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
