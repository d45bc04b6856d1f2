#!/usr/bin/env python3
"""Compare the output files of two stacksim runs exactly, with no tolerance.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Both directories are searched recursively for the files the CLI writes, and
files are paired by their path relative to the directory:

- ``results.csv``: one record per row, grouped by its ``metric`` column and
  compared on every column except ``elapsed_s``, the only one that depends
  on the machine;
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
from itertools import zip_longest
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
    """Yield ``(key, group, cells)`` for the header and every record of a CSV file."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    yield "<header>", "<header>", header
    kept = [i for i, name in enumerate(header) if name not in IGNORED_COLUMNS]
    if "metric" in header:
        metric = header.index("metric")
        point = [i for i, name in enumerate(header) if name not in RESULT_COLUMNS]
        seen: dict[tuple, int] = defaultdict(int)
        for row in rows:
            at = (row[metric], *(row[i] for i in point))
            seen[at] += 1
            yield (*at, seen[at]), row[metric], [row[i] for i in kept]
    else:
        for n, row in enumerate(rows):
            for i in kept:
                yield (n, i), header[i], [row[i]]


def file_records(path: Path) -> dict:
    """``{key: (group, cells)}`` for every record of an output file."""
    if path.suffix == ".json":
        return {key: (key, [text]) for key, text in summary_leaves(path).items()}
    return {key: (group, cells) for key, group, cells in csv_records(path)}


def compare_files(parent: Path, change: Path) -> dict[str, list]:
    """Per group: [differing records, largest relative difference]."""
    stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
    records_p, records_c = file_records(parent), file_records(change)
    for key in records_p.keys() | records_c.keys():
        group_p, cells_p = records_p.get(key, (None, [MISSING]))
        group_c, cells_c = records_c.get(key, (None, [MISSING]))
        if cells_p != cells_c:
            entry = stats[group_p or group_c]
            entry[0] += 1
            cells = zip_longest(cells_p, cells_c, fillvalue=MISSING)
            entry[1] = max(entry[1], *(relative_difference(a, b) for a, b in cells if a != b))
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
