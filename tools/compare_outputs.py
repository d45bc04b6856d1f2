#!/usr/bin/env python3
"""Compare the output files of two stacksim runs exactly, with no tolerance.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Both directories are searched recursively for the files the CLI writes, and
files are paired by their path relative to the directory:

- ``results.csv``: one record per row, grouped by its ``metric`` column and
  compared on every column except ``elapsed_s``, the only one that depends
  on the machine;
- ``trace_*.csv`` and ``pgd_trace.csv``: one record per cell, grouped by
  column;
- ``summary.json`` and ``synth_summary.json``: one record per leaf, grouped
  by its key path. Neither holds a timing: ``summary.json`` is the summary
  table plus the resolved config, so a change in how a config is resolved
  shows here.

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

PATTERNS = ("results.csv", "trace_*.csv", "pgd_trace.csv", "summary.json", "synth_summary.json")
IGNORED_COLUMNS = {"elapsed_s"}
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


def csv_records(path: Path):
    """Yield ``(group, cells)`` for the header and every record of a CSV file, in order."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    yield "<header>", header
    kept = [i for i, name in enumerate(header) if name not in IGNORED_COLUMNS]
    if "metric" in header:
        metric = header.index("metric")
        for row in rows:
            yield row[metric], [row[i] for i in kept]
    else:
        for row in rows:
            for i in kept:
                yield header[i], [row[i]]


def compare_files(parent: Path, change: Path) -> dict[str, list]:
    """Per group: [differing records, largest relative difference]."""
    stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
    if parent.suffix == ".json":
        leaves_p, leaves_c = (flatten(json.loads(path.read_text())) for path in (parent, change))
        keys = sorted(leaves_p.keys() | leaves_c.keys())
        pairs = (((k, [leaves_p.get(k, MISSING)]), (k, [leaves_c.get(k, MISSING)])) for k in keys)
    else:
        pairs = zip_longest(csv_records(parent), csv_records(change), fillvalue=(None, [MISSING]))
    for (group_p, cells_p), (group_c, cells_c) in pairs:
        if group_p != group_c or cells_p != cells_c:
            entry = stats[group_p if group_p is not None else group_c]
            entry[0] += 1
            cells = zip_longest(cells_p, cells_c, fillvalue=MISSING)
            worst = max((relative_difference(a, b) for a, b in cells if a != b), default=0.0)
            entry[1] = max(entry[1], worst if group_p == group_c else math.inf)
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
