#!/usr/bin/env python3
"""Run the benchmark on two source trees in alternating pairs and compare each end-to-end metric.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload fig4-conv --first-seed 0 --pairs 10

Each tree is a checkout of this repository. Pair i runs the command declared
in ``PARENT_TREE/BENCHMARK.json`` (``bench/run.py``) once in each tree, with
``--workload W --seed (first seed + i) --seconds S``, where S is that file's
``run_seconds``. The parent runs first in even pairs and second in odd ones,
one process at a time. Each run's end-to-end metrics are printed as it ends.

Then, for each end-to-end metric, it prints each side's median and quartiles,
how many pairs the change won (a tie counts for neither side; "better" is the
metric's direction in ``BENCHMARK.json``), and whether the two medians differ
by more than the parent's interquartile range. Quartiles are interpolated
linearly between order statistics (``statistics.quantiles``' inclusive
method). A claim of a gain needs the change to win at least nine tenths of
the pairs and the medians to differ by more than that range, in its favour.

The exit status is 0 when every run was correct and none failed. Uses the
standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated linearly."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Statistics of one metric over paired runs: ``parent[i]`` and ``change[i]`` form pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = {"lower": -1.0, "higher": 1.0}[better]
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    return {
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "beyond_iqr": abs(c_median - p_median) > p_q3 - p_q1,
        "change_better": sign * (c_median - p_median) > 0,
    }


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; returns its last output line, parsed."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def report(name: str, unit: str, stats: dict) -> str:
    p_q1, p_median, p_q3 = stats["parent"]
    c_q1, c_median, c_q3 = stats["change"]
    relative = (c_median - p_median) / p_median if p_median else float("nan")
    verdict = f"than the parent's IQR {p_q3 - p_q1:.6g}"
    if stats["beyond_iqr"]:
        verdict = f"more {verdict}, the {'change' if stats['change_better'] else 'parent'} better"
    else:
        verdict = f"no more {verdict}"
    return (
        f"{name} ({unit}): parent {p_median:.6g} [{p_q1:.6g}, {p_q3:.6g}], "
        f"change {c_median:.6g} [{c_q1:.6g}, {c_q3:.6g}] ({relative:+.1%}); "
        f"change won {stats['wins']}/{stats['pairs']}; medians differ by {verdict}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    declared = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = declared["end_to_end"]
    runs = {"parent": [], "change": []}
    all_correct = True
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = getattr(args, side)
            result = run_once(tree, declared["command"], args.workload, seed, declared["run_seconds"])
            all_correct &= bool(result["correct"]) and result["failed"] == 0
            runs[side].append(result)
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics)
            print(
                f"pair {i} seed {seed} {side}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']} {values}",
                flush=True,
            )

    print(f"{args.workload}, {args.pairs} pairs, seeds {args.first_seed}-{args.first_seed + args.pairs - 1}:")
    for metric in metrics:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        print(report(name, metric["unit"], compare(parent, change, metric["better"])))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
