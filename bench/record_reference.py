"""Record, or compare against, the downlink columns the output check expects.

    python3 bench/record_reference.py fig5-full            # write bench/reference/fig5-full.json
    python3 bench/record_reference.py dense-cell --compare # max relative deviation from the file

Runs the workload's CLI command once per input seed (0 .. REFERENCE_SEEDS-1).
``--compare`` measures how far the current code and machine settings (for
example ``OPENBLAS_NUM_THREADS=1``) move the columns, which is the evidence
behind each workload's ``reference_tolerance``; ``--seeds`` limits the input
seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import downlink_columns, read_results  # noqa: E402
from workloads import REFERENCE_SEEDS, WORKLOADS  # noqa: E402


def record(workload, seed: int) -> dict:
    from stacksim import cli

    work_dir = ROOT / ".bench_work" / "reference" / workload.name
    work_dir.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(sys.stderr):
        cli.main(workload.argv(seed, work_dir), standalone_mode=False)
    return downlink_columns(read_results(work_dir / "out"))


def main() -> int:
    parser = argparse.ArgumentParser()
    referenced = sorted(name for name, w in WORKLOADS.items() if w.reference_tolerance is not None)
    parser.add_argument("workload", choices=referenced)
    parser.add_argument("--compare", action="store_true")
    parser.add_argument("--seeds", type=int, default=REFERENCE_SEEDS)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    path = BENCH / "reference" / f"{workload.name}.json"

    if not args.compare:
        tables = {}
        for seed in range(args.seeds):
            tables[str(seed)] = record(workload, seed)
            print(f"recorded input seed {seed}", file=sys.stderr)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"workload": workload.name, "input_seeds": tables}, indent=1, sort_keys=True) + "\n")
        return 0

    reference = json.loads(path.read_text())["input_seeds"]
    worst: dict[str, float] = {}
    for seed in range(args.seeds):
        measured = record(workload, seed)
        for key, columns in reference[str(seed)].items():
            for column, expected in columns.items():
                deviation = abs(measured[key][column] - expected) / max(abs(expected), 1e-12)
                worst[column] = max(worst.get(column, 0.0), deviation)
        print(f"input seed {seed}: worst so far {max(worst.values()):.3g}", file=sys.stderr)
    print(json.dumps(worst, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
