"""stacksim benchmark: one workload, measured end to end or traced by layer.

Usage (from the repository root):

    python3 bench/run.py --workload fig5-full --seed 0 --seconds 25 --trace 0

Each repetition runs one ``stacksim`` CLI command in-process, through
``stacksim.cli.main``, then checks the files it wrote. Repetitions continue
while the next one fits in ``--seconds`` (at least one runs). The load is a
closed loop: one invocation at a time, from one process; OpenBLAS keeps its
default thread count, which is recorded with the result.

``--trace 0`` reports the end-to-end metrics. Set-up time is measured in
separate child processes (``setup_probe.py``), from process start to the
first call into ``run_pgd``, half of them before the repetitions and half
after, and reported as the median over all.
``--trace 1`` runs traced repetitions only and reports the per-layer metrics
(medians over repetitions) and the tracing overhead, from the span count and
a calibrated cost per span.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 16

from checks import check_outputs, read_results, row_key  # noqa: E402
from spans import Patches, SpanRecorder, tracing_overhead, wrapper_cost  # noqa: E402
from tracing import PgdWatch, install_hooks, install_pgd_watch, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@dataclass
class Rep:
    wall: float
    to_target: float
    final_db: list[float]
    trials: int
    problems: list[str]
    layers: dict = field(default_factory=dict)


def load_reference(workload, seed: int) -> dict | None:
    if workload.reference_tolerance is None:
        return None
    table = json.loads((BENCH / "reference" / f"{workload.name}.json").read_text())["input_seeds"]
    return table[str(workload.input_seed(seed))]


def time_setup(argv: list[str]) -> float:
    """Seconds from spawning a fresh interpreter to the CLI's first ``run_pgd`` call."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), json.dumps(argv)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr[-2000:]}")
    return float(done.stdout.strip().splitlines()[-1]) - started


def invoke(workload, argv, out_dir: Path, reference, modules: dict, recorder=None, span_cost=0.0) -> Rep:
    """One CLI invocation plus the checks on what it wrote; traced when
    ``recorder`` is given, with ``span_cost`` seconds per span."""
    from stacksim import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    watch = PgdWatch(modules["pgd"], workload.objective_db)
    with Patches() as patches:
        install_pgd_watch(watch, patches)
        if recorder is not None:
            missing = install_hooks(recorder, modules, patches)
            if missing:
                print(f"trace hooks not found, their metrics read 0: {missing}", file=sys.stderr)
        gc.collect()
        with contextlib.redirect_stdout(sys.stderr):
            started = time.perf_counter()
            main_index = recorder.begin("cli.main") if recorder is not None else None
            cli.main(argv, standalone_mode=False)
            if recorder is not None:
                recorder.end(main_index)
            wall = time.perf_counter() - started

    rows = read_results(out_dir)
    problems = watch.failures() + check_outputs(out_dir, workload, reference)
    rep = Rep(
        wall=wall,
        to_target=watch.time_to_target(),
        final_db=watch.final_objectives_db(),
        trials=len({row_key(r) for r in rows}),
        problems=problems,
    )
    if recorder is not None:
        rep.layers = layer_metrics(recorder.spans, main_index, watch.runs)
        overhead = tracing_overhead(len(recorder.spans), span_cost, recorder.annotate_s, wall)
        rep.layers["trace.overhead_frac"] = (overhead, "ratio")
    return rep


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[Rep], list[float]]:
    work_dir = WORK / workload.name
    work_dir.mkdir(parents=True, exist_ok=True)
    argv = workload.argv(seed, work_dir)
    reference = load_reference(workload, seed)

    # Set-up probes before and after the repetitions, so that one slow or
    # fast stretch of the host does not meet every probe.
    setups = [] if trace else [time_setup(argv) for _ in range(SETUP_PROBES // 2)]
    span_cost = wrapper_cost() if trace else 0.0

    from stacksim import harness, pgd, stack

    modules = {"harness": harness, "pgd": pgd, "stack": stack}
    out_dir = work_dir / "out"
    reps: list[Rep] = []
    started = time.perf_counter()
    last = 0.0
    while not reps or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        if trace:
            recorder = SpanRecorder()
            reps.append(invoke(workload, argv, out_dir, reference, modules, recorder, span_cost))
            (work_dir / "spans.json").write_text(json.dumps([vars(s) for s in recorder.spans]) + "\n")
        else:
            reps.append(invoke(workload, argv, out_dir, reference, modules))
        last = time.perf_counter() - begun

    if trace:
        return {
            name: {"value": statistics.median(rep.layers[name][0] for rep in reps), "unit": unit}
            for name, (_, unit) in reps[0].layers.items()
        }, reps, setups
    setups += [time_setup(argv) for _ in range(SETUP_PROBES - len(setups))]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(r.wall for r in reps), "unit": "s"},
        "synth_to_target_s": {"value": statistics.median(r.to_target for r in reps), "unit": "s"},
        "fit_depth_db": {
            "value": -statistics.median(statistics.median(r.final_db) for r in reps),
            "unit": "dB",
        },
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    return metrics, reps, setups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "stacksim" / "__init__.py").is_file():
        print(f"no stacksim package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stacksim

    if Path(stacksim.__file__).resolve().parent != SRC / "stacksim":
        print(f"imported stacksim from {stacksim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import provenance

    workload = WORKLOADS[args.workload]
    metrics, reps, setups = run(workload, args.seed, args.seconds, bool(args.trace))

    attempted = sum(rep.trials for rep in reps)
    failed = min(attempted, sum(len(rep.problems) for rep in reps))
    for problem in [p for rep in reps for p in rep.problems][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "input_seed": workload.input_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "objective_level_db": workload.objective_db,
        "loads": workload.loads,
        "repetitions": len(reps),
        "walls_s": [rep.wall for rep in reps],
        "setups_s": setups,
        "provenance": provenance.collect(ROOT),
    }
    print(json.dumps(context))
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_frac':32s} {failed / attempted:.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
