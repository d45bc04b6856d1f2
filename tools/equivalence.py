#!/usr/bin/env python3
"""Run the same stacksim commands on two source trees and compare their outputs exactly.

    python3 tools/equivalence.py PARENT_TREE CHANGE_TREE OUT_DIR

Each tree is a checkout of this repository whose package is imported from
``<tree>/src``. Every command of ``BATTERY`` runs once per tree, the two at
the same time, each as a subprocess with ``OPENBLAS_NUM_THREADS=1`` so that
BLAS threading cannot move a last bit. They write to ``OUT_DIR/parent/<name>``
and ``OUT_DIR/change/<name>``, and ``compare_outputs.py`` (next to this
script) compares each pair. The twelve commands are the four presets, ``run``
on ``DENSE_CELL_CONFIG`` from CHANGE_TREE's ``bench/workloads.py``, ``run``
on ``BASE_POINT`` (no swept axis), ``run`` on ``DOWNLINK_INNER`` (one
trial's user pool serves points with different stacks), ``run`` on
``NON_SQUARE_SCALE`` under ``--scale`` (a non-square output layer that
``--scale`` must keep within the training budget), and ``synth`` on
the bare-stack configs ``BARE_SYNTH`` (the default amplitude range),
``BARE_SYNTH_RANGE`` (a narrow one), ``BARE_SYNTH_CENTERED`` (grids aligned
by their centers) and ``BARE_SYNTH_AC_PHASES`` (nonzero fixed AC phases, a
range above 1); the configs are written to OUT_DIR. The exit status is 0 only when every command succeeded and every output record
is identical. Uses the standard library only.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

COMPARE = Path(__file__).resolve().with_name("compare_outputs.py")

# Q=25, one amplitude-controlled and three phase-controlled layers.
BARE_SYNTH = {
    "stack": {"input_shape": [3, 3], "inner_shape": [5, 5], "output_shape": [3, 3], "ac_layers": 1, "pc_layers": 3},
    "pgd": {"max_iterations": 300},
    "master_seed": 4,
}

# Q=36, two amplitude-controlled layers (one of them the output layer) held
# to a -6..6 dB range instead of the default -22..13 dB.
BARE_SYNTH_RANGE = {
    "stack": {
        "input_shape": [2, 2],
        "inner_shape": [6, 6],
        "output_shape": [3, 3],
        "ac_layers": 2,
        "pc_layers": 2,
        "terminal_kind": "ac",
        "alpha_min_db": -6.0,
        "alpha_max_db": 6.0,
    },
    "pgd": {"max_iterations": 200},
    "master_seed": 9,
}

# Q=36, grids aligned by their centers: odd input and even inner sides give
# half-integer in-plane offsets between them.
BARE_SYNTH_CENTERED = {
    "stack": {
        "input_shape": [3, 3],
        "inner_shape": [6, 6],
        "output_shape": [2, 2],
        "ac_layers": 1,
        "pc_layers": 2,
        "centered_alignment": True,
    },
    "pgd": {"max_iterations": 200},
    "master_seed": 5,
}

# Q=25, two amplitude-controlled layers with nonzero fixed phases, held to a
# 2..10 dB range that excludes the amplitude 1 they start from.
BARE_SYNTH_AC_PHASES = {
    "stack": {
        "input_shape": [3, 3],
        "inner_shape": [5, 5],
        "output_shape": [3, 3],
        "ac_layers": 2,
        "pc_layers": 2,
        "ac_phase_seed": 3,
        "alpha_min_db": 2.0,
        "alpha_max_db": 10.0,
    },
    "pgd": {"max_iterations": 200},
    "master_seed": 6,
}

# One downlink experiment with no swept axis, so it runs the config's own
# stack and scenario: Q=36, 1 AC + 3 PC layers, 30 users, 2 slots, 2 trials.
BASE_POINT = {
    "kind": "sumrate_vs_users",
    "stack": {"input_shape": [3, 3], "inner_shape": [6, 6], "output_shape": [3, 3], "ac_layers": 1, "pc_layers": 3},
    "scenario": {"user_count": 30, "slot_count": 2, "streams": 4},
    "sweep": {},
    "trial_count": 2,
    "master_seed": 7,
    "pgd": {"max_iterations": 200},
}

# Inner layers of 25 and 36 cells (1 AC + 3 PC) crossed with 8 and 16 users,
# 2 slots, 2 trials: the only command in which one trial's user pool serves
# points with different stacks.
DOWNLINK_INNER = {
    "kind": "sumrate_vs_users",
    "stack": {"input_shape": [3, 3], "inner_shape": [6, 6], "output_shape": [3, 3], "ac_layers": 1, "pc_layers": 3},
    "scenario": {"user_count": 16, "slot_count": 2, "streams": 4},
    "sweep": {"inner_counts": [25, 36], "user_counts": [8, 16]},
    "trial_count": 2,
    "master_seed": 8,
    "pgd": {"max_iterations": 30},
}

# A 2x8 output layer (V=16) serving 4 streams in 3 slots, one trial of 20
# iterations, run at --scale 0.25: the short side cannot shrink, so the long
# side alone must keep V >= streams * slots = 12.
NON_SQUARE_SCALE = {
    "kind": "sumrate_vs_users",
    "stack": {
        "input_shape": [8, 8],
        "inner_shape": [16, 16],
        "output_shape": [2, 8],
        "ac_layers": 1,
        "pc_layers": 3,
        "slot_count": 3,
    },
    "scenario": {"user_count": 40, "slot_count": 3, "streams": 4},
    "sweep": {},
    "master_seed": 3,
    "pgd": {"max_iterations": 20},
}

# name -> CLI arguments; "{dense_cell}", "{base_point}", "{downlink_inner}",
# "{non_square_scale}", "{bare_synth}", "{bare_synth_range}",
# "{bare_synth_centered}" and "{bare_synth_ac_phases}" stand for the config files.
BATTERY = {
    "fig3": ["fig3", "--seed", "1", "--trials", "1", "--scale", "0.25"],
    "fig4": ["fig4", "--trials", "1", "--scale", "0.3"],
    "fig5": ["fig5", "--seed", "42", "--trials", "2", "--scale", "0.25"],
    "fig6": ["fig6", "--trials", "1", "--scale", "0.25"],
    "dense-cell": ["run", "{dense_cell}", "--seed", "0", "--trials", "1", "--scale", "0.5"],
    "base-point": ["run", "{base_point}"],
    "downlink-inner": ["run", "{downlink_inner}"],
    "non-square-scale": ["run", "{non_square_scale}", "--scale", "0.25"],
    "synth": ["synth", "{bare_synth}"],
    "synth-range": ["synth", "{bare_synth_range}"],
    "synth-centered": ["synth", "{bare_synth_centered}"],
    "synth-ac-phases": ["synth", "{bare_synth_ac_phases}"],
}


def dense_cell_config(tree: Path) -> dict:
    spec = importlib.util.spec_from_file_location("workloads", tree / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module.DENSE_CELL_CONFIG


def start(tree: Path, args: list[str], out: Path, log: Path) -> subprocess.Popen:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-m", "stacksim.cli", *args, "--out", str(out)]
    with log.open("w") as fh:
        return subprocess.Popen(command, env=env, cwd=log.parent, stdout=fh, stderr=subprocess.STDOUT)


def main(argv: list[str]) -> int:
    if len(argv) != 3 or not all((Path(arg) / "src" / "stacksim").is_dir() for arg in argv[:2]):
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    out_dir = Path(argv[2]).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = {
        "dense_cell": dense_cell_config(trees["change"]),
        "base_point": BASE_POINT,
        "downlink_inner": DOWNLINK_INNER,
        "non_square_scale": NON_SQUARE_SCALE,
        "bare_synth": BARE_SYNTH,
        "bare_synth_range": BARE_SYNTH_RANGE,
        "bare_synth_centered": BARE_SYNTH_CENTERED,
        "bare_synth_ac_phases": BARE_SYNTH_AC_PHASES,
    }
    paths = {}
    for key, config in configs.items():
        paths[key] = out_dir / f"{key}.json"
        paths[key].write_text(json.dumps(config, indent=1) + "\n")

    failures = 0
    for name, template in BATTERY.items():
        args = [arg.format(**paths) for arg in template]
        print(f"== {name}: stacksim {' '.join(args)}", flush=True)
        runs = {}
        for side, tree in trees.items():
            target = out_dir / side / name
            shutil.rmtree(target, ignore_errors=True)
            target.parent.mkdir(parents=True, exist_ok=True)
            log = out_dir / f"{side}-{name}.log"
            runs[side] = (start(tree, args, target, log), log)
        for side, (process, log) in runs.items():
            if process.wait() != 0:
                print(f"{side} run failed with status {process.returncode}; last output:\n{log.read_text()[-2000:]}")
                failures += 1
        if any(process.returncode for process, _ in runs.values()):
            continue
        compared = subprocess.run(
            [sys.executable, str(COMPARE), str(out_dir / "parent" / name), str(out_dir / "change" / name)],
            capture_output=True,
            text=True,
        )
        print(compared.stdout, end="", flush=True)
        failures += compared.returncode != 0
    print(f"{len(BATTERY)} commands, {failures} with a failure or a difference")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
