#!/usr/bin/env python3
"""Run the same stacksim commands on two source trees and compare their outputs exactly.

    python3 tools/equivalence.py PARENT_TREE CHANGE_TREE OUT_DIR

Each tree is a checkout of this repository whose package is imported from
``<tree>/src``. Every command of ``BATTERY`` runs once per tree, the two at
the same time, each as a subprocess with ``OPENBLAS_NUM_THREADS=1`` so that
BLAS threading cannot move a last bit. They write to ``OUT_DIR/parent/<name>``
and ``OUT_DIR/change/<name>``, and ``compare_outputs.py`` (next to this
script) compares each pair. The twelve commands are the four presets, ``run``
on ``DENSE_CELL_CONFIG`` from ``bench/workloads.py``, ``run`` on
``BASE_POINT`` (no swept axis), ``run`` on ``DOWNLINK_INNER`` (one
trial's user pool serves points with different stacks), ``run`` on
``NON_SQUARE_SCALE`` under ``--scale`` (a non-square output layer that
``--scale`` must keep within the training budget), ``run`` on
``NARROW_INPUT_SCALE`` under ``--scale`` (a 1x8 input layer that ``--scale``
must not widen), ``run`` on ``NON_SQUARE_INNER_SCALE`` under ``--scale`` (a
2x19 inner layer whose short side is below the longest boundary side), and
``run`` on the one-point synthesis configs ``BARE_SYNTH`` (grids aligned by
index) and ``BARE_SYNTH_CENTERED`` (grids aligned by their centers).

Each side runs its own tree's configs: the battery reads ``CONFIGS`` from
``<tree>/tools/equivalence.py`` and ``DENSE_CELL_CONFIG`` from
``<tree>/bench/workloads.py`` and writes them to ``OUT_DIR/<side>/<key>.json``,
so a change to the config format is compared against a parent that reads its
own form. A command whose config one tree does not define fails with a
message naming it. The exit status is 0 only when every command succeeded and
every output record is identical. Uses the standard library only.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

COMPARE = Path(__file__).resolve().with_name("compare_outputs.py")


def one_point_synthesis(stack: dict, max_iterations: int, master_seed: int) -> dict:
    """A single synthesis as a ``run`` config: trial 0 of one ``synth_convergence``
    point. Synthesis never reads a scenario, so the config has none."""
    return {
        "kind": "synth_convergence",
        "stack": stack,
        "sweep": {},
        "trial_count": 1,
        "master_seed": master_seed,
        "pgd": {"max_iterations": max_iterations},
    }


# Q=25, one amplitude-controlled and three phase-controlled layers. An
# amplitude sits on a bound of the fixed range in 299 of its 300 iterations.
BARE_SYNTH = one_point_synthesis(
    {"input_shape": [3, 3], "inner_shape": [5, 5], "output_shape": [3, 3], "ac_layers": 1, "pc_layers": 3},
    max_iterations=300,
    master_seed=4,
)

# Q=36, grids aligned by their centers: odd input and even inner sides give
# half-integer in-plane offsets between them.
BARE_SYNTH_CENTERED = one_point_synthesis(
    {
        "input_shape": [3, 3],
        "inner_shape": [6, 6],
        "output_shape": [2, 2],
        "ac_layers": 1,
        "pc_layers": 2,
        "centered_alignment": True,
    },
    max_iterations=200,
    master_seed=5,
)

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

# A 1x8 input layer (Z=8) over the default 2x2 feed, one trial of 20
# iterations, run at --scale 0.25: it shrinks to 1x4, which still has a cell
# per antenna, and no side may grow past its unscaled length.
NARROW_INPUT_SCALE = {
    "kind": "sumrate_vs_users",
    "stack": {"input_shape": [1, 8], "inner_shape": [8, 8], "output_shape": [3, 3], "ac_layers": 1, "pc_layers": 3},
    "scenario": {"user_count": 40, "slot_count": 2, "streams": 4},
    "sweep": {},
    "pgd": {"max_iterations": 20},
}

# A 1x8 input, 2x19 inner and 2x2 output layer over the default 2x2 feed,
# 1 AC + 2 PC layers, one slot, one trial of 20 iterations, run at --scale
# 0.25: the inner layer's 2-cell short side is below the longest scaled
# boundary side (4), yet the layer has more cells than either boundary layer.
NON_SQUARE_INNER_SCALE = {
    "kind": "sumrate_vs_users",
    "stack": {
        "input_shape": [1, 8],
        "inner_shape": [2, 19],
        "output_shape": [2, 2],
        "ac_layers": 1,
        "pc_layers": 2,
        "slot_count": 1,
    },
    "scenario": {"user_count": 40, "slot_count": 1, "streams": 4},
    "sweep": {},
    "pgd": {"max_iterations": 20},
}

# The config files the battery writes, by placeholder; "dense_cell" is read
# from bench/workloads.py. Each tree is run on its own copy of both.
CONFIGS = {
    "base_point": BASE_POINT,
    "downlink_inner": DOWNLINK_INNER,
    "non_square_scale": NON_SQUARE_SCALE,
    "narrow_input_scale": NARROW_INPUT_SCALE,
    "non_square_inner_scale": NON_SQUARE_INNER_SCALE,
    "bare_synth": BARE_SYNTH,
    "bare_synth_centered": BARE_SYNTH_CENTERED,
}

# name -> CLI arguments; "{dense_cell}" and each "{<key of CONFIGS>}" stand
# for the config files.
BATTERY = {
    "fig3": ["fig3", "--seed", "1", "--trials", "1", "--scale", "0.25"],
    "fig4": ["fig4", "--trials", "1", "--scale", "0.3"],
    "fig5": ["fig5", "--seed", "42", "--trials", "2", "--scale", "0.25"],
    "fig6": ["fig6", "--trials", "1", "--scale", "0.25"],
    "dense-cell": ["run", "{dense_cell}", "--seed", "0", "--trials", "1", "--scale", "0.5"],
    "base-point": ["run", "{base_point}"],
    "downlink-inner": ["run", "{downlink_inner}"],
    "non-square-scale": ["run", "{non_square_scale}", "--scale", "0.25"],
    "narrow-input-scale": ["run", "{narrow_input_scale}", "--scale", "0.25"],
    "non-square-inner-scale": ["run", "{non_square_inner_scale}", "--scale", "0.25"],
    "synth": ["run", "{bare_synth}"],
    "synth-centered": ["run", "{bare_synth_centered}"],
}


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def tree_configs(tree: Path) -> dict:
    """Each placeholder's config as ``tree`` defines it."""
    dense_cell = _load(tree / "bench" / "workloads.py", "workloads").DENSE_CELL_CONFIG
    return {"dense_cell": dense_cell, **_load(tree / "tools" / "equivalence.py", "tree_equivalence").CONFIGS}


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
    paths = {}
    for side, tree in trees.items():
        (out_dir / side).mkdir(parents=True, exist_ok=True)
        paths[side] = {}
        for key, config in tree_configs(tree).items():
            paths[side][key] = out_dir / side / f"{key}.json"
            paths[side][key].write_text(json.dumps(config, indent=1) + "\n")

    failures = 0
    for name, template in BATTERY.items():
        print(f"== {name}: stacksim {' '.join(template)}", flush=True)
        lacking = [
            f"{side} tree defines no config {{{key}}}"
            for side in trees
            for key in re.findall(r"\{(\w+)\}", " ".join(template))
            if key not in paths[side]
        ]
        if lacking:
            print("\n".join(lacking))
            failures += 1
            continue
        runs = {}
        for side, tree in trees.items():
            target = out_dir / side / name
            shutil.rmtree(target, ignore_errors=True)
            log = out_dir / f"{side}-{name}.log"
            runs[side] = (start(tree, [arg.format(**paths[side]) for arg in template], target, log), log)
        for side, (process, log) in runs.items():
            if process.wait() != 0:
                print(f"{side} run failed with status {process.returncode}; last output:\n{log.read_text()[-2000:]}")
        if any(process.returncode for process, _ in runs.values()):
            failures += 1
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
