"""The equivalence battery's configs are read as its commands read them, so a
config the package no longer accepts fails here rather than in a battery run.
``DENSE_CELL_CONFIG`` is the benchmark's, checked in ``test_bench_hooks.py``.
The battery runs each tree on that tree's own configs, checked on two small
temporary trees."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from stacksim import harness

_SPEC = importlib.util.spec_from_file_location(
    "equivalence", Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"
)
equivalence = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(equivalence)

CONFIG_COMMANDS = [
    (name, key)
    for name, args in equivalence.BATTERY.items()
    for key in re.findall(r"\{(\w+)\}", " ".join(args))
    if key != "dense_cell"
]


@pytest.mark.parametrize("name, key", CONFIG_COMMANDS, ids=[name for name, _ in CONFIG_COMMANDS])
def test_battery_config_is_valid(name, key):
    assert equivalence.BATTERY[name][0] == "run"
    assert harness.validate_config(harness.config_from_dict(equivalence.CONFIGS[key])) == []


def make_tree(root: Path, configs: dict) -> Path:
    """A tree that runs this checkout's package on its own battery configs."""
    for folder in ("src", "tools", "bench"):
        (root / folder).mkdir(parents=True)
    (root / "src" / "stacksim").symlink_to(Path(harness.__file__).parent)
    (root / "tools" / "equivalence.py").write_text(f"CONFIGS = {configs!r}\n")
    (root / "bench" / "workloads.py").write_text("DENSE_CELL_CONFIG = {}\n")
    return root


TINY_SYNTH = equivalence.one_point_synthesis(
    {"input_shape": [2, 1], "inner_shape": [2, 2], "output_shape": [2, 1], "ac_layers": 1, "pc_layers": 2,
     "upa_shape": [1, 1]},
    max_iterations=3,
    master_seed=1,
)


def test_each_tree_runs_its_own_configs(monkeypatch, tmp_path, capsys):
    # The parent's config names the default scenario that older trees
    # required; the change's omits it. Each side runs its own form.
    parent = make_tree(tmp_path / "parent", {"tiny": {**TINY_SYNTH, "scenario": {"user_count": 1}}})
    change = make_tree(tmp_path / "change", {"tiny": TINY_SYNTH})
    monkeypatch.setattr(equivalence, "BATTERY", {"tiny": ["run", "{tiny}"]})
    out = tmp_path / "out"
    assert equivalence.main([str(parent), str(change), str(out)]) == 0, capsys.readouterr().out
    assert "scenario" in json.loads((out / "parent" / "tiny.json").read_text())
    assert json.loads((out / "change" / "tiny.json").read_text()) == TINY_SYNTH
    assert (out / "change" / "tiny" / "trace_base_trial0.csv").exists()


def test_config_one_tree_lacks_fails_its_command(monkeypatch, tmp_path, capsys):
    parent = make_tree(tmp_path / "parent", {})
    change = make_tree(tmp_path / "change", {"tiny": TINY_SYNTH})
    monkeypatch.setattr(equivalence, "BATTERY", {"tiny": ["run", "{tiny}"]})
    assert equivalence.main([str(parent), str(change), str(tmp_path / "out")]) == 1
    printed = capsys.readouterr().out
    assert "parent tree defines no config {tiny}" in printed
    assert "1 commands, 1 with a failure or a difference" in printed
    assert not (tmp_path / "out" / "change" / "tiny").exists()
