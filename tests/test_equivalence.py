"""The equivalence battery's configs are read as its commands read them, so a
config the package no longer accepts fails here rather than in a battery run.
``DENSE_CELL_CONFIG`` is the benchmark's, checked in ``test_bench_hooks.py``."""

import importlib.util
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
