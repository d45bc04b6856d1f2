"""The equivalence battery's configs are read as its commands read them, so a
config the package no longer accepts fails here rather than in a battery run.
``DENSE_CELL_CONFIG`` is the benchmark's, checked in ``test_bench_hooks.py``."""

import importlib.util
import re
from pathlib import Path

import pytest

from stacksim import harness
from stacksim.cli import _SynthConfig
from stacksim.errors import read_object
from stacksim.stack import StackDescription

_SPEC = importlib.util.spec_from_file_location(
    "equivalence", Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"
)
equivalence = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(equivalence)

CONFIG_COMMANDS = [
    (name, args[0], key)
    for name, args in equivalence.BATTERY.items()
    for key in re.findall(r"\{(\w+)\}", " ".join(args))
    if key != "dense_cell"
]


@pytest.mark.parametrize("name, command, key", CONFIG_COMMANDS, ids=[name for name, _, _ in CONFIG_COMMANDS])
def test_battery_config_is_valid(name, command, key):
    data = equivalence.CONFIGS[key]
    if command == "run":
        assert harness.validate_config(harness.config_from_dict(data)) == []
    else:
        assert command == "synth"
        config = _SynthConfig(**read_object("synth config", data, _SynthConfig))
        assert StackDescription(**read_object("stack", config.stack, StackDescription)).validate() == []
        harness.check_pgd_block(config.pgd)
