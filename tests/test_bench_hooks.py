"""What the benchmark uses of the package, checked in tier 1.

The benchmark's trace wraps package functions by name (``bench/tracing.py``'s
``HOOKS``); a hook whose name no longer exists is skipped, and the per-layer
metrics it fed read zero. Its workloads are CLI commands, one of them on a
config file, and its overhead check reads config leaves from ``summary.json``.
These tests fail when the package stops providing any of that."""

import hashlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from stacksim import harness, overhead, pgd, stack
from stacksim.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def load_bench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))  # bench modules import their siblings
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_hook_names_a_package_attribute(monkeypatch):
    hooks = load_bench(monkeypatch, "tracing").HOOKS
    modules = {"harness": harness, "pgd": pgd, "stack": stack}
    assert hooks
    assert [f"{module}.{attr}" for module, attr, _, _ in hooks if not hasattr(modules[module], attr)] == []
    # PgdWatch asks the run's PgdConfig for the box it checks the amplitudes against.
    assert callable(pgd.PgdConfig.bounds_for)


def test_every_workload_is_a_cli_command(monkeypatch, tmp_path):
    workloads = load_bench(monkeypatch, "workloads").WORKLOADS
    assert workloads
    for workload in workloads.values():
        name, *args = workload.argv(0, tmp_path)
        assert name in main.commands, workload.name
        # Parsing checks every option and that the config file argument exists.
        main.commands[name].make_context(name, args)


def test_dense_cell_config_is_valid(monkeypatch):
    config = harness.config_from_dict(load_bench(monkeypatch, "workloads").DENSE_CELL_CONFIG)
    assert harness.validate_config(config) == []


# SHA-256 of each config's synthesis keys, one per sweep point, joined by
# newlines, as recorded while the carrier and geometry were still stack fields.
# The target and PGD start seeds, and so every metric the benchmark reads
# against its reference, derive from these keys.
SYNTH_KEY_SHA256 = {
    "fig3": "f14f09ae9e2169ca954eb9b086b133b76ce3245c2110b9bdb61b134ce1fd4fdd",
    "fig4": "db1c001da748ee7c7ffac02e9a5fa862fe7a38675b700814b40b55aa4ec1f500",
    "fig5": "e01640ad927a7410809fa85aebcf64fdb54f83fe1ee667e0aa466e5d3cdc6417",
    "fig6": "9e81635d09431199ccdc37bb896ca7810f72d832e35782a305a8511f8ab6591a",
    "dense-cell": "edee2b2847b5c75543f7e06bd0b55492878ff7ac9c5abc5e466e7fa43dc5bb0a",
}


@pytest.mark.parametrize("source", SYNTH_KEY_SHA256)
def test_synthesis_seed_keys_unchanged(monkeypatch, source):
    if source == "dense-cell":
        config = harness.config_from_dict(load_bench(monkeypatch, "workloads").DENSE_CELL_CONFIG)
    else:
        config = harness.PRESETS[source]
    keys = [harness._synth_key(desc) for _, desc, _ in harness.sweep_points(config)]
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == SYNTH_KEY_SHA256[source]


@pytest.mark.parametrize("source", ["dense-cell", "fig5", "fig4"])
def test_summary_config_keeps_overhead_leaves(monkeypatch, source):
    # bench/checks.check_overhead reads these leaves of summary.json's config,
    # on every workload: a synthesis run, whose config has no scenario, too.
    if source == "dense-cell":
        config = harness.config_from_dict(load_bench(monkeypatch, "workloads").DENSE_CELL_CONFIG)
    else:
        config = harness.PRESETS[source]
    written = json.loads(json.dumps(harness.config_to_dict(config)))
    assert written["stack"]["output_shape"] == list(config.stack.output_shape)
    assert written["scenario"]["streams"] == config.scenario.streams
    assert written["scenario"]["user_count"] == config.scenario.user_count
    assert written["scenario"]["slot_count"] == config.scenario.slot_count
    assert written["eta_feedback"] == config.eta_feedback
    # A record without sweep columns takes users and slots from the scenario.
    scenario = config.scenario
    output_size = math.prod(config.stack.output_shape)
    counts = overhead(scenario.streams, scenario.slot_count, scenario.user_count, output_size, config.eta_feedback)
    rows = [
        {"experiment": "x", "metric": metric, "value": repr(float(value)), "seed": "0", "elapsed_s": "0.0"}
        for metric, value in (
            ("overhead_train_partial", counts.train_partial),
            ("overhead_train_full", counts.train_full),
            ("overhead_feedback_partial", counts.feedback_partial),
            ("overhead_feedback_full", counts.feedback_full),
            ("training_budget_ok", counts.within_training_budget),
        )
    ]
    assert load_bench(monkeypatch, "checks").check_overhead(rows, written) == []


def test_bench_suite_passes():
    # The benchmark's own tests also break on a renamed package name they use.
    # They run in a separate process: bench/tests/conftest.py and
    # tests/conftest.py clash when collected in one session.
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/tests"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
