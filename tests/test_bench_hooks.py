"""The benchmark's trace wraps package functions by name (``bench/tracing.py``'s
``HOOKS``); a hook whose name no longer exists is skipped, and the per-layer
metrics it fed read zero. This test fails on such a rename instead."""

import importlib.util
import sys
from pathlib import Path

from stacksim import harness, pgd, stack

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # tracing imports its sibling modules
    spec = importlib.util.spec_from_file_location("tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_hook_names_a_package_attribute(monkeypatch):
    hooks = load_tracing(monkeypatch).HOOKS
    modules = {"harness": harness, "pgd": pgd, "stack": stack}
    assert hooks
    assert [f"{module}.{attr}" for module, attr, _, _ in hooks if not hasattr(modules[module], attr)] == []
    # PgdWatch asks the run's PgdConfig for the box it checks the amplitudes against.
    assert callable(pgd.PgdConfig.bounds_for)
