"""BENCHMARK.json names exactly what the benchmark code reports."""

import json
from pathlib import Path

from spans import Span
from tracing import layer_metrics
from workloads import WORKLOADS

MANIFEST = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_listed_workloads_exist():
    assert {listed["name"] for listed in MANIFEST["workloads"]} <= set(WORKLOADS)


def test_per_layer_metrics_match():
    reported = layer_metrics([Span("cli.main", 0.0, 1.0, None)], 0, [])
    expected = [(name, unit) for name, (_, unit) in reported.items()] + [("trace.overhead_frac", "ratio")]
    assert [(m["name"], m["unit"]) for m in MANIFEST["per_layer"]] == expected
