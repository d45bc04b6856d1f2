"""Self-time arithmetic of the span recorder."""

import itertools
import types

import pytest

import spans
from spans import Patches, Span, SpanRecorder, covered_time, self_time, tracing_overhead, union_length, wrapper_cost


@pytest.fixture
def ticking_clock(monkeypatch):
    """perf_counter that advances by exactly 1 per reading."""
    ticks = itertools.count()
    monkeypatch.setattr(spans, "time", types.SimpleNamespace(perf_counter=lambda: float(next(ticks))))


def test_union_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([(1.0, 4.0), (2.0, 3.0)]) == 3.0


def test_self_time_subtracts_children_once():
    recorded = [
        Span("parent", 0.0, 10.0, None),
        Span("child", 1.0, 3.0, 0),
        Span("child", 4.0, 7.0, 0),
        Span("grandchild", 5.0, 6.0, 2),
    ]
    assert self_time(recorded, 0) == 10.0 - 2.0 - 3.0
    assert self_time(recorded, 2) == 3.0 - 1.0
    assert self_time(recorded, 3) == 1.0
    assert covered_time(recorded, ["child", "grandchild"]) == 5.0


def test_nested_wrappers_record_parents(ticking_clock):
    """slot_response -> compose_space_block, both wrapped where the caller looks them up."""
    recorder = SpanRecorder()
    program = types.SimpleNamespace()
    program.compose_space_block = lambda: "block"
    program.slot_response = lambda: (program.compose_space_block(), program.compose_space_block())

    with Patches() as patches:
        patches.set(program, "compose_space_block", recorder.wrap(program.compose_space_block, "compose"))
        patches.set(program, "slot_response", recorder.wrap(program.slot_response, "slot_response"))
        top = recorder.begin("main")
        program.slot_response()
        recorder.end(top)

    names = [(s.name, s.parent) for s in recorder.spans]
    assert names == [("main", None), ("slot_response", 0), ("compose", 1), ("compose", 1)]
    # Clock readings: main 0..7, slot_response 1..6, compose 2..3 and 4..5.
    assert [s.duration for s in recorder.spans] == [7.0, 5.0, 1.0, 1.0]
    assert self_time(recorder.spans, 1) == 3.0
    assert self_time(recorder.spans, 0) == 2.0
    assert covered_time(recorder.spans, ["slot_response", "compose"]) == 5.0
    assert program.compose_space_block() == "block"  # original restored
    assert len(recorder.spans) == 4


def test_span_closes_when_the_call_raises(ticking_clock):
    recorder = SpanRecorder()

    def fails():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        recorder.wrap(fails, "fails")()
    assert recorder.spans[0].duration == 1.0
    assert recorder.begin("next") == 1
    assert recorder.spans[1].parent is None


def test_annotate_time_is_counted_as_tracing(ticking_clock):
    recorder = SpanRecorder()
    recorder.wrap(lambda: 3, "f", lambda attrs, args, kwargs, result: attrs.update(count=result))()
    # Clock readings: span 0..1, annotate 2..3.
    assert recorder.spans[0].attrs == {"count": 3}
    assert recorder.annotate_s == 1.0


def test_tracing_overhead_is_tracing_time_over_untraced_time():
    # 1000 spans at 2 us plus 1 ms of annotation in a 1.003 s traced run.
    assert tracing_overhead(1000, 2e-6, 1e-3, 1.003) == pytest.approx(3e-3 / 1.0)
    assert 0.0 < wrapper_cost(calls=2000, repeats=3) < 1e-3


def test_hooks_nest_on_the_real_package():
    from stacksim import harness, pgd, stack
    from stacksim.randomizer import draw_slot_phases
    from stacksim.stack import StackDescription, build_stack

    from tracing import install_hooks

    small = build_stack(
        StackDescription(input_shape=(2, 2), inner_shape=(3, 3), output_shape=(2, 2), ac_layers=1, pc_layers=2)
    )
    small.set_slot_phases(draw_slot_phases(small.slot_count, small.input_size, 4))
    recorder = SpanRecorder()
    with Patches() as patches:
        assert install_hooks(recorder, {"harness": harness, "pgd": pgd, "stack": stack}, patches) == []
        harness.slot_response(small, 0)
    assert harness.slot_response is stack.slot_response

    by_name = {s.name: i for i, s in enumerate(recorder.spans)}
    outer, inner = by_name["stack.slot_response"], by_name["stack.compose_space_block"]
    assert recorder.spans[inner].parent == outer
    parent = recorder.spans[outer]
    assert self_time(recorder.spans, outer) == pytest.approx(parent.duration - recorder.spans[inner].duration)
    assert covered_time(recorder.spans, ["stack.slot_response", "stack.compose_space_block"]) == parent.duration
