"""In-memory span recorder and the self-time arithmetic over its spans.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when this one started, or ``None`` at the top level. Spans are
recorded by wrapping a function at the attribute its caller looks up, so the
traced program itself is not edited.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; ``open`` tracks the nesting of the current call stack.

    ``annotate_s`` is the time spent in ``annotate`` callbacks, which the
    traced program would not spend.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.annotate_s = 0.0

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def wrap(self, func, name: str, annotate=None):
        """``func`` recording one span per call; ``annotate(span_attrs, args,
        kwargs, result)`` may attach counts to the span."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(index)
            if annotate is not None:
                started = time.perf_counter()
                annotate(self.spans[index].attrs, args, kwargs, result)
                self.annotate_s += time.perf_counter() - started
            return result

        return traced


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one ``SpanRecorder.wrap`` wrapper adds to a call: the median,
    over ``repeats`` rounds, of the per-call difference between ``calls``
    calls to a wrapped and to a bare no-op."""

    def noop():
        return None

    costs = []
    for _ in range(repeats):
        traced = SpanRecorder().wrap(noop, "noop")
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - started - bare) / calls)
    return statistics.median(costs)


def tracing_overhead(span_count: int, cost: float, annotate_s: float, traced_wall: float) -> float:
    """Tracing time over the time the run would have taken untraced.

    ``cost`` is the calibrated seconds per span (``wrapper_cost``). Both the
    tracing time and the run time scale with the host's speed, so the ratio
    does not swing with it the way a traced against an untraced invocation
    would.
    """
    added = span_count * cost + annotate_s
    return added / (traced_wall - added)


class Patches:
    """Replaces module attributes and puts every original back on ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def children(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(index)
    return kids


def self_time(spans: list[Span], index: int, kids: dict[int, list[int]] | None = None) -> float:
    """Duration of span ``index`` minus the part of it its direct children cover.

    Grandchildren lie inside their parent, so subtracting the direct
    children's union already removes them.
    """
    kids = children(spans) if kids is None else kids
    span = spans[index]
    covered = [
        (max(spans[k].start, span.start), min(spans[k].end, span.end))
        for k in kids.get(index, ())
        if spans[k].end > span.start and spans[k].start < span.end
    ]
    return span.duration - union_length(covered)


def covered_time(spans: list[Span], names) -> float:
    """Time covered by spans whose name is in ``names``, counting nested ones once."""
    names = set(names)
    return union_length([(s.start, s.end) for s in spans if s.name in names])
