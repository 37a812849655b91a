"""Spans recorded by the benchmark around its calls into the program.

A span has a name, start, end, parent span and the trace id of the
workload replay it belongs to.  Spans stay in memory; ``run.py``
writes them to a JSON file when the run ends.  The layer of a span is
its name up to the first dot (``datasets.prepare`` -> ``datasets``); a
span whose name has no dot (the per-workload ``replay`` roots) belongs
to no layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    trace_id: str
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str | None:
        return self.name.split(".", 1)[0] if "." in self.name else None


class Tracer:
    """Records nested spans; ``enabled=False`` gives the same calls with
    no recording, for the tracing-overhead comparison."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trace_id = ""

    @contextmanager
    def trace(self, trace_id: str):
        """Root span of one workload replay; its spans share the id."""
        self._trace_id = trace_id
        with self.span("replay", workload=trace_id) as root:
            yield root

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(self._trace_id, len(self.spans), parent, name,
                 time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    return {s.span_id: s.duration - _covered(kids.get(s.span_id, []))
            for s in spans}


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        if s.layer is not None:
            out[s.layer] = out.get(s.layer, 0.0) + selfs[s.span_id]
    return out


def coverage(spans: list[Span]) -> float:
    """Summed layer self time over the summed wall of the replay roots."""
    roots = sum(s.duration for s in spans if s.parent is None)
    return sum(layer_self_times(spans).values()) / roots if roots else 0.0
