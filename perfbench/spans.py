"""Job recording and span arithmetic for the traced run.

A span is one timed interval: a job (the root of its group) or one call
from the benchmark into a library layer (a child of its job). A span's
self time is its duration minus the part of it that its children cover,
so the job span's self time is the benchmark's own glue between calls.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

JOB = "job.self"


class Job:
    """Outputs, checks and (when traced) spans of one job execution."""

    def __init__(self, traced: bool):
        self.spans: list[tuple[str, float, float]] | None = [] if traced else None
        self.counts: dict[str, float] = {}
        self.exact: list[tuple[str, object]] = []
        self.mc: list[tuple[str, object, Fraction]] = []
        self.checks: list[tuple[str, bool]] = []

    def call(self, name: str, fn, *args, **kwargs):
        if self.spans is None:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter()))

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


@dataclass(frozen=True)
class Span:
    id: int
    group: int
    parent: int | None
    name: str
    start: float
    end: float


def job_spans(group: int, start: float, end: float, calls, first_id: int) -> list[Span]:
    """The job span and its call spans, from (name, start, end) triples."""
    root = Span(first_id, group, None, JOB, start, end)
    return [root] + [Span(first_id + 1 + i, group, root.id, name, s, e)
                     for i, (name, s, e) in enumerate(calls)]


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for s, e in sorted(intervals):
        if reach is None or s > reach:
            total += e - s
            reach = e
        elif e > reach:
            total += e - reach
            reach = e
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children[span.id]]
        out[span.id] = (span.end - span.start) - _covered([(s, e) for s, e in clipped if e > s])
    return out


def busy_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time summed per span name."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += own[span.id]
    return dict(out)


def total_seconds(spans: list[Span]) -> float:
    """Summed duration of the root spans, i.e. total job time."""
    return sum(s.end - s.start for s in spans if s.parent is None)


def shares(busy: dict[str, float], total: float) -> dict[str, float]:
    return {name: (s / total if total > 0 else 0.0) for name, s in busy.items()}
