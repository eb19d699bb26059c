"""In-memory spans recorded by the benchmark around calls into each layer.

A span is a name, a start, an end and the span that caused it.  A
layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so nested spans never count twice and
the self times of one op add up to the op's duration.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int | None] = []
        self.starts: list[float] = []
        self.ends: list[float] = []

    def add(
        self, name: str, start: float, end: float, parent: int | None = None
    ) -> int:
        """Record a finished span; returns its id."""
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        self.names.append(name)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.names) - 1

    def begin(self, name: str, parent: int | None = None) -> int:
        """Open a span now; close it with :meth:`end`."""
        return self.add(name, time.perf_counter(), float("inf"), parent)

    def end(self, span: int) -> None:
        self.ends[span] = time.perf_counter()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        span = self.begin(name, parent)
        try:
            yield span
        finally:
            self.end(span)

    def duration(self, span: int) -> float:
        return self.ends[span] - self.starts[span]

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span, parent in enumerate(self.parents):
            if parent is not None:
                children[parent].append((self.starts[span], self.ends[span]))
        result = []
        for span in range(len(self.names)):
            start, end = self.starts[span], self.ends[span]
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span, ())):
                low = max(child_start, cursor)
                high = min(child_end, end)
                if high > low:
                    covered += high - low
                    cursor = high
            result.append((end - start) - covered)
        return result

    def self_times_by_name(self) -> dict[str, list[float]]:
        """Self seconds of every span, grouped by span name."""
        grouped: dict[str, list[float]] = defaultdict(list)
        for name, seconds in zip(self.names, self.self_times()):
            grouped[name].append(seconds)
        return dict(grouped)
