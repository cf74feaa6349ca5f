"""Spans recorded by the benchmark around its calls into each layer.

A span has a name, a start, an end, the index of the span that encloses it
and the operation it belongs to.  Spans stay in memory and are written out
when the run ends; ``self_times`` reduces them to the time each span spent
outside its children.  ``NullTracer`` is the untraced mode: the same calls,
nothing recorded.
"""

from __future__ import annotations

import json
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "start", "parent")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr.stack[-1] if tr.stack else -1
        tr.stack.append(len(tr.spans))
        tr.spans.append(None)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        index = tr.stack.pop()
        tr.spans[index] = (self.name, self.start, end, self.parent, tr.op)
        return False


class Tracer:
    """Records spans and counters; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.op = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict[str, list[float]]:
        """Seconds each span spent outside its child spans, grouped by name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child[i])
        return out

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = [list(s) for s in self.spans]
        doc["counts"] = self.counts
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _NoSpan:
    __slots__ = ("name",)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Untraced mode: spans and counters cost one call and record nothing."""

    op = -1

    def __init__(self):
        self._span = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._span

    def count(self, name: str, value: float = 1) -> None:
        pass
