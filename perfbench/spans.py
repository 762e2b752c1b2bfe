"""Spans around the benchmark's calls into the program, kept in memory.

A span is (name, start, end, parent, op): start and end are
`time.perf_counter()` seconds, parent is the index of the enclosing span
(-1 at the top) and op the index of the operation it belongs to.  A
layer's self time is its spans' durations minus what their direct
children cover.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            i = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.op])
            self.stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[i][2] = time.perf_counter()

        return traced

    def self_times(self) -> dict:
        """Seconds of self time summed per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - c)
        return out

    def write(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)


class TracedPlugin:
    """A theory plugin whose three calls are spans; propagate sees no change."""

    def __init__(self, tracer: Tracer, prefix: str, inner):
        self.name = inner.name
        self.is_convex = inner.is_convex
        self.assert_literals = tracer.wrap(prefix + ".check", inner.assert_literals)
        self.implied_equalities = tracer.wrap(prefix + ".implied", inner.implied_equalities)
        self.model_fragment = tracer.wrap(prefix + ".fragment", inner.model_fragment)
