"""Span tracer that wraps the program's public functions from outside.

Each wrapped function is replaced, on the module that looks it up at call
time, by a wrapper that records a span (name, start, end, parent).  Nothing
inside the program changes; removing the wrappers restores the original
objects.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, failed]
        self._stack = []
        self._patches = []       # (module, attribute, original)

    def wrap(self, module, attribute, name):
        """Replace `module.attribute` by a span-recording wrapper."""
        original = getattr(module, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, time.perf_counter(), None, parent, False]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                return original(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        self._patches.append((module, attribute, original))
        setattr(module, attribute, wrapper)

    def unwrap_all(self):
        for module, attribute, original in reversed(self._patches):
            setattr(module, attribute, original)
        self._patches.clear()

    def summary(self, since: int = 0) -> dict:
        """Per name, over the spans from index `since` on: calls, failed
        calls, total seconds and self seconds (minus direct children)."""
        spans = self.spans[since:]
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent is not None and parent >= since:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0})
        for offset, (name, start, end, _parent, failed) in enumerate(spans):
            entry = out[name]
            entry["calls"] += 1
            entry["failed"] += int(failed)
            entry["s"] += end - start
            entry["self_s"] += end - start - child[since + offset]
        return out

    def time_inside(self, parent_name, child_names, since: int = 0) -> float:
        """Seconds spent in spans named `child_names` directly under `parent_name`."""
        return sum(
            end - start for name, start, end, parent, _ in self.spans[since:]
            if name in child_names and parent is not None and self.spans[parent][0] == parent_name
        )

    def to_json(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "failed": f}
            for n, s, e, p, f in self.spans
        ]
