"""Span tracing by wrapping the program's public functions from outside.

``Tracer.wrap`` replaces module functions and class methods with wrappers
that record one span per call: (name, start, end, parent index).  Spans stay
in memory until the run ends.  Nothing in the program is edited; ``remove``
puts every original back.

Work that ``bench.run_suite`` does in its forked child is traced there too:
the wrapped ``bench.run_case`` collects the child's spans and counts and
sends them home inside the run record, under ``TRACE_KEY``.
"""

from __future__ import annotations

import os
import time
from collections import Counter

TRACE_KEY = "_perfbench_trace"

# span name -> layer is the part before the first dot
LAYERS = ("bench", "circuit", "cnf", "sim", "estimator", "heuristics",
          "solver", "drat")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list = []
        self._home_pid = os.getpid()

    # -- recording --------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def patch(self, owner, attr, new):
        """Replace ``owner.attr`` until ``remove``."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(self, owner, attr, name, on_result=None):
        """Record a span around every call of ``owner.attr``."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer._call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        self.patch(owner, attr, wrapper)

    def remove(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- forked children ----------------------------------------------------------

    def wrap_child_entry(self, owner, attr, name):
        """Wrap the function a forked child runs; ship its spans home."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() == tracer._home_pid:
                return tracer._call(name, fn, args, kwargs)
            tracer.spans, tracer.stack = [], []
            tracer.counts = Counter()
            record = tracer._call(name, fn, args, kwargs)
            record[TRACE_KEY] = {"spans": tracer.spans,
                                 "counts": dict(tracer.counts)}
            return record

        self.patch(owner, attr, wrapper)

    def adopt(self, record: dict, parent: int):
        """Merge the spans a child shipped in ``record`` under span ``parent``."""
        shipped = record.pop(TRACE_KEY, None)
        if shipped is None:
            return
        base = len(self.spans)
        for name, start, end, p in shipped["spans"]:
            self.spans.append((name, start, end, parent if p < 0 else base + p))
        self.counts.update(shipped["counts"])


def summarize(spans: list, wall: float) -> dict:
    """Inclusive time per span name, self time per layer, and the part of
    ``wall`` no top-level span covers."""
    inclusive: Counter = Counter()
    child_time: Counter = Counter()
    top = 0.0
    for name, start, end, parent in spans:
        dur = end - start
        inclusive[name] += dur
        if parent < 0:
            top += dur
        else:
            child_time[parent] += dur
    layer_self = {layer: 0.0 for layer in LAYERS}
    for idx, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        layer_self[layer] += (end - start) - child_time[idx]
    return {"inclusive": dict(inclusive), "layer_self": layer_self,
            "uncovered": wall - top}
