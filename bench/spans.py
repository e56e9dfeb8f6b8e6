"""In-memory spans and counters for the traced run.

A span is one public call into the program, recorded from the benchmark's
side: name (``layer.operation``), start, end, parent span and item id.  The
layer is the part of the name before the first dot.  Nothing is written out
until the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, item]
        self.counts = []     # (name, value) events, in order
        self.item = None
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), None, parent, self.item]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def count(self, name, value=1):
        self.counts.append((name, value))

    def mark(self):
        return len(self.spans), len(self.counts)

    def rollback(self, mark):
        """Forget the spans and counts recorded since ``mark``; only closed
        spans may be forgotten."""
        nspans, ncounts = mark
        del self.spans[nspans:]
        del self.counts[ncounts:]

    def totals(self):
        """Per span name: (inclusive seconds, self seconds, calls).  Self
        time is the span's duration minus the durations of its children."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += end - start
            row[1] += end - start - child[index]
            row[2] += 1
        return dict(out)

    def counters(self):
        out = defaultdict(int)
        for name, value in self.counts:
            out[name] += value
        return dict(out)
