"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when this one started, or -1.  Spans are kept in a list while
the run goes on and written out once, at the end, so recording one costs two
clock reads and a list append.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent]
        self.counts: dict[str, list[int]] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, value: int) -> None:
        """Record a work count measured at a layer boundary."""
        self.counts.setdefault(name, []).append(int(value))

    def durations_ms(self, name: str) -> list[float]:
        return [1000.0 * (end - start) for n, start, end, _ in self.spans if n == name]

    def median_ms(self, name: str) -> float:
        return statistics.median(self.durations_ms(name))

    def write(self, path: str) -> None:
        """One JSON object per line: name, start and end in seconds, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
