"""In-memory spans around the benchmark's calls into the program.

A span is (name, start, end, parent).  Its layer is the name's prefix up
to the first dot, named after the program module the call enters
(``cdc.apply_events`` -> ``cdc``).  A span's self time is its duration
minus the time its direct children cover.  With tracing off, ``span`` is
a no-op and nothing is recorded.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.bookkeeping_s = 0.0  # the tracer's own time

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        t = time.perf_counter()
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        start = time.perf_counter()
        self.bookkeeping_s += start - t
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans[idx][1], self.spans[idx][2] = start, end
            self._stack.pop()
            self.bookkeeping_s += time.perf_counter() - end

    def _self_times(self) -> list[tuple[str, float]]:
        child = [0.0] * len(self.spans)
        for name, s, e, parent in self.spans:
            if parent is not None:
                child[parent] += e - s
        return [(sp[0], sp[2] - sp[1] - c) for sp, c in zip(self.spans, child)]

    def self_times(self, name: str) -> list[float]:
        """Self time of every span called ``name``, in call order."""
        return [t for n, t in self._self_times() if n == name]

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, t in self._self_times():
            out[name.split(".", 1)[0]] += t
        return dict(out)
