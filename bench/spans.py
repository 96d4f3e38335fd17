"""In-memory spans around calls into each layer, written out at exit.

A span is (name, start, end, parent, window): the window id is the
identifier every span of one window shares, the parent is the span that
was open when this one started.  Spans live in a list until the run
ends; :meth:`Tracer.write` turns them into Chrome trace events (open
the file at https://ui.perfetto.dev).  A layer's *self time* is its
spans' duration minus the part their direct children cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, window id, lane]
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, window: int, lane: str):
        parent = self._open[-1] if self._open else -1
        record = [name, perf_counter(), 0.0, parent, window, lane]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def leaf(self, name: str, start: float, end: float, window: int, lane: str) -> None:
        """A childless span timed by the caller (per-document calls,
        where a context manager would cost as much as the call)."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent, window, lane])

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, children's time taken out."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _window, _lane in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _parent, _window, _lane) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
        return totals

    def write(self, path: str, metadata: dict) -> None:
        origin = min((span[1] for span in self.spans), default=0.0)
        tids = {lane: i + 1 for i, lane in enumerate(sorted({s[5] for s in self.spans}))}
        events = [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid, "args": {"name": lane}}
            for lane, tid in tids.items()
        ]
        for index, (name, start, end, parent, window, lane) in enumerate(self.spans):
            events.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": name.split(".")[0],
                    "pid": 1,
                    "tid": tids[lane],
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "args": {"window": window, "span": index, "parent": parent},
                }
            )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "metadata": metadata}, handle)
