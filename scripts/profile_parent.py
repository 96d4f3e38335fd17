"""Profile the parent-side data plane over a benchmark-shaped session.

``make profile-parent`` runs this: the session the repo benchmark's
parallel workloads run (``bench/workloads.py``: m = 8 AG, **joins on**,
2 pipe or socket workers, rwData windows of 500 documents or nbData
windows of 250) pushed through :class:`StreamJoinSession` — 4 warm-up
windows, then N windows under cProfile (worker processes are *not*
profiled).  Next to the top cumulative rows it prints what the parent
shipped per document: entries (one per (document, worker) reached),
frames per window and frame bytes — the numbers worker-granular
fan-out is about.  Perf PRs against the parent loop start here.

Usage::

    PYTHONPATH=src python scripts/profile_parent.py [--data rw|nb]
        [--transport pipe|socket] [--windows N] [--top 25]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from time import perf_counter, process_time

from repro import StreamJoinConfig, StreamJoinSession
from repro.data.nobench import NoBenchGenerator
from repro.data.serverlogs import ServerLogGenerator
from repro.streaming.transport.framing import BufferFrame

WARMUP_WINDOWS = 4
#: documents per window, as in bench/workloads.py
WINDOW_DOCS = {"rw": 500, "nb": 250}


class CountingLink:
    """Counts what the cluster stages on one worker link."""

    def __init__(self, link, totals: dict):
        self._link = link
        self._totals = totals

    def _count(self, message) -> None:
        if not isinstance(message, BufferFrame):
            return
        slots = message.envelope[2]
        totals = self._totals
        totals["frames"] += 1
        totals["entries"] += slots if type(slots) is int else len(slots)
        totals["bytes"] += sum(memoryview(part).nbytes for part in message.parts())

    def send(self, message):
        self._count(message)
        self._link.send(message)

    def stage(self, message):
        self._count(message)
        self._link.stage(message)

    def __getattr__(self, name):
        return getattr(self._link, name)


def run_once(data: str, transport: str, windows: int, profiler=None) -> dict:
    """Push ``WARMUP_WINDOWS`` + ``windows`` windows through one
    benchmark-shaped session and return what the parent shipped over the
    measured windows: ``frames``, ``entries`` and frame ``bytes``, next
    to ``docs``, ``wall`` and parent ``cpu`` seconds and the run's
    ``replication``.  ``profiler`` (a ``cProfile.Profile``) is enabled
    over the measured windows only."""
    generator = (ServerLogGenerator if data == "rw" else NoBenchGenerator)(seed=7)
    size = WINDOW_DOCS[data]
    stream = [generator.next_window(size) for _ in range(WARMUP_WINDOWS + windows)]
    session = StreamJoinSession(
        StreamJoinConfig(
            m=8,
            algorithm="AG",
            compute_joins=True,
            backend="parallel",
            transport=transport,
            workers=2,
        )
    )
    totals = {"frames": 0, "entries": 0, "bytes": 0}
    cluster = session._cluster
    spawn = cluster._transport.spawn
    cluster._transport.spawn = lambda init: CountingLink(spawn(init), totals)

    for window in stream[:WARMUP_WINDOWS]:
        session.push_window(window)
    totals.update(frames=0, entries=0, bytes=0)
    if profiler is not None:
        profiler.enable()
    wall, cpu = perf_counter(), process_time()
    for window in stream[WARMUP_WINDOWS:]:
        session.push_window(window)
    cluster.drain()
    wall, cpu = perf_counter() - wall, process_time() - cpu
    if profiler is not None:
        profiler.disable()
    result = session.result()
    return {
        **totals,
        "docs": windows * size,
        "wall": wall,
        "cpu": cpu,
        "replication": result.summary().replication,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default="rw", choices=("rw", "nb"))
    parser.add_argument("--transport", default="pipe", choices=("pipe", "socket"))
    parser.add_argument("--windows", type=int, default=40)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()

    profiler = cProfile.Profile()
    run = run_once(args.data, args.transport, args.windows, profiler)
    docs = run["docs"]
    print(
        f"# {args.data} x {args.transport}2, joins on: {docs} docs over "
        f"{args.windows} windows, {docs / run['wall']:.0f} docs/s and "
        f"{run['cpu'] / docs * 1e6:.1f} parent CPU us/doc under the profiler"
    )
    print(
        f"# replication {run['replication']:.2f} copies/doc -> "
        f"{run['entries'] / docs:.2f} entries/doc (incl. control tuples), "
        f"{run['frames'] / args.windows:.1f} frames/window, "
        f"{run['bytes'] / docs:.0f} frame bytes/doc"
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
