"""Incremental stream-join sessions — the one driver of the topology.

:func:`repro.topology.pipeline.run_stream_join` consumes a fully
materialized list of windows — fine for experiments, wrong for a live
deployment where windows arrive one at a time.  A
:class:`StreamJoinSession` keeps the topology alive between windows:
push each window as it closes, read its metrics immediately, and collect
the final result when done.  The batch runners are sessions too: they
push their windows the same way and return :meth:`StreamJoinSession.result`.

    session = StreamJoinSession(StreamJoinConfig(m=8, algorithm="AG"))
    for window in source:
        metrics = session.push_window(window)
        print(metrics.replication)
    result = session.result()
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.document import Document
from repro.metrics.report import WindowMetrics
from repro.obs.registry import MetricsRegistry, ObservabilitySnapshot
from repro.topology import messages as msg
from repro.topology.json_reader import DocumentSpout, Window
from repro.topology.pipeline import (
    StreamJoinConfig,
    StreamJoinResult,
    build_topology,
    make_cluster,
)
from repro.topology.sink import MetricsSinkBolt


class StreamJoinSession:
    """A live, incremental run of the Fig. 2 topology."""

    def __init__(self, config: StreamJoinConfig):
        self.config = config
        self._cluster = make_cluster(
            config,
            build_topology(config, []),
            MetricsRegistry() if config.observability else None,
        )
        # both live in this process on every backend
        self._spout: DocumentSpout = self._cluster.tasks(msg.READER)[0]
        self._sink: MetricsSinkBolt = self._cluster.tasks(msg.SINK)[0]
        self._next_window_id = 0
        self._closed = False

    def push_window(self, documents: Sequence[Document]) -> Optional[WindowMetrics]:
        """Feed one tumbling window and process it.

        On the local backend (and with ``pipeline_depth=0``) the window
        completes synchronously and its metrics are returned.  On a
        pipelined parallel backend the window may still be in flight
        when this returns — worker acks drain while the next window is
        routed — so the return value is the metrics of the *newest
        window finalized so far* (not necessarily this push's), or None
        while none has.  :meth:`result` runs the pipeline dry, so every
        pushed window's metrics appear in the final result either way.
        """
        if self.config.binary:
            raise ValueError(
                "binary mode needs side-tagged input; use run_binary_stream_join"
            )
        if not documents:
            raise ValueError("cannot push an empty window")
        return self._push([(document, None) for document in documents])

    def _push(self, window: Window) -> Optional[WindowMetrics]:
        """Feed one window of ``(document, side)`` items and process it;
        unlike :meth:`push_window` it takes empty windows and binary
        configs, as the batch runners need."""
        if self._closed:
            raise RuntimeError("session is closed")
        self._next_window_id += 1
        self._spout.feed(window)
        self._cluster.pump()
        # the sink holds pushed windows only, in window order
        finalized = self._sink.windows
        return finalized[-1] if finalized else None

    def observability(self) -> "ObservabilitySnapshot":
        """A live metric snapshot of the running session.

        Unlike :meth:`result` this does not close the session: call it
        between windows to sample counters and latency histograms while
        the stream keeps flowing (the soak driver does, every epoch).
        Successive snapshots are monotonic — window barriers never reset
        counters.  Requires ``config.observability``.
        """
        if not self.config.observability:
            raise ValueError(
                "session was built without observability; pass "
                "StreamJoinConfig(observability=True)"
            )
        return self._cluster.snapshot()

    def compact(self, retain_windows: int = 64) -> None:
        """Trim per-window history so an unbounded session stays bounded.

        A session accumulates one :class:`WindowMetrics` per pushed
        window (plus its repartition events) for :meth:`result` — fine
        for finite replay, a linear leak for windows-forever operation.
        ``compact`` drops all but the newest ``retain_windows`` entries;
        a later :meth:`result` then covers only the retained tail (its
        tuple accounting and observability snapshot still cover the
        whole run).  Joined pairs collected under ``collect_pairs`` are
        left untouched — bounded-memory soak runs should leave pair
        collection off.
        """
        if retain_windows < 1:
            raise ValueError(
                f"retain_windows must be >= 1, got {retain_windows}"
            )
        sink = self._sink
        if len(sink.windows) <= retain_windows:
            return
        sink.windows = sink.windows[-retain_windows:]
        oldest = sink.windows[0].window
        sink.repartition_events = {
            window: initial
            for window, initial in sink.repartition_events.items()
            if window >= oldest
        }

    def result(self) -> StreamJoinResult:
        """Close the session and return the accumulated results.

        Runs a pipelined parallel backend dry first, so windows still in
        flight are finalized before the sink is read.  The cluster is
        closed even when that fails."""
        self._closed = True
        cluster = self._cluster
        try:
            drain = getattr(cluster, "drain", None)
            if drain is not None:
                drain()
            sink = self._sink
            return StreamJoinResult(
                config=self.config,
                per_window=list(sink.windows),
                repartition_windows=sink.repartition_windows(),
                join_pairs=frozenset(sink.join_pairs),
                tuple_stats=cluster.stats(),
                observability=(
                    cluster.snapshot() if self.config.observability else None
                ),
                dead_letters=(
                    cluster.dead_letters.entries
                    if cluster.dead_letters is not None
                    else ()
                ),
            )
        finally:
            cluster.close()

    @property
    def windows_processed(self) -> int:
        return self._next_window_id
