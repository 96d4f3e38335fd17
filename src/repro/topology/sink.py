"""Metrics sink: aggregates per-window statistics from all components."""

from __future__ import annotations

from repro.join.base import JoinPair
from repro.metrics.gini import gini_coefficient
from repro.metrics.report import WindowMetrics
from repro.obs.registry import NULL_REGISTRY
from repro.streaming.component import Bolt, Collector, ComponentContext
from repro.streaming.tuples import StreamTuple
from repro.topology import messages as msg


class MetricsSinkBolt(Bolt):
    """Single-instance collector of Section VII-C measurements.

    A window is finalized once statistics from every Assigner and every
    Joiner arrived; the per-machine document counts are summed across
    Assigners before computing replication / Gini / maximal processing
    load, so the metrics describe the *global* window, not one Assigner's
    slice.
    """

    #: bucket bounds for the per-window quality histograms — replication
    #: ranges over [1, m], Gini and max load over [0, 1]
    REPLICATION_BUCKETS = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0)
    RATIO_BUCKETS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def __init__(self) -> None:
        self._n_assigners = 0
        self._n_joiners = 0
        self._assigner_stats: dict[int, list[msg.AssignerWindowStats]] = {}
        self._joiner_stats: dict[int, list[msg.JoinerWindowStats]] = {}
        #: window -> True when this was the initial partition creation
        self.repartition_events: dict[int, bool] = {}
        self.windows: list[WindowMetrics] = []
        self.join_pairs: set[JoinPair] = set()
        self._metrics = NULL_REGISTRY

    def prepare(self, context: ComponentContext) -> None:
        self._n_assigners = context.parallelism_of(msg.ASSIGNER)
        self._n_joiners = context.parallelism_of(msg.JOINER)
        metrics = context.metrics
        self._metrics = metrics
        self._window_counter = metrics.counter("sink.windows")
        self._pair_counter = metrics.counter("sink.join_pairs")
        self._replication_hist = metrics.histogram(
            "window.replication", buckets=self.REPLICATION_BUCKETS
        )
        self._gini_hist = metrics.histogram(
            "window.gini", buckets=self.RATIO_BUCKETS
        )
        self._max_load_hist = metrics.histogram(
            "window.max_load", buckets=self.RATIO_BUCKETS
        )

    def process(self, tup: StreamTuple, collector: Collector) -> None:
        if tup.stream == msg.ASSIGNER_STATS:
            (stats,) = tup.values
            self._assigner_stats.setdefault(stats.window_id, []).append(stats)
            self._maybe_finalize(stats.window_id)
        elif tup.stream == msg.JOIN_STATS:
            stats, pairs = tup.values
            self._joiner_stats.setdefault(stats.window_id, []).append(stats)
            if pairs:
                self.join_pairs.update(pairs)
            self._maybe_finalize(stats.window_id)
        elif tup.stream == msg.REPARTITION_EVENT:
            window_id, initial = tup.values
            self.repartition_events[window_id] = initial
            for window in self.windows:  # finalized before the event came
                if window.window == window_id and not initial:
                    window.repartitioned = True

    def _maybe_finalize(self, window_id: int) -> None:
        assigners = self._assigner_stats.get(window_id, [])
        joiners = self._joiner_stats.get(window_id, [])
        if len(assigners) < self._n_assigners or len(joiners) < self._n_joiners:
            return
        del self._assigner_stats[window_id]
        del self._joiner_stats[window_id]

        documents = sum(s.documents for s in assigners)
        assignments = sum(s.assignments for s in assigners)
        broadcasts = sum(s.broadcasts for s in assigners)
        machine_counts = [0] * self._n_joiners
        for stats in assigners:
            for machine, count in enumerate(stats.machine_counts):
                machine_counts[machine] += count
        if documents:
            loads = [count / documents for count in machine_counts]
            metrics = WindowMetrics(
                window=window_id,
                replication=assignments / documents,
                gini=gini_coefficient(loads),
                max_load=max(loads),
                documents=documents,
                repartitioned=self._was_repartitioned(window_id),
                broadcast_fraction=broadcasts / documents,
                join_pairs=sum(s.join_pairs for s in joiners),
                loads=loads,
            )
        else:  # an empty window: the batch runners pass them through
            metrics = WindowMetrics(
                window=window_id,
                replication=0.0,
                gini=0.0,
                max_load=0.0,
                documents=0,
                repartitioned=self._was_repartitioned(window_id),
            )
        if self._metrics.enabled:
            self._window_counter.inc()
            self._pair_counter.inc(metrics.join_pairs)
            self._replication_hist.observe(metrics.replication)
            self._gini_hist.observe(metrics.gini)
            self._max_load_hist.observe(metrics.max_load)
        self.windows.append(metrics)
        self.windows.sort(key=lambda w: w.window)

    def _was_repartitioned(self, window_id: int) -> bool:
        """True when a *non-initial* partition computation hit this window."""
        return not self.repartition_events.get(window_id, True)

    def repartition_windows(self) -> list[int]:
        """All windows in which partitions were (re)computed, incl. initial."""
        return sorted(self.repartition_events)
