"""The Assigner bolt (Fig. 2): routes documents to Joiners.

Besides plain routing via the :class:`~repro.partitioning.router.DocumentRouter`,
the Assigner implements the dynamics of Section VI-A:

* documents carrying unseen AV-pairs are emitted to **all** Joiners (the
  exactness fallback) and the pairs are counted; once a pair has been
  seen δ times the Assigner requests a partition *update* from the
  Merger (pairs seen fewer than δ times are treated as unique events);
* at every window boundary the observed replication and maximal
  processing load are compared against the Merger's estimates shipped
  with the current partitions; an increase beyond the threshold θ
  triggers a **repartitioning** request, which makes the
  PartitionCreators sample the next window.

Before the first partitions arrive (the bootstrap window) every document
is broadcast, preserving exactness at worst-case replication.
"""

from __future__ import annotations

from typing import Optional

from repro.core.document import AVPair
from repro.obs.registry import NULL_REGISTRY
from repro.partitioning.router import DocumentRouter
from repro.streaming.component import Bolt, Collector, ComponentContext
from repro.streaming.tuples import StreamTuple
from repro.topology import messages as msg


class AssignerBolt(Bolt):
    """Routing + partition-quality monitoring component."""

    def __init__(self, theta: float = 0.2, delta: int = 3):
        if theta < 0:
            raise ValueError(f"theta must be non-negative, got {theta}")
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        self.theta = theta
        self.delta = delta
        self._task_index = 0
        self._n_joiners = 0
        self._all_joiners: tuple[int, ...] = ()
        self._router: Optional[DocumentRouter] = None
        self._current: Optional[msg.PartitionSet] = None
        self._unseen_counts: dict[AVPair, int] = {}
        self._requested: set[AVPair] = set()
        self._repartition_pending = False
        self._metrics = NULL_REGISTRY
        self._obs = False
        self._update_counter = NULL_REGISTRY.counter("assigner.update_requests")
        self._repartition_counter = NULL_REGISTRY.counter(
            "assigner.repartition_triggers"
        )
        self._reset_window_counters()

    def _reset_window_counters(self) -> None:
        self._docs = 0
        self._assignments = 0
        self._broadcasts = 0
        self._machine_counts = [0] * self._n_joiners

    def prepare(self, context: ComponentContext) -> None:
        self._task_index = context.task_index
        self._n_joiners = context.parallelism_of(msg.JOINER)
        self._all_joiners = tuple(range(self._n_joiners))
        metrics = context.metrics
        self._metrics = metrics
        self._obs = metrics.enabled
        # Replication counters: one per target machine (how many document
        # copies each partition attracted), plus routing-wide totals.
        self._doc_counter = metrics.counter("assigner.documents")
        self._assignment_counter = metrics.counter("assigner.assignments")
        self._broadcast_counter = metrics.counter("assigner.broadcasts")
        self._machine_counters = [
            metrics.counter("assigner.machine_docs", machine=i)
            for i in range(self._n_joiners)
        ]
        self._update_counter = metrics.counter("assigner.update_requests")
        self._repartition_counter = metrics.counter("assigner.repartition_triggers")
        self._reset_window_counters()

    # ------------------------------------------------------------------
    def process(self, tup: StreamTuple, collector: Collector) -> None:
        if tup.stream == msg.DOCS:
            self._on_document(tup, collector)
        elif tup.stream == msg.WINDOW_END:
            self._on_window_end(tup, collector)
        elif tup.stream == msg.PARTITIONS:
            self._on_partitions(tup)
        elif tup.stream == msg.PARTITION_UPDATE:
            self._on_partition_update(tup)

    # ------------------------------------------------------------------
    def _on_document(self, tup: StreamTuple, collector: Collector) -> None:
        document, window_id, side = tup.values
        if self._router is None:
            targets: tuple[int, ...] = self._all_joiners
            broadcast = True
        else:
            decision = self._router.route(document)
            targets = decision.targets
            broadcast = decision.broadcast
            if decision.unseen_pairs:
                self._count_unseen(decision.unseen_pairs, document, collector)
        self._docs += 1
        self._assignments += len(targets)
        self._broadcasts += 1 if broadcast else 0
        if self._obs:
            self._doc_counter.inc()
            self._assignment_counter.inc(len(targets))
            if broadcast:
                self._broadcast_counter.inc()
        machine_counts = self._machine_counts
        for target in targets:
            machine_counts[target] += 1
        collector.emit_fanout(msg.ASSIGNED, (document, window_id, side), targets)

    def _count_unseen(self, unseen, document, collector: Collector) -> None:
        for pair in unseen:
            if pair in self._requested:
                continue
            count = self._unseen_counts.get(pair, 0) + 1
            self._unseen_counts[pair] = count
            if count >= self.delta:
                self._requested.add(pair)
                del self._unseen_counts[pair]
                self._update_counter.inc()
                co_pairs = tuple(
                    p for p in document.avpairs() if p != pair
                )
                collector.emit(
                    msg.CONTROL,
                    (
                        msg.ControlMessage(
                            kind="update",
                            window_id=-1,
                            pair=pair,
                            co_pairs=co_pairs,
                        ),
                    ),
                )

    def _on_window_end(self, tup: StreamTuple, collector: Collector) -> None:
        (window_id,) = tup.values
        triggered = False
        if (
            self._router is not None
            and self._current is not None
            and self._docs > 0
        ):
            observed_replication = self._assignments / self._docs
            observed_max_load = max(self._machine_counts) / self._docs
            baseline = self._current
            replication_degraded = observed_replication > (
                baseline.baseline_replication * (1.0 + self.theta)
            )
            load_degraded = observed_max_load > (
                baseline.baseline_max_load * (1.0 + self.theta)
            )
            if replication_degraded or load_degraded:
                triggered = True
                self._repartition_counter.inc()
                collector.emit(
                    msg.CONTROL,
                    (msg.ControlMessage(kind="repartition", window_id=window_id),),
                )
        collector.emit(
            msg.ASSIGNER_STATS,
            (
                msg.AssignerWindowStats(
                    window_id=window_id,
                    task_index=self._task_index,
                    documents=self._docs,
                    assignments=self._assignments,
                    machine_counts=tuple(self._machine_counts),
                    broadcasts=self._broadcasts,
                    triggered_repartition=triggered,
                ),
            ),
        )
        collector.emit(msg.WINDOW_DONE, (window_id,))
        if self._obs:
            # per-machine copies, added once per window instead of once
            # per target per document
            for counter, count in zip(self._machine_counters, self._machine_counts):
                counter.inc(count)
        self._reset_window_counters()

    def _on_partitions(self, tup: StreamTuple) -> None:
        (partition_set,) = tup.values
        self._current = partition_set
        if self._router is not None:
            # repartitioning: rebuild the owner maps in place so anything
            # holding a router reference survives the swap
            self._router.swap(
                partition_set.partitions, partition_set.expansion
            )
        else:
            self._router = DocumentRouter(
                partition_set.partitions, expansion=partition_set.expansion
            )
        self._unseen_counts.clear()
        self._requested.clear()

    def _on_partition_update(self, tup: StreamTuple) -> None:
        pair, partition_index = tup.values
        if self._router is not None:
            self._router.add_pair(pair, partition_index)
        self._unseen_counts.pop(pair, None)
        self._requested.add(pair)
