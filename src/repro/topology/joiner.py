"""The Joiner bolt (Fig. 2): per-machine windowed FP-tree join.

Each Joiner instance owns one partition's documents.  Within a tumbling
window it follows the probe-then-insert discipline of Section V: every
arriving document is matched against the FP-tree (FPTreeJoin) and then
inserted, so it can join with forthcoming documents.  When window-done
markers from *all* Assigners have arrived, the Joiner reports its window
statistics and evicts the entire tree.

All Joiner tasks of a process intern into one pair dictionary
(:func:`~repro.core.interning.process_interner`), so the documents the
local Assigner fan-out or a decoded worker batch hands to several tasks
*as the same object* are interned and sorted once, by whichever task
sees them first.
"""

from __future__ import annotations

from typing import Optional

from repro.core.interning import PairInterner, process_interner
from repro.join.base import JoinPair
from repro.join.binary import BinaryJoinPair, BinaryStreamJoiner
from repro.join.fptree_join import FPTreeJoiner
from repro.join.ordering import AttributeOrder
from repro.join.sliding import SlidingFPTreeJoiner
from repro.obs.registry import NULL_REGISTRY
from repro.streaming.component import Bolt, Collector, ComponentContext
from repro.streaming.tuples import StreamTuple
from repro.topology import messages as msg


class JoinerBolt(Bolt):
    """FP-tree join executor for one partition.

    Parameters
    ----------
    compute_joins:
        When False the Joiner only counts assigned documents — partition
        experiments (Figs. 6-10) measure routing, not join output, and
        skipping the join keeps sweeps fast.
    collect_pairs:
        When True the actual joinable id pairs are retained and shipped
        with the window statistics — used by exactness tests to compare
        the distributed result against a single-node ground truth.
    sliding_size:
        When set, the Joiner runs the sliding-window extension instead of
        tumbling windows: state survives window boundaries and documents
        expire individually once ``sliding_size`` newer documents have
        been stored (Section V-A's deferred feature).  Note that sliding
        extents spanning a *repartitioning* lose the co-location
        guarantee for pairs straddling the partition change — exactness
        holds while partitions are stable, which is why the paper scopes
        its guarantees to tumbling windows.
    """

    def __init__(
        self,
        compute_joins: bool = True,
        collect_pairs: bool = False,
        sliding_size: Optional[int] = None,
        binary: bool = False,
    ):
        if sliding_size is not None and sliding_size <= 0:
            raise ValueError(f"sliding_size must be positive, got {sliding_size}")
        if binary and sliding_size is not None:
            raise ValueError("binary mode supports tumbling windows only")
        self.compute_joins = compute_joins
        self.collect_pairs = collect_pairs
        self.sliding_size = sliding_size
        self.binary = binary
        self._n_assigners = 0
        self._task_index = 0
        #: built on the first document after prepare, a new attribute
        #: order or a new dictionary generation; tumbling resets it
        self._joiner: Optional[
            FPTreeJoiner | SlidingFPTreeJoiner | BinaryStreamJoiner
        ] = None
        self._joiner_order: Optional[AttributeOrder] = None
        self._joiner_interner: Optional[PairInterner] = None
        self._docs = 0
        self._pair_count = 0
        self._pairs: set[JoinPair | BinaryJoinPair] = set()
        self._seen_doc_ids: set[int] = set()
        self._done_markers: dict[int, int] = {}
        self._order: Optional[AttributeOrder] = None
        self._metrics = NULL_REGISTRY

    def _fresh_joiner(self) -> FPTreeJoiner | SlidingFPTreeJoiner | BinaryStreamJoiner:
        # Use the Merger's sample-derived global order (Section V-A) when
        # available; until the first partitions arrive attributes are
        # ordered by name, which is slower but equally correct.
        order = self._joiner_order = self._order
        if self.sliding_size is not None:
            return SlidingFPTreeJoiner(self.sliding_size, order=order)
        interner = self._joiner_interner = process_interner()
        registry = self._metrics
        if self.binary:
            return BinaryStreamJoiner(
                lambda: FPTreeJoiner(order, registry=registry, interner=interner)
            )
        return FPTreeJoiner(order, registry=registry, interner=interner)

    def prepare(self, context: ComponentContext) -> None:
        self._task_index = context.task_index
        self._n_assigners = context.parallelism_of(msg.ASSIGNER)
        self._metrics = context.metrics

    # ------------------------------------------------------------------
    def process(self, tup: StreamTuple, collector: Collector) -> None:
        if tup.stream == msg.ASSIGNED:
            document, _window_id, side = tup.values
            self._docs += 1
            if not self.compute_joins:
                return
            joiner = self._joiner
            if joiner is None:
                joiner = self._joiner = self._fresh_joiner()
            if self.binary:
                cross_pairs = joiner.process(document, side)
                self._pair_count += len(cross_pairs)
                if self.collect_pairs:
                    self._pairs.update(cross_pairs)
            else:
                # A document can reach the same Joiner once only (the
                # Assigner emits one tuple per target machine), so no
                # dedup is needed within a machine.
                partners = joiner.probe(document)
                self._pair_count += len(partners)
                if self.collect_pairs:
                    assert document.doc_id is not None
                    for partner in partners:
                        self._pairs.add(JoinPair.of(partner, document.doc_id))
                joiner.add(document)
        elif tup.stream == msg.PARTITIONS:
            (partition_set,) = tup.values
            if partition_set.attribute_order is not None:
                self._order = partition_set.attribute_order
        elif tup.stream == msg.WINDOW_DONE:
            (window_id,) = tup.values
            count = self._done_markers.get(window_id, 0) + 1
            self._done_markers[window_id] = count
            if count >= self._n_assigners:
                del self._done_markers[window_id]
                self._tumble(window_id, collector)

    def _tumble(self, window_id: int, collector: Collector) -> None:
        stats = msg.JoinerWindowStats(
            window_id=window_id,
            task_index=self._task_index,
            documents=self._docs,
            join_pairs=self._pair_count,
        )
        payload = (stats, frozenset(self._pairs)) if self.collect_pairs else (stats, None)
        collector.emit(msg.JOIN_STATS, payload)
        self._docs = 0
        self._pair_count = 0
        self._pairs = set()
        if self._joiner is not None and self.sliding_size is None:
            # tumbling semantics: evict the entire tree (Section V-A);
            # a sliding joiner keeps its state across the boundary.  The
            # joiner itself is kept unless the Merger shipped another
            # order or the process dictionary started a new generation.
            if (
                self._joiner_order is self._order
                and self._joiner_interner is process_interner()
            ):
                self._joiner.reset()
            else:
                self._joiner = None
