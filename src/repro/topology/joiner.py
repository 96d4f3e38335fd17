"""The Joiner bolt (Fig. 2): per-machine windowed FP-tree join.

Each Joiner task owns one partition's documents.  Within a tumbling
window it follows the probe-then-insert discipline of Section V: every
arriving document is matched against the documents the task received
earlier (FPTreeJoin) and then stored, so it can join with forthcoming
documents.  When window-done markers from *all* Assigners have arrived,
the task reports its window statistics and gives the window up.

The Joiner tasks of one executor do not each keep a tree: they share a
:class:`JoinerGroup`, which holds **one owner-tagged index per open
window** (:class:`~repro.join.shared_index.SharedWindowIndex`).  A
document assigned to k co-located tasks is probed and inserted once and
every task still gets exactly the partners its private tree would have
returned, so per-machine results are unchanged.  All indexes intern
into one pair dictionary
(:func:`~repro.core.interning.process_interner`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.interning import process_interner
from repro.join.base import JoinPair
from repro.join.binary import BinaryJoinPair, BinaryStreamJoiner
from repro.join.fptree_join import FPTreeJoiner
from repro.join.ordering import AttributeOrder
from repro.join.shared_index import SharedWindowIndex
from repro.join.sliding import SlidingFPTreeJoiner
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.streaming.component import Bolt, Collector, ComponentContext
from repro.streaming.tuples import StreamTuple, owners_of
from repro.topology import messages as msg


class JoinerGroup:
    """The window indexes shared by the Joiner tasks of one executor.

    ``build_topology`` hands one group to every :class:`JoinerBolt` of a
    topology; it is deliberately not module-global, because two sessions
    alive in one interpreter reuse window ids and doc ids.  A group
    pickles *empty*: the tasks shipped to a socket worker in one
    ``WorkerInit`` (or to a migration target in one ``adopt``) arrive
    sharing one fresh group, whatever the sender's group held.  A forked
    worker inherits the parent's group, which is empty: the parent runs
    no Joiner task, and a degraded worker's copies (an ``InlineLink``'s)
    have a group of their own.

    An index is dropped when the last owner that fed it tumbles that
    window.  One evicted index is kept as a spare and reused for the
    next window, unless the Merger shipped another attribute order or
    the process dictionary started a new generation since it was built.
    A task migrated to another worker releases its open windows on the
    way out (:meth:`disown`), and the tasks it joins there take it into
    their group, so "one index per executor" holds after a migration.
    """

    def __init__(self) -> None:
        self._open: dict[int, SharedWindowIndex] = {}
        self._spare: Optional[SharedWindowIndex] = None

    def __reduce__(self) -> tuple:
        return (JoinerGroup, ())

    def index(
        self,
        window_id: int,
        order: Optional[AttributeOrder],
        registry: MetricsRegistry,
    ) -> SharedWindowIndex:
        """The index of ``window_id``, opened under ``order`` if new."""
        index = self._open.get(window_id)
        if index is None:
            interner = process_interner()
            index, self._spare = self._spare, None
            if (
                index is None
                or index.order is not order
                or index.tree.interner is not interner
            ):
                # Use the Merger's sample-derived global order (Section
                # V-A) when available; until the first partitions arrive
                # attributes are ordered by name, which is slower but
                # equally correct.
                index = SharedWindowIndex(order, registry=registry, interner=interner)
            self._open[window_id] = index
        return index

    def release(self, window_id: int, owner: int) -> None:
        """``owner`` tumbled ``window_id``."""
        index = self._open.get(window_id)
        if index is not None and index.release(owner):
            del self._open[window_id]
            # tumbling semantics: evict the entire tree (Section V-A)
            index.reset()
            self._spare = index

    def disown(self, owner: int) -> None:
        """``owner`` left this executor: it tumbles nothing here any more."""
        for window_id in list(self._open):
            self.release(window_id, owner)

    def __len__(self) -> int:
        """Open windows."""
        return len(self._open)


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
    group:
        The executor's shared window indexes; a bolt built without one
        makes a private group.  Only the tumbling self-join uses it:
        a sliding extent (the last N documents *of this task*) and the
        two per-stream stores of ``binary`` mode are per task by
        definition, so those modes keep a per-task joiner.
    """

    def __init__(
        self,
        compute_joins: bool = True,
        collect_pairs: bool = False,
        sliding_size: Optional[int] = None,
        binary: bool = False,
        group: Optional[JoinerGroup] = None,
    ):
        if sliding_size is not None and sliding_size <= 0:
            raise ValueError(f"sliding_size must be positive, got {sliding_size}")
        if binary and sliding_size is not None:
            raise ValueError("binary mode supports tumbling windows only")
        self.compute_joins = compute_joins
        self.collect_pairs = collect_pairs
        self.sliding_size = sliding_size
        self.binary = binary
        self._per_task = binary or sliding_size is not None
        self._group = group if group is not None else JoinerGroup()
        self._n_assigners = 0
        self._task_index = 0
        #: sliding / binary only: built on the first document after
        #: prepare; a binary joiner is rebuilt every window
        self._joiner: Optional[SlidingFPTreeJoiner | BinaryStreamJoiner] = None
        self._docs = 0
        self._pair_count = 0
        self._pairs: set[JoinPair | BinaryJoinPair] = set()
        self._done_markers: dict[int, int] = {}
        self._order: Optional[AttributeOrder] = None
        self._metrics = NULL_REGISTRY

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a subclass that redefines what one delivery does must see
        # every delivery: it keeps the per-task fan-out unless it says
        # how to serve several tasks at once itself
        if "process" in cls.__dict__ and "process_fanout" not in cls.__dict__:
            cls.process_fanout = Bolt.process_fanout

    def _fresh_joiner(self) -> SlidingFPTreeJoiner | BinaryStreamJoiner:
        order = self._order
        if self.sliding_size is not None:
            return SlidingFPTreeJoiner(self.sliding_size, order=order)
        interner = process_interner()
        registry = self._metrics
        return BinaryStreamJoiner(
            lambda: FPTreeJoiner(order, registry=registry, interner=interner)
        )

    def prepare(self, context: ComponentContext) -> None:
        self._task_index = context.task_index
        self._n_assigners = context.parallelism_of(msg.ASSIGNER)
        self._metrics = context.metrics

    def join_executor(self, resident: "JoinerBolt") -> None:
        self._group = resident._group

    def leave_executor(self) -> None:
        self._group.disown(self._task_index)

    # ------------------------------------------------------------------
    def process_fanout(
        self, tup: StreamTuple, mask: int, tasks, collectors
    ) -> bool:
        """One document assigned to several co-located tasks: index it
        once and hand every task its own partners."""
        if tup.stream != msg.ASSIGNED or self._per_task:
            return False
        if not self.compute_joins:
            for owner in owners_of(mask):
                tasks[owner]._docs += 1
            return True
        document, window_id, _side = tup.values
        index = self._group.index(window_id, self._order, self._metrics)
        for owner, partners in index.arrive_many(document, mask):
            bolt = tasks[owner]
            bolt._docs += 1
            if partners:
                bolt._add_partners(document, partners)
        return True

    def _add_partners(self, document, partners: list[int]) -> None:
        self._pair_count += len(partners)
        if self.collect_pairs:
            for partner in partners:
                self._pairs.add(JoinPair.of(partner, document.doc_id))

    def process(self, tup: StreamTuple, collector: Collector) -> None:
        if tup.stream == msg.ASSIGNED:
            document, window_id, side = tup.values
            if self.compute_joins and self._per_task:
                self._process_per_task(document, side)
            elif self.compute_joins:
                # A document can reach the same Joiner once only (the
                # Assigner emits one tuple per target machine), so no
                # dedup is needed within a machine; a second arrival is
                # rejected before anything is counted.
                index = self._group.index(window_id, self._order, self._metrics)
                ((_, partners),) = index.arrive_many(
                    document, 1 << self._task_index
                )
                self._add_partners(document, partners)
            self._docs += 1
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

    def _process_per_task(self, document, side) -> None:
        """Sliding and binary modes: probe-then-insert on this task's own joiner."""
        joiner = self._joiner
        if joiner is None:
            joiner = self._joiner = self._fresh_joiner()
        if self.binary:
            cross_pairs = joiner.process(document, side)
            self._pair_count += len(cross_pairs)
            if self.collect_pairs:
                self._pairs.update(cross_pairs)
        else:
            partners = joiner.probe(document)
            self._pair_count += len(partners)
            if self.collect_pairs:
                assert document.doc_id is not None
                for partner in partners:
                    self._pairs.add(JoinPair.of(partner, document.doc_id))
            joiner.add(document)

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
        if not self._per_task:
            self._group.release(window_id, self._task_index)
        elif self.binary:
            # tumbling semantics: evict both stores; the next window's
            # are built on the order and dictionary generation then in
            # force.  A sliding joiner keeps its state across the boundary.
            self._joiner = None
