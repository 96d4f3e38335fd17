"""The Joiner bolt (Fig. 2): per-machine windowed FP-tree join.

Each Joiner task owns one partition's documents.  Within a tumbling
window it follows the probe-then-insert discipline of Section V: every
arriving document is matched against the documents the task received
earlier (FPTreeJoin) and then stored, so it can join with forthcoming
documents.  When window-done markers from *all* Assigners have arrived,
the task reports its window statistics and gives the window up.

The Joiner tasks of one executor do not each keep a tree: they share a
:class:`JoinerGroup` of owner-tagged indexes
(:class:`~repro.join.shared_index.SharedWindowIndex`).  A document
assigned to k co-located tasks is probed and inserted once and every
task still gets exactly the partners its private joiner would have
returned, so per-machine results are unchanged.  All indexes intern
into one pair dictionary
(:func:`~repro.core.interning.process_interner`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.interning import process_interner
from repro.join.base import JoinPair
from repro.join.binary import LEFT, RIGHT, BinaryJoinPair
from repro.join.shared_index import SharedWindowIndex
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.streaming.component import Bolt, Collector, ComponentContext
from repro.streaming.tuples import StreamTuple, owners_of
from repro.topology import messages as msg

#: an arrival's indexes: the one it is stored into, the one it probes
Indexes = tuple[SharedWindowIndex, SharedWindowIndex]


class JoinerGroup:
    """The indexes shared by the Joiner tasks of one executor: one per
    open tumbling window, one per side of an open two-stream window (an
    arrival probes the other side's), or one sliding extent for the
    executor's lifetime, in which each task expires its own documents.

    ``build_topology`` hands one group to every :class:`JoinerBolt` of a
    topology; it is deliberately not module-global, because two sessions
    alive in one interpreter reuse window ids and doc ids.  A group
    pickles *empty*: the tasks shipped to a socket worker in one
    ``WorkerInit`` (or to a move's destination in one ``adopt``) arrive
    sharing one fresh group, whatever the sender's group held.  A forked
    worker inherits the parent's group, which is empty: the parent runs
    no Joiner task, and a degraded worker's copies (an ``InlineLink``'s)
    have a group of their own.

    A window's indexes are dropped when the last owner that fed them
    tumbles that window.  One evicted index is kept as a spare and
    reused for the next window, unless the Merger shipped another
    attribute order or the process dictionary started a new generation
    since it was built.  A task moves to another worker only at a
    drained window boundary, when it holds nothing here any more; the
    tasks it joins there take it into their group, so "one index per
    executor" holds after a move.
    """

    def __init__(self) -> None:
        #: window id -> side -> that side's indexes
        self._open: dict[int, dict[Optional[str], Indexes]] = {}
        #: sliding mode: side None -> the one index, for every window
        self._sliding: Optional[dict[None, Indexes]] = None
        self._spare: Optional[SharedWindowIndex] = None

    def __reduce__(self) -> tuple:
        return (JoinerGroup, ())

    def indexes(self, window_id: int, side, bolt: "JoinerBolt") -> Indexes:
        """The indexes of an arrival on ``side`` of ``window_id``, opened
        in ``bolt``'s mode and under its attribute order if new."""
        sides = self._sliding or self._open.get(window_id)
        if sides is None:
            if bolt.binary:
                left, right = self._fresh(bolt), self._fresh(bolt)
                sides = {LEFT: (left, right), RIGHT: (right, left)}
            else:
                index = self._fresh(bolt, bolt.sliding_size)
                sides = {None: (index, index)}
            if bolt.sliding_size is None:
                self._open[window_id] = sides
            else:
                self._sliding = sides
        return sides[side]

    def _fresh(self, bolt: "JoinerBolt", extent=None) -> SharedWindowIndex:
        interner = process_interner()
        index, self._spare = self._spare, None
        if (
            index is None
            or index.order is not bolt._order
            or index.tree.interner is not interner
        ):
            # Use the Merger's sample-derived global order (Section V-A)
            # when available; until the first partitions arrive
            # attributes are ordered by name, which is slower but
            # equally correct.
            index = SharedWindowIndex(bolt._order, bolt._metrics, interner, extent)
        return index

    def release(self, window_id: int, owner: int) -> None:
        """``owner`` tumbled ``window_id``."""
        sides = self._open.get(window_id)
        if sides is None:
            return
        stores = [store for store, _ in sides.values()]
        if all([store.release(owner) for store in stores]):  # each side records it
            del self._open[window_id]
            # tumbling semantics: evict the entire tree (Section V-A)
            for store in stores:
                store.reset()
            self._spare = stores[-1]

    def __len__(self) -> int:
        """Open tumbling windows."""
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
        The executor's shared indexes (a bolt built without one makes a
        private group), in every mode.  A task still sees only its own
        documents: a sliding extent stays "the last N documents *of this
        task*", and a two-stream task probes the other side's documents
        that reached it.
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
        self._group = group if group is not None else JoinerGroup()
        self._n_assigners = 0
        self._task_index = 0
        self._docs = 0
        self._pair_count = 0
        self._pairs: set[JoinPair | BinaryJoinPair] = set()
        self._done_markers: dict[int, int] = {}
        self._order = None
        self._metrics = NULL_REGISTRY

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a subclass that redefines what one delivery does must see
        # every delivery: it keeps the per-task fan-out unless it says
        # how to serve several tasks at once itself
        if "process" in cls.__dict__ and "process_fanout" not in cls.__dict__:
            cls.process_fanout = Bolt.process_fanout

    def prepare(self, context: ComponentContext) -> None:
        self._task_index = context.task_index
        self._n_assigners = context.parallelism_of(msg.ASSIGNER)
        self._metrics = context.metrics

    def join_executor(self, resident, metrics: MetricsRegistry) -> None:
        self._metrics = metrics
        if resident is not None:
            self._group = resident._group

    # ------------------------------------------------------------------
    def process_fanout(
        self, tup: StreamTuple, mask: int, tasks, collectors
    ) -> bool:
        """One document assigned to several co-located tasks: index it
        once and hand every task its own partners."""
        if tup.stream != msg.ASSIGNED:
            return False
        self._arrive(tup.values, mask, tasks)
        return True

    def _arrive(self, values: tuple, mask: int, tasks) -> None:
        """The document of ``values`` reached the tasks in ``mask``
        (``tasks`` by task index).  It reaches a task once only (the
        Assigner emits one tuple per target machine); a second arrival
        is rejected before anything is counted."""
        if not self.compute_joins:
            for owner in owners_of(mask):
                tasks[owner]._docs += 1
            return
        document, window_id, side = values
        store, probe = self._group.indexes(window_id, side, self)
        for owner, partners in store.arrive_many(document, mask, probe):
            bolt = tasks[owner]
            bolt._docs += 1
            if partners:
                bolt._add_partners(document.doc_id, side, partners)

    def _add_partners(self, doc_id: int, side, partners: list[int]) -> None:
        self._pair_count += len(partners)
        if not self.collect_pairs:
            return
        for partner in partners:
            if side is None:
                self._pairs.add(JoinPair.of(partner, doc_id))
            elif side == LEFT:
                self._pairs.add(BinaryJoinPair(doc_id, partner))
            else:
                self._pairs.add(BinaryJoinPair(partner, doc_id))

    def process(self, tup: StreamTuple, collector: Collector) -> None:
        if tup.stream == msg.ASSIGNED:
            self._arrive(tup.values, 1 << self._task_index, {self._task_index: self})
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
        self._group.release(window_id, self._task_index)
