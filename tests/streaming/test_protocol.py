"""The window protocol's pure cores under a model check.

A hypothesis state machine drives one :class:`Journal` per worker slot
and the cluster's :class:`BarrierTracker` the way ``ParallelCluster``
does — ship a batch, ack it, record a barrier, complete it, kill a
worker and replay its history over a fresh link, migrate tasks off a
drained worker — against a model of every link's in-flight replies, and
checks after every step that

* the journals hold exactly the shipped batches whose barrier has not
  completed, each task's entries on the task's current worker and in
  delivery order (so splitting and merging keep per-task order), plus
  every sticky entry, of which replay sends those of completed windows;
* a barrier completes only once every batch it covers was acked;
* an ack applies iff it is the first for its batch — a replay of
  history that already took effect is always suppressed — and every
  pending batch still has a reply in flight, so no barrier waits on a
  dead link;
* releases are strictly seq-ordered and never pass an incomplete
  barrier.

No processes: everything is plain ints and lists.
"""

from collections import deque

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.streaming.protocol import BarrierTracker, Journal
from repro.streaming.tuples import StreamTuple, lowest_owner, owners_of

WORKERS = 3
TASKS = 6
COMPONENT = "joiner"
STICKY = frozenset({"control"})
WORKER = st.integers(0, WORKERS - 1)
SUBSET = st.integers(1, (1 << TASKS) - 1)


def per_task(batches) -> dict[int, list]:
    """``(seq, entries)`` pairs expanded to task -> [(seq, uid)]."""
    out: dict[int, list] = {}
    for seq, entries in batches:
        for component, task_index, tup, mask in entries:
            assert component == COMPONENT and task_index == lowest_owner(mask)
            for task in owners_of(mask):
                out.setdefault(task, []).append((seq, tup.values[0]))
    return out


class WindowProtocol(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.journals = [Journal() for _ in range(WORKERS)]
        self.pending: list[set[int]] = [set() for _ in range(WORKERS)]
        #: batch seqs whose replies are in flight on each live link, FIFO
        self.links: list[deque] = [deque() for _ in range(WORKERS)]
        #: task -> worker; the last slot starts empty (a scale-up target)
        self.owner = {task: task % (WORKERS - 1) for task in range(TASKS)}
        self.tracker = BarrierTracker()
        self.seq = 0
        self.uid = 0
        self.recorded = 0
        self.cleared = 0
        #: shipped batch seq -> [(task, uid, sticky)] in delivery order
        self.shipped: dict[int, list] = {}
        #: seqs whose effects took place (one applied ack, or replayed
        #: control history)
        self.applied: set[int] = set()
        self.stashed: set[int] = set()
        self.released: list[int] = []

    def _mask(self, worker: int) -> int:
        return sum(1 << task for task, w in self.owner.items() if w == worker)

    def _ack(self, worker: int) -> None:
        seq = self.links[worker].popleft()
        self.pending[worker].discard(seq)
        suppressed = self.journals[worker].suppressed(seq)
        assert suppressed == (seq in self.applied)
        if not suppressed:
            self.applied.add(seq)
            self.stashed.add(seq)
            self.tracker.stash(seq, ((seq,),))

    def _replay(self, worker: int, history, tasks) -> None:
        """What ``ParallelCluster._ship_history`` sends; it must rebuild
        exactly ``tasks``: the sticky entries of completed windows, then
        everything of the open ones."""
        sticky, batches = history
        sent = per_task([(0, sticky)] + batches)
        assert set(sent) <= set(tasks)
        for task in tasks:
            assert [uid for _seq, uid in sent.get(task, [])] == [
                uid
                for seq in sorted(self.shipped)
                for t, uid, is_sticky in self.shipped[seq]
                if t == task and (seq > self.cleared or is_sticky)
            ]
        if sticky:
            self.seq += 1
            self.applied.add(self.seq)
            batches.insert(0, (self.seq, sticky))
        for seq, _entries in batches:
            self.journals[worker].reship(seq, self.pending[worker])
            self.links[worker].append(seq)

    @rule(worker=WORKER, data=st.data())
    def ship(self, worker, data):
        own = self._mask(worker)
        if not own:
            return
        entries, deliveries = [], []
        for _ in range(data.draw(st.integers(1, 3))):
            mask = own & data.draw(SUBSET) or own & -own
            sticky = data.draw(st.booleans())
            self.uid += 1
            tup = StreamTuple("control" if sticky else "data", (self.uid,), "src", 0)
            entries.append((COMPONENT, lowest_owner(mask), tup, mask))
            deliveries.extend((task, self.uid, sticky) for task in owners_of(mask))
        self.seq += 1
        self.journals[worker].record(self.seq, entries, STICKY)
        self.pending[worker].add(self.seq)
        self.links[worker].append(self.seq)
        self.shipped[self.seq] = deliveries

    @precondition(lambda self: any(self.links))
    @rule(data=st.data())
    def ack(self, data):
        live = [w for w in range(WORKERS) if self.links[w]]
        self._ack(data.draw(st.sampled_from(live)))

    @precondition(lambda self: self.seq > self.recorded)
    @rule()
    def record_barrier(self):
        self.tracker.record(self.seq)
        self.recorded = self.seq

    @precondition(lambda self: self.tracker.ready(self.pending))
    @rule()
    def complete(self):
        window = self.tracker.complete()
        # nothing is cleared before its ack
        assert all(seq in self.applied for seq in self.shipped if seq <= window.seq)
        for journal in self.journals:
            journal.clear_through(window.seq)
        released = [emission[0] for emission in window.emissions]
        assert released == sorted(
            seq for seq in self.stashed if self.cleared < seq <= window.seq
        )
        order = self.released + released
        assert all(a < b for a, b in zip(order, order[1:]))
        self.released = order
        self.cleared = window.seq

    @rule(worker=WORKER)
    def kill(self, worker):
        self.links[worker].clear()
        journal = self.journals[worker]
        journal.link_lost(self.pending[worker])
        tasks = [task for task, w in self.owner.items() if w == worker]
        self._replay(worker, journal.history(), tasks)

    @rule(src=WORKER, dst=WORKER, data=st.data())
    def migrate(self, src, dst, data):
        own = self._mask(src)
        if src == dst or not own:
            return
        moving = own & data.draw(SUBSET) or own & -own
        while self.pending[src]:  # drain the source
            self._ack(src)
        moved = self.journals[src].split_off({COMPONENT: moving})
        self.journals[dst].merge(moved)
        for task in owners_of(moving):
            self.owner[task] = dst
        self._replay(dst, moved.history(), owners_of(moving))

    @invariant()
    def journals_hold_the_unbarriered_batches_per_task(self):
        for worker, journal in enumerate(self.journals):
            assert all(seq > self.cleared for seq in journal.batches)
            sticky, batches = journal.history()
            held = per_task(batches)
            replayed = per_task([(0, sticky)])
            kept = per_task((seq, [entry]) for seq, entry in journal.sticky)
            for task in range(TASKS):
                mine = self.owner[task] == worker
                deliveries = [
                    (seq, uid, is_sticky)
                    for seq in sorted(self.shipped)
                    for t, uid, is_sticky in self.shipped[seq]
                    if t == task and mine
                ]
                assert held.get(task, []) == [
                    (seq, uid) for seq, uid, _ in deliveries if seq > self.cleared
                ]
                assert kept.get(task, []) == [
                    (seq, uid) for seq, uid, is_sticky in deliveries if is_sticky
                ]
                assert [uid for _, uid in replayed.get(task, [])] == [
                    uid
                    for seq, uid, is_sticky in deliveries
                    if is_sticky and seq <= self.cleared
                ]

    @invariant()
    def every_owed_reply_is_in_flight(self):
        for worker, journal in enumerate(self.journals):
            link = self.links[worker]
            assert self.pending[worker] <= set(link)
            for seq in set(link):
                owed = journal.suppress.get(seq, 0)
                assert link.count(seq) == owed + (seq not in self.applied)


TestWindowProtocol = WindowProtocol.TestCase
TestWindowProtocol.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)


def test_deliveries_after_a_barrier_count_for_the_next_window():
    tracker = BarrierTracker()
    tracker.docs[("joiner", 0b11)] = 3
    tracker.record(5)
    # the barrier is recorded but not complete; routing runs ahead
    tracker.docs[("joiner", 0b11)] = tracker.docs.get(("joiner", 0b11), 0) + 1
    tracker.record(9)
    assert tracker.ready([{7}]) and not tracker.ready([{4, 7}])
    first = tracker.complete()
    second = tracker.complete()
    assert (first.index, first.seq, first.docs) == (
        0, 5, {("joiner", 0b11): 3},
    )
    assert (second.index, second.seq, second.docs) == (
        1, 9, {("joiner", 0b11): 1},
    )
