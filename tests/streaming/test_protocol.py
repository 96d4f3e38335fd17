"""The window protocol's pure cores under a model check.

A hypothesis state machine drives one :class:`Journal` per worker slot,
the cluster's :class:`StickyLog` and its :class:`BarrierTracker` the way
``ParallelCluster`` does — deliver a tuple to a set of tasks (cut per
worker into its buffer), ship a worker's buffer as a batch, ack it,
close a window under a barrier, complete it, kill a worker and replay
its history over a fresh link, move tasks between workers at a drained
window boundary — against a model of every link's in-flight replies,
and checks after every step that

* the journals hold exactly the shipped batches whose barrier has not
  completed, each task's entries on the task's current worker and in
  delivery order;
* the sticky log's replay for each task of a worker is that task's
  sticky deliveries of completed windows, in order, whichever worker
  held the task when they were made — and a replay, to a replacement or
  to a move's destination, rebuilds exactly its tasks;
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

from repro.streaming.protocol import BarrierTracker, Journal, StickyLog
from repro.streaming.tuples import StreamTuple, lowest_owner, owners_of

WORKERS = 3
TASKS = 6
COMPONENT = "joiner"
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
        self.buffers: list[list] = [[] for _ in range(WORKERS)]
        self.pending: list[set[int]] = [set() for _ in range(WORKERS)]
        #: batch seqs whose replies are in flight on each live link, FIFO
        self.links: list[deque] = [deque() for _ in range(WORKERS)]
        #: task -> worker; the last slot starts empty (a scale-up target)
        self.owner = {task: task % (WORKERS - 1) for task in range(TASKS)}
        self.tracker = BarrierTracker()
        self.log = StickyLog()
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

    def _deliveries(self, task: int) -> list:
        """``(seq, uid, sticky)`` of every shipped delivery to ``task``,
        whichever worker it went to, in order."""
        return [
            (seq, uid, is_sticky)
            for seq in sorted(self.shipped)
            for t, uid, is_sticky in self.shipped[seq]
            if t == task
        ]

    def _ship(self, worker: int) -> None:
        entries, self.buffers[worker] = self.buffers[worker], []
        self.seq += 1
        self.journals[worker].batches[self.seq] = entries
        self.pending[worker].add(self.seq)
        self.links[worker].append(self.seq)
        self.shipped[self.seq] = [
            (task, tup.values[0], tup.stream == "control")
            for _component, _lowest, tup, mask in entries
            for task in owners_of(mask)
        ]

    def _ack(self, worker: int) -> None:
        seq = self.links[worker].popleft()
        self.pending[worker].discard(seq)
        suppressed = self.journals[worker].suppressed(seq)
        assert suppressed == (seq in self.applied)
        if not suppressed:
            self.applied.add(seq)
            self.stashed.add(seq)
            self.tracker.stash(seq, ((seq,),))

    def _replay(self, worker: int, tasks, batches) -> None:
        """What ``ParallelCluster._ship_history`` sends; it must rebuild
        exactly ``tasks``: their sticky deliveries of completed windows,
        then everything of the open ones."""
        sticky = self.log.replay({COMPONENT: sum(1 << task for task in tasks)})
        sent = per_task([(0, sticky)] + batches)
        assert set(sent) <= set(tasks)
        for task in tasks:
            assert [uid for _seq, uid in sent.get(task, [])] == [
                uid
                for seq, uid, is_sticky in self._deliveries(task)
                if seq > self.cleared or is_sticky
            ]
        if sticky:
            self.seq += 1
            self.applied.add(self.seq)
            batches = [(self.seq, sticky), *batches]
        for seq, _entries in batches:
            self.journals[worker].reship(seq, self.pending[worker])
            self.links[worker].append(seq)

    @rule(mask=SUBSET, sticky=st.booleans())
    def deliver(self, mask, sticky):
        self.uid += 1
        tup = StreamTuple("control" if sticky else "data", (self.uid,), "src", 0)
        if sticky:
            self.log.record(self.seq + 1, COMPONENT, mask, tup)
        for worker in range(WORKERS):
            own = mask & self._mask(worker)
            if own:
                self.buffers[worker].append((COMPONENT, lowest_owner(own), tup, own))

    @rule(worker=WORKER)
    def ship(self, worker):
        if self.buffers[worker]:
            self._ship(worker)

    @precondition(lambda self: any(self.links))
    @rule(data=st.data())
    def ack(self, data):
        live = [w for w in range(WORKERS) if self.links[w]]
        self._ack(data.draw(st.sampled_from(live)))

    @rule()
    def close_window(self):
        """Flush every buffer, then record a barrier over all of it."""
        for worker in range(WORKERS):
            if self.buffers[worker]:
                self._ship(worker)
        if self.seq > self.recorded:
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
        self.log.through = window.seq
        released = [emission[0] for emission in window.emissions]
        assert released == sorted(
            seq for seq in self.stashed if self.cleared < seq <= window.seq
        )
        order = self.released + released
        assert all(a < b for a, b in zip(order, order[1:]))
        self.released = order
        self.cleared = window.seq

    @rule()
    def drain(self):
        """What an elastic decision does first: close the window, then
        complete every outstanding barrier, taking each ack in turn."""
        self.close_window()
        while self.tracker.open:
            while not self.tracker.ready(self.pending):
                self._ack(next(w for w in range(WORKERS) if self.links[w]))
            self.complete()

    @rule(worker=WORKER)
    def kill(self, worker):
        self.links[worker].clear()
        journal = self.journals[worker]
        journal.link_lost(self.pending[worker])
        tasks = [task for task, w in self.owner.items() if w == worker]
        self._replay(worker, tasks, list(journal.batches.items()))

    @precondition(
        lambda self: not any(self.pending)
        and not self.tracker.open
        and not any(self.buffers)
        and all(seq <= self.cleared for seq in self.shipped)
    )
    @rule(src=WORKER, dst=WORKER, data=st.data())
    def move(self, src, dst, data):
        """A task move at a drained window boundary: nothing is owed
        and no journal holds an entry, so only the sticky cut ships."""
        own = self._mask(src)
        if src == dst or not own:
            return
        assert not any(journal.batches for journal in self.journals)
        moving = own & data.draw(SUBSET) or own & -own
        for task in owners_of(moving):
            self.owner[task] = dst
        self._replay(dst, owners_of(moving), [])

    @invariant()
    def journals_hold_the_unbarriered_batches_per_task(self):
        for worker, journal in enumerate(self.journals):
            assert all(seq > self.cleared for seq in journal.batches)
            held = per_task(journal.batches.items())
            for task in range(TASKS):
                mine = self.owner[task] == worker
                assert held.get(task, []) == [
                    (seq, uid)
                    for seq, uid, _ in self._deliveries(task)
                    if mine and seq > self.cleared
                ]

    @invariant()
    def the_log_replays_each_task_its_cleared_sticky_deliveries(self):
        for worker in range(WORKERS):
            mask = self._mask(worker)
            replayed = per_task([(0, self.log.replay({COMPONENT: mask}))])
            assert set(replayed) <= set(owners_of(mask))
            for task in owners_of(mask):
                assert [uid for _, uid in replayed.get(task, [])] == [
                    uid
                    for seq, uid, is_sticky in self._deliveries(task)
                    if is_sticky and seq <= self.cleared
                ]

    @invariant()
    def every_owed_reply_is_in_flight(self):
        for worker, journal in enumerate(self.journals):
            link = self.links[worker]
            assert self.pending[worker] <= set(link)
            for seq in set(link):
                owed = seq in journal.suppress
                assert link.count(seq) == owed + (seq not in self.applied)


TestWindowProtocol = WindowProtocol.TestCase
TestWindowProtocol.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)


def test_record_numbers_the_windows_it_closes():
    """A barrier recorded while older ones are outstanding still gets
    the next window index; completion pops the oldest."""
    tracker = BarrierTracker()
    assert tracker.record(5) == 0
    # the barrier is recorded but not complete; routing runs ahead
    assert tracker.record(9) == 1
    assert tracker.ready([{7}]) and not tracker.ready([{4, 7}])
    assert tracker.complete().seq == 5
    assert tracker.record(12) == 2
    assert [tracker.complete().seq, tracker.complete().seq] == [9, 12]
    assert tracker.completed == 3 and not tracker.ready([])


def test_the_log_cuts_each_entry_by_the_receiving_tasks():
    tup = StreamTuple("control", (1,), "src", 0)
    log = StickyLog()
    log.record(1, COMPONENT, 0b0111, tup)
    log.record(3, COMPONENT, 0b0100, tup)
    log.record(4, COMPONENT, 0b1111, tup)  # not yet covered by a barrier
    log.through = 3
    assert log.replay({COMPONENT: 0b0110}) == [
        (COMPONENT, 1, tup, 0b0110), (COMPONENT, 2, tup, 0b0100)
    ]
    assert log.replay({COMPONENT: 0b1000}) == []
    assert log.replay({"other": 0b1111}) == []
