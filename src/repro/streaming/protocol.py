"""Pure cores of the parallel backend's window protocol.

:class:`Journal` (one per worker slot), :class:`StickyLog` and
:class:`BarrierTracker` (one per cluster) hold the state behind the
per-window exactness of
:class:`~repro.streaming.parallel.ParallelCluster`: what was shipped and
must stay replayable until its barrier completes, which cross-window
control broadcasts a fresh executor needs first, which re-acks of
replayed history to drop, which barriers are outstanding and which
emissions wait for them.  They touch no process, link or clock, so tests
drive them with plain ints (``tests/streaming/test_protocol.py``
model-checks them).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, NamedTuple

from repro.streaming.tuples import StreamTuple, lowest_owner


class Journal:
    """Upstream backup of one worker slot.

    Entries are the cluster's raw ``(component, task_index, tup, mask)``
    form; replay re-encodes them, and since encoding is deterministic a
    replayed batch goes out bit-identical to its first send.
    """

    __slots__ = ("batches", "suppress")

    def __init__(self) -> None:
        #: batch seq -> raw entries, every batch recorded since the last
        #: completed barrier, in seq order
        self.batches: dict[int, list] = {}
        #: seqs whose re-ack is still to drop: replays of history whose
        #: original ack was already applied
        self.suppress: set[int] = set()

    def __len__(self) -> int:
        return len(self.batches)

    def clear_through(self, seq: int) -> None:
        """A barrier covering ``seq`` completed: batches at or below it
        have served their purpose (worker state tumbles with the
        window)."""
        batches = self.batches
        for old in [s for s in batches if s <= seq]:
            del batches[old]

    def reship(self, seq: int, pending: set[int]) -> None:
        """``seq`` goes out again over the worker's link.  Unless it is
        a first send whose ack is still owed, its effects were already
        applied: it is pending once more and its re-ack only rebuilds
        executor state, to be dropped."""
        if seq not in pending:
            pending.add(seq)
            self.suppress.add(seq)

    def suppressed(self, seq: int) -> bool:
        """An ack for ``seq`` arrived: True (and count it off) if it is
        the re-ack of replayed history, whose effects must not apply
        twice."""
        if seq not in self.suppress:
            return False
        self.suppress.discard(seq)
        return True

    def link_lost(self, pending: set[int]) -> None:
        """The worker's link is gone, and with it every reply in flight:
        re-acks of replayed history will never come, so those seqs stop
        being pending; a first send whose ack is still owed stays
        pending for the replay to settle."""
        for seq in self.suppress:
            pending.discard(seq)
        self.suppress.clear()


class StickyLog:
    """Every delivery on a sticky stream (a cross-window control
    broadcast such as a partition version), once per cluster, in
    delivery order and with the mask it was routed with.

    :meth:`replay` cuts it by the task masks of whichever slot receives
    it, so a task's control history follows the task wherever it is
    placed now.
    """

    __slots__ = ("entries", "through")

    def __init__(self) -> None:
        #: ``(seq, component, mask, tup)``, never cleared; ``seq`` is the
        #: lowest batch seq the delivery can ship under, so a barrier
        #: recorded at seq s covers it iff ``seq <= s``
        self.entries: list[tuple[int, str, int, StreamTuple]] = []
        #: highest seq a completed barrier cleared
        self.through = 0

    def record(self, seq: int, component: str, mask: int, tup: StreamTuple) -> None:
        """Log one delivery, as routed."""
        self.entries.append((seq, component, mask, tup))

    def replay(self, masks: Mapping[str, int]) -> list:
        """The raw entries a slot running the tasks in ``masks``
        (component -> task bitmask) must receive before any journaled
        batch: the broadcasts of completed windows, cut to those tasks,
        in order.  Later ones are still in the batch journals."""
        cut = []
        for seq, component, mask, tup in self.entries:
            if seq > self.through:
                break
            own = mask & masks.get(component, 0)
            if own:
                cut.append((component, lowest_owner(own), tup, own))
        return cut


class Window(NamedTuple):
    """A completed window, as :meth:`BarrierTracker.complete` hands it
    out."""

    #: the barrier's high-water batch seq
    seq: int
    #: emissions of the window's batches, in batch seq order
    emissions: list


class BarrierTracker:
    """Outstanding window barriers of one cluster, oldest first."""

    __slots__ = ("open", "completed", "_stash")

    def __init__(self) -> None:
        #: seqs of the recorded, not yet completed barriers, oldest first
        self.open: deque[int] = deque()
        self.completed = 0
        #: emissions of acknowledged batches, by batch seq, until their
        #: barrier completes
        self._stash: dict[int, tuple] = {}

    def record(self, seq: int) -> int:
        """Close the open window under a barrier covering batches up to
        ``seq``; return its index, 0-based over recorded barriers."""
        self.open.append(seq)
        return self.completed + len(self.open) - 1

    def stash(self, seq: int, emissions: tuple) -> None:
        """Hold an acknowledged batch's emissions until its barrier."""
        self._stash[seq] = emissions

    def ready(self, pending: Iterable[set[int]]) -> bool:
        """True if the oldest barrier can complete: no batch at or below
        its seq is in any of the ``pending`` sets."""
        if not self.open:
            return False
        seq = self.open[0]
        return not any(s <= seq for seqs in pending for s in seqs)

    def complete(self) -> Window:
        """Complete the oldest barrier (the caller checked :meth:`ready`)."""
        seq = self.open.popleft()
        self.completed += 1
        return Window(seq, self._release(seq))

    def release_rest(self) -> list:
        """Emissions of every stashed batch, in seq order — the batches
        after the last barrier, once nothing is outstanding."""
        return self._release(None)

    def _release(self, through) -> list:
        stash = self._stash
        emissions: list = []
        for seq in sorted(stash):
            if through is not None and seq > through:
                break
            emissions.extend(stash.pop(seq))
        return emissions
