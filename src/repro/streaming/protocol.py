"""Pure cores of the parallel backend's window protocol.

:class:`Journal` (one per worker slot) and :class:`BarrierTracker` (one
per cluster) hold the state behind the per-window exactness of
:class:`~repro.streaming.parallel.ParallelCluster`: what was shipped and
must stay replayable until its barrier completes, which re-acks of
replayed history to drop, which barriers are outstanding and which
emissions wait for them.  They touch no process, link or clock, so tests
drive them with plain ints (``tests/streaming/test_protocol.py``
model-checks them).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, NamedTuple

from repro.streaming.tuples import split_entries


class Journal:
    """Upstream backup of one worker slot.

    Entries are the cluster's raw ``(component, task_index, tup, mask)``
    form; replay re-encodes them, and since encoding is deterministic a
    replayed batch goes out bit-identical to its first send.
    """

    __slots__ = ("batches", "sticky", "through", "suppress")

    def __init__(self) -> None:
        #: batch seq -> raw entries, every batch recorded since the last
        #: completed barrier
        self.batches: dict[int, list] = {}
        #: ``(batch seq, entry)`` of every recorded sticky-stream entry,
        #: in seq order — never cleared
        self.sticky: list[tuple[int, tuple]] = []
        #: highest seq a completed barrier cleared: sticky entries at or
        #: below it are history a replacement replays before the batches
        self.through = 0
        #: seq -> re-acks still to drop: replays of history whose
        #: original ack was already applied
        self.suppress: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.batches)

    def record(self, seq: int, entries: list, sticky_streams) -> None:
        """Journal one shipped batch."""
        self.batches[seq] = entries
        if sticky_streams:
            self.sticky.extend(
                (seq, entry) for entry in entries if entry[2].stream in sticky_streams
            )

    def clear_through(self, seq: int) -> None:
        """A barrier covering ``seq`` completed: batches at or below it
        have served their purpose (worker state tumbles with the window),
        and the sticky entries they carried become history."""
        batches = self.batches
        for old in [s for s in batches if s <= seq]:
            del batches[old]
        if seq > self.through:
            self.through = seq

    def history(self) -> tuple[list, list[tuple[int, list]]]:
        """What a fresh executor must receive: the sticky entries of
        completed windows, then every journaled batch in seq order."""
        through = self.through
        return (
            [entry for seq, entry in self.sticky if seq <= through],
            sorted(self.batches.items()),
        )

    def reship(self, seq: int, pending: set[int]) -> None:
        """``seq`` goes out again over the worker's link.  Unless it is
        a first send whose ack is still owed, its effects were already
        applied: it is pending once more and its re-ack only rebuilds
        executor state — one more re-ack to drop."""
        if seq not in pending or seq in self.suppress:
            pending.add(seq)
            self.suppress[seq] = self.suppress.get(seq, 0) + 1

    def suppressed(self, seq: int) -> bool:
        """An ack for ``seq`` arrived: True (and count it off) if it is
        the re-ack of replayed history, whose effects must not apply
        twice."""
        owed = self.suppress.get(seq)
        if not owed:
            return False
        if owed == 1:
            del self.suppress[seq]
        else:
            self.suppress[seq] = owed - 1
        return True

    def link_lost(self, pending: set[int]) -> None:
        """The worker's link is gone, and with it every reply in flight:
        re-acks of replayed history will never come, so those seqs stop
        being pending; a first send whose ack is still owed stays
        pending for the replay to settle."""
        for seq in self.suppress:
            pending.discard(seq)
        self.suppress.clear()

    def split_off(self, moving: Mapping[str, int]) -> "Journal":
        """Cut out everything addressed to the tasks in ``moving``
        (component -> task bitmask) and return it as a journal of its
        own; an entry naming moved and kept tasks is cut in two.  Seqs
        and per-task order are kept on both sides."""
        moved = Journal()
        moved.through = self.through
        for seq, entries in list(self.batches.items()):
            kept, out = split_entries(entries, moving)
            if not out:
                continue
            moved.batches[seq] = out
            if kept:
                self.batches[seq] = kept
            else:
                del self.batches[seq]
        kept_sticky = []
        for seq, entry in self.sticky:
            kept, out = split_entries([entry], moving)
            kept_sticky.extend((seq, part) for part in kept)
            moved.sticky.extend((seq, part) for part in out)
        self.sticky = kept_sticky
        return moved

    def merge(self, other: "Journal") -> None:
        """Take over ``other``'s history (the moved half of a split).

        Seqs are globally unique per batch, so a seq both sides hold is
        one batch cut by task: its entries concatenate, and each task's
        entries still come from one side only.
        """
        for seq, entries in other.batches.items():
            self.batches[seq] = self.batches.get(seq, []) + entries
        if other.sticky:
            self.sticky = sorted(self.sticky + other.sticky, key=lambda item: item[0])
        self.through = max(self.through, other.through)


class Window(NamedTuple):
    """A completed window, as :meth:`BarrierTracker.complete` hands it
    out."""

    #: 0-based over completed barriers — the elastic controller's clock
    index: int
    #: the barrier's high-water batch seq
    seq: int
    #: emissions of the window's batches, in batch seq order
    emissions: list
    #: entries delivered during the window, per ``(component, mask)``
    docs: dict


class BarrierTracker:
    """Outstanding window barriers of one cluster, oldest first.

    The open window's :attr:`docs` is a plain attribute the cluster
    updates in place on its delivery path;
    :meth:`record` closes the window, so deliveries counted after it
    belong to the next one.
    """

    __slots__ = ("open", "docs", "completed", "_stash")

    def __init__(self) -> None:
        #: recorded, not yet completed barriers as ``(seq, docs)``,
        #: oldest first
        self.open: deque = deque()
        self.docs: dict = {}
        self.completed = 0
        #: emissions of acknowledged batches, by batch seq, until their
        #: barrier completes
        self._stash: dict[int, tuple] = {}

    def record(self, seq: int) -> None:
        """Close the open window under a barrier covering batches up to
        ``seq``."""
        self.open.append((seq, self.docs))
        self.docs = {}

    def stash(self, seq: int, emissions: tuple) -> None:
        """Hold an acknowledged batch's emissions until its barrier."""
        self._stash[seq] = emissions

    def ready(self, pending: Iterable[set[int]]) -> bool:
        """True if the oldest barrier can complete: no batch at or below
        its seq is in any of the ``pending`` sets."""
        if not self.open:
            return False
        seq = self.open[0][0]
        return not any(s <= seq for seqs in pending for s in seqs)

    def complete(self) -> Window:
        """Complete the oldest barrier (the caller checked :meth:`ready`)."""
        seq, docs = self.open.popleft()
        self.completed += 1
        return Window(self.completed - 1, seq, self._release(seq), docs)

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
