"""The JsonReader spout: source of the document stream (Fig. 2)."""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional, Sequence

from repro.core.document import Document
from repro.streaming.component import Collector, Spout
from repro.topology import messages as msg

#: one window of arrivals: ``(document, side)`` items, side None for the
#: self-join or :data:`repro.join.binary.LEFT` / ``RIGHT`` for R x S
Window = list[tuple[Document, Optional[str]]]


class DocumentSpout(Spout):
    """Feeds tumbling windows into the topology, first in first out.

    Emits every item of a window on the ``docs`` stream (the document
    tagged with its window id and stream side) followed by one
    ``window_end`` punctuation tuple.  The FIFO drain of the local
    cluster guarantees all downstream effects of the punctuation finish
    before the next window starts — the stand-in for Storm's time-based
    window boundaries.  Windows are given up front (``windows``, all on
    the self-join side) or fed one at a time (:meth:`feed`); the spout
    reports no data while its FIFO is empty.
    """

    def __init__(self, windows: Sequence[Sequence[Document]] = ()):
        self._windows: deque[Window] = deque(
            [(document, None) for document in window] for window in windows
        )
        self._window_id = 0
        #: the items of the window being emitted, None between windows
        self._arrivals: Optional[Iterator[tuple[Document, Optional[str]]]] = None

    def feed(self, window: Window) -> None:
        """Queue one window of ``(document, side)`` items (may be empty)."""
        self._windows.append(window)

    def next_tuple(self, collector: Collector) -> bool:
        arrivals = self._arrivals
        if arrivals is None:
            if not self._windows:
                return False
            arrivals = self._arrivals = iter(self._windows.popleft())
        for document, side in arrivals:
            collector.emit(msg.DOCS, (document, self._window_id, side))
            return True
        collector.emit(msg.WINDOW_END, (self._window_id,))
        self._arrivals = None
        self._window_id += 1
        return bool(self._windows)
