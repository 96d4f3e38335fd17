"""The Transport/WorkerLink seam between the cluster and its workers.

:class:`~repro.streaming.parallel.ParallelCluster` owns *what* to ship
(batching, journals, restart policy, ack bookkeeping); a
:class:`Transport` owns *how*: starting worker processes and moving
messages to and from them.  The contract, which the conformance suite
in ``tests/streaming/test_transport.py`` pins for every implementation:

* :meth:`Transport.spawn` takes a :class:`WorkerInit` — the complete,
  self-contained worker bootstrap (task instances, codec, registry,
  fault plan) — and returns a live :class:`WorkerLink`.  Respawning a
  worker slot is just another ``spawn`` with a bumped incarnation.
* :meth:`WorkerLink.send` preserves order per link and raises
  :class:`LinkDown` once the worker is unreachable; the cluster reacts
  by replaying the journal into a fresh link, so a transport never
  retries or buffers across worker deaths itself.
* :meth:`Transport.recv` multiplexes worker→parent messages from all
  links into one stream.  Messages self-identify their worker index,
  so no transport-level tagging is needed; cross-link interleaving is
  allowed (the cluster's bookkeeping is order-insensitive across
  workers, strict FIFO is only required per link).
* :meth:`Transport.stats` reports the unified observability keys:
  ``transport`` (the implementation name) and ``reconnects`` (links
  established beyond the first per worker slot).

Implementations: :class:`~repro.streaming.transport.pipe.PipeTransport`
(fork + duplex pipe, single host) and
:class:`~repro.streaming.transport.tcp.SocketTransport` (length-prefixed
frames over TCP to ``python -m repro.worker`` processes).

Every parent→worker batch crosses the seam as one
:class:`~repro.streaming.transport.framing.BufferFrame` built by the
cluster's :class:`WireCodec`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.exceptions import TopologyError
from repro.faults import FaultPlan
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.streaming.transport.framing import BufferFrame


class LinkDown(Exception):
    """Raised by :meth:`WorkerLink.send` once the worker is unreachable."""


class WireCodec:
    """How payloads and parent→worker batches cross a process boundary.

    Per-stream encodings (:meth:`register`) strip rich payloads to plain
    tuples for pickling; unregistered streams pass through unchanged.
    :meth:`encode_batch` turns one batch into a :class:`BufferFrame`
    whose envelope is ``("frame", seq, slots, columns)``: an entry
    travels as a pickled *slot* ``(component, task_index, stream,
    source, source_task, direct, encoded values, mask)`` unless a
    subclass lays it out as columns (:meth:`_columnar`) — then its slot
    is its row number, the rows travel in the frame's raw buffers and
    ``columns`` is whatever the subclass needs to read them back.  A
    batch whose every entry is a row ships the row count instead of the
    slot list.  The base codec lays out nothing.

    A codec is stateless and its encoding deterministic: every link and
    every incarnation of a worker shares one instance, and encoding the
    same entries again yields the same bytes — which is why the cluster
    journals raw entries and re-encodes them on replay.
    """

    def __init__(self) -> None:
        self._encoders: dict = {}
        self._decoders: dict = {}

    def register(self, stream: str, encode, decode) -> None:
        self._encoders[stream] = encode
        self._decoders[stream] = decode

    def encode(self, stream: str, values: tuple) -> tuple:
        encoder = self._encoders.get(stream)
        return encoder(values) if encoder is not None else values

    def decode(self, stream: str, values: tuple) -> tuple:
        decoder = self._decoders.get(stream)
        return decoder(values) if decoder is not None else values

    def encode_batch(self, seq: int, entries: list) -> BufferFrame:
        """``(component, task_index, StreamTuple, mask)`` entries → frame
        (a three-field entry is the one-bit mask of its task)."""
        slots: list = []
        rows: list = []
        encode = self.encode
        columnar = self._columnar
        for entry in entries:
            if len(entry) == 4:
                component, task_index, tup, mask = entry
            else:
                component, task_index, tup = entry
                mask = 1 << task_index
            if columnar(tup, mask):
                slots.append(len(rows))
                rows.append((component, tup, mask))
            else:
                slots.append(
                    (
                        component,
                        task_index,
                        tup.stream,
                        tup.source,
                        tup.source_task,
                        tup.direct_task,
                        encode(tup.stream, tup.values),
                        mask,
                    )
                )
        columns, buffers = self._encode_columns(rows)
        wire_slots = len(rows) if len(rows) == len(slots) else tuple(slots)
        return BufferFrame(("frame", seq, wire_slots, columns), buffers)

    def decode_batch(self, frame: BufferFrame) -> tuple[int, list]:
        """A received frame → ``(seq, entries)`` with **decoded** values.

        Entries come back in batch order as ``(component, task_index,
        stream, source, source_task, direct, values, mask)``; the session
        feeds them straight to tasks.
        """
        _kind, seq, slots, columns = frame.envelope
        rows = self._decode_columns(columns, frame.buffers)
        if type(slots) is int:
            return seq, rows
        decode = self.decode
        return seq, [
            rows[slot]
            if type(slot) is int
            else slot[:6] + (decode(slot[2], slot[6]), slot[7])
            for slot in slots
        ]

    # Column layout hooks; the base codec ships every entry as a slot.
    def _columnar(self, tup, mask: int) -> bool:
        """True for an entry this codec ships as a column row."""
        return False

    def _encode_columns(self, rows: list) -> tuple[Any, list]:
        """``(component, tup, mask)`` rows → ``(columns, buffers)``."""
        return None, []

    def _decode_columns(self, columns: Any, buffers: list) -> list:
        """The rows of :meth:`_encode_columns` back as decoded entries."""
        return []


@dataclass
class WorkerInit:
    """Everything a worker needs to serve one link, in one shippable blob.

    The pipe transport hands this object to a forked child by reference;
    the socket transport pickles it as the connection's first frame.
    Pickling everything together preserves object identity *within* the
    blob — a task's reference to ``registry`` stays a reference to the
    shipped registry — so a fresh-interpreter worker sees the same
    object graph a forked one inherits.

    ``codec`` decodes parent→worker batches and encodes worker→parent
    emissions; it is the cluster's own (stateless) :class:`WireCodec`.
    """

    worker_index: int
    incarnation: int
    #: (component, task_index) → prepared task instance
    tasks: dict[tuple[str, int], Any]
    codec: WireCodec = field(default_factory=WireCodec)
    registry: MetricsRegistry = field(default_factory=lambda: NULL_REGISTRY)
    max_retries: int = 0
    quarantine: bool = False
    fault_plan: Optional[FaultPlan] = None


class WorkerLink(ABC):
    """Parent-side handle of one live worker connection."""

    #: worker slot this link serves
    index: int

    @abstractmethod
    def send(self, message: tuple) -> int:
        """Ship one message, FIFO per link; :class:`LinkDown` if gone.

        ``send`` may buffer: a transport with a non-blocking write path
        queues whatever the kernel would not accept and returns, so the
        parent keeps routing while a busy worker drains its end.  The
        cluster calls :meth:`pump` opportunistically to finish such
        writes; FIFO order still holds because every send enters the
        same buffer.

        Returns the serialized payload size in bytes — the cluster
        accounts journal bytes per batch with it, feeding the
        ``journal_bytes`` load signal the elastic controller watches.
        """

    def stage(self, message: tuple) -> int:
        """Queue a message for shipping without touching the wire.

        The cluster stages a window's batches while it routes and
        releases the bytes at the window barrier (:meth:`pump`), so
        workers receive a window's work in one burst and spend their
        CPU while the parent is busy elsewhere — on a loaded host this
        keeps worker wakeups out of the parent's routing path.  Order
        is shared with :meth:`send`: staged and sent messages drain
        through one FIFO.  Default: ship eagerly via ``send``.
        Returns the staged payload size in bytes, like :meth:`send`.
        """
        return self.send(message)

    def pump(self) -> None:
        """Make progress on buffered outbound bytes (non-blocking).

        Default is a no-op for transports whose ``send`` completes
        eagerly.  Implementations raise :class:`LinkDown` when the
        worker is gone, exactly as ``send`` does.
        """

    @abstractmethod
    def alive(self) -> bool:
        """Best-effort liveness of the worker behind the link."""

    @property
    @abstractmethod
    def exit_code(self) -> Optional[int]:
        """Worker exit code once dead, else None (and None when unknowable)."""

    @abstractmethod
    def reap(self, timeout: float = 1.0) -> None:
        """Release the link and the worker process (idempotent).

        Waits up to ``timeout`` for a voluntary exit, then escalates to
        termination; closing must unregister the link from the
        transport's receive path so no stale messages surface later.
        """


class Transport(ABC):
    """Factory and message mux for one cluster's worker links."""

    #: implementation name reported under ``stats()["transport"]``
    name = "abstract"

    def __init__(self) -> None:
        self.reconnects = 0
        self._spawned_slots: set[int] = set()

    def start(self) -> None:
        """Allocate shared receive-side resources (called once, pre-spawn)."""

    @abstractmethod
    def spawn(self, init: WorkerInit) -> WorkerLink:
        """Start (or connect to) one worker and hand it ``init``."""

    @abstractmethod
    def recv(self, timeout: float) -> Optional[tuple]:
        """Next worker→parent message from any link, or None on timeout.

        ``timeout <= 0`` must not block.
        """

    def stats(self) -> dict:
        return {"transport": self.name, "reconnects": self.reconnects}

    def close(self) -> None:
        """Release shared resources; links are reaped by the cluster first."""

    def _note_spawn(self, worker_index: int) -> None:
        """Bookkeeping hook every ``spawn`` implementation must call."""
        if worker_index in self._spawned_slots:
            self.reconnects += 1
        else:
            self._spawned_slots.add(worker_index)


#: registered implementations, name → factory(addresses=None) -> Transport
TRANSPORTS: dict[str, Any] = {}


def register_transport(name: str):
    def _register(factory):
        TRANSPORTS[name] = factory
        return factory

    return _register


def available_transports() -> tuple[str, ...]:
    return tuple(sorted(TRANSPORTS))


def make_transport(
    name: str, addresses: Optional[Sequence[str]] = None
) -> Transport:
    """Instantiate a registered transport by name.

    ``addresses`` is the optional per-worker address list; only
    address-capable transports (socket) accept one.
    """
    factory = TRANSPORTS.get(name)
    if factory is None:
        raise TopologyError(
            f"unknown transport {name!r}; available: "
            + ", ".join(available_transports())
        )
    return factory(addresses=addresses)
