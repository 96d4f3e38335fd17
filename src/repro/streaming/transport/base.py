"""The Transport/WorkerLink seam between the cluster and its workers.

:class:`~repro.streaming.parallel.ParallelCluster` owns *what* to ship
(batching, journals, restart policy, ack bookkeeping); a
:class:`Transport` owns *how a worker starts*.  Everything after spawn
is one code path for every transport: a :class:`WorkerLink` over a
connected stream socket speaking the length-prefixed frames of
:mod:`~repro.streaming.transport.framing`, one selector-based reply
mux (:meth:`Transport.recv`), and one worker loop on the other end
(:func:`~repro.streaming.transport.session.serve_link`).  The contract,
which the conformance suite in ``tests/streaming/test_transport.py``
pins for every implementation:

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
(fork + ``socketpair``, single host) and
:class:`~repro.streaming.transport.tcp.SocketTransport` (TCP to
``python -m repro.worker`` processes, spawned or attached).

Every parent→worker batch crosses the seam as one
:class:`~repro.streaming.transport.framing.BufferFrame` built by the
cluster's :class:`WireCodec`.
"""

from __future__ import annotations

import select
import selectors
import subprocess
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Optional, Sequence

from repro.exceptions import TopologyError
from repro.faults import FaultPlan
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.streaming.transport.framing import BufferFrame, FrameDecoder, encode_frame


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

    The pipe transport's forked child inherits this object by memory
    copy; the socket transport pickles it as the connection's first
    frame.
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


class WorkerLink:
    """Parent-side handle of one live worker connection.

    The one link class of both transports: a connected stream socket —
    one end of a ``socketpair`` to a forked worker, or a TCP connection
    — plus the worker process when the parent started it.  ``process``
    is anything with ``Popen``'s ``poll`` / ``returncode`` / ``wait`` /
    ``terminate`` / ``kill`` (a ``subprocess.Popen``, the pipe
    transport's adapter over a forked process), or None for an attached
    worker, whose liveness is the connection itself.

    Writes are staged and non-blocking: the socket is switched to
    non-blocking once the link exists, outbound frames queue as
    memoryview chunks, and :meth:`pump` pushes whatever the kernel will
    take.  A worker that is busy computing therefore never stalls the
    parent mid-window — the wait surfaces in the ack drain, where it
    overlaps with routing the next window.  Replies come back through
    :meth:`Transport.recv`, which feeds :attr:`decoder`.
    """

    __slots__ = (
        "index",
        "decoder",
        "_sock",
        "_transport",
        "_process",
        "_eof",
        "_pending",
    )

    def __init__(self, index: int, sock, transport, process=None) -> None:
        #: worker slot this link serves
        self.index = index
        self.decoder = FrameDecoder()
        self._sock = sock
        self._transport = transport
        self._process = process
        self._eof = False
        #: outbound bytes the kernel has not yet accepted (FIFO chunks)
        self._pending: deque = deque()
        sock.setblocking(False)

    def send(self, message) -> None:
        """Ship one message, FIFO per link; :class:`LinkDown` if gone.

        Whatever the kernel does not accept right away stays queued for
        :meth:`pump`; FIFO order holds because every send and stage
        enters the same queue.
        """
        self.stage(message)
        self.pump()

    def stage(self, message) -> None:
        """Queue a message's bytes without touching the wire.

        The cluster stages a window's batches while it routes and
        releases the bytes at the window barrier (:meth:`pump`), so
        workers receive a window's work in one burst and spend their
        CPU while the parent is busy elsewhere — on a loaded host this
        keeps worker wakeups out of the parent's routing path.
        """
        if self._sock is None:
            raise LinkDown("link already reaped")
        if isinstance(message, BufferFrame):
            # scatter list: header, envelope, raw column buffers — no
            # concatenation; the views keep their owners alive and the
            # journaled frame outlives the write
            self._pending.extend(
                part if isinstance(part, memoryview) else memoryview(part)
                for part in message.parts()
                if len(part)
            )
        else:
            self._pending.append(memoryview(encode_frame(message)))

    def pump(self) -> None:
        """Make progress on queued outbound bytes (non-blocking): one
        ``send`` per chunk until the kernel pushes back."""
        sock = self._sock
        if sock is None:
            return
        pending = self._pending
        while pending:
            chunk = pending[0]
            try:
                sent = sock.send(chunk)
            except BlockingIOError:
                return
            except OSError as exc:
                raise LinkDown(str(exc)) from exc
            if sent == len(chunk):
                pending.popleft()
            else:
                pending[0] = chunk[sent:]
                return

    def _flush_pending(self, timeout: float) -> None:
        """Best-effort blocking drain, for shutdown paths (reap)."""
        deadline = monotonic() + timeout
        while self._pending and self._sock is not None:
            remaining = deadline - monotonic()
            if remaining <= 0:
                return
            try:
                select.select([], [self._sock], [], min(remaining, 0.05))
                self.pump()
            except (LinkDown, OSError, ValueError):
                return

    def alive(self) -> bool:
        """Best-effort liveness of the worker behind the link."""
        if self._process is not None:
            return self._process.poll() is None
        # attached worker: all we can observe is the connection itself
        return self._sock is not None and not self._eof

    @property
    def exit_code(self) -> Optional[int]:
        """Worker exit code once dead, else None (and None when unknowable)."""
        return self._process.poll() if self._process is not None else None

    def reap(self, timeout: float = 1.0) -> None:
        """Release the link and the worker process (idempotent).

        Waits up to ``timeout`` for a voluntary exit, then escalates to
        termination; the link leaves the transport's receive path first,
        so no stale messages surface later.
        """
        # a queued ("stop",) must reach the worker or wait() times out
        self._flush_pending(timeout=timeout)
        self._transport._drop(self)
        sock, self._sock = self._sock, None
        process = self._process
        if process is not None:
            # let a stopping worker finish its exit before the socket
            # goes away under it, then escalate
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=1.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                    process.kill()
                    process.wait()
            if process.stdout is not None:
                process.stdout.close()
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        self._eof = True


class Transport(ABC):
    """Worker factory plus the one reply mux for its links.

    Subclasses differ only in :meth:`spawn` — how a worker process
    starts and how its socket is connected; every link is a
    :class:`WorkerLink` and every reply arrives through :meth:`recv`.
    """

    #: implementation name reported under ``stats()["transport"]``
    name = "abstract"

    def __init__(self) -> None:
        self.reconnects = 0
        self._spawned_slots: set[int] = set()
        self._selector: Optional[selectors.BaseSelector] = None
        self._inbox: deque = deque()
        #: links not yet reaped, readable or not
        self._links: set[WorkerLink] = set()

    def start(self) -> None:
        """Allocate the receive side (called once, pre-spawn)."""
        if self._selector is None:
            self._selector = selectors.DefaultSelector()

    @abstractmethod
    def spawn(self, init: WorkerInit) -> WorkerLink:
        """Start (or connect to) one worker and hand it ``init``."""

    def _attach(self, worker_index: int, sock, process=None) -> WorkerLink:
        """Wrap a connected worker socket in a link on the receive path."""
        self.start()
        link = WorkerLink(worker_index, sock, self, process)
        self._selector.register(sock, selectors.EVENT_READ, link)
        self._links.add(link)
        if worker_index in self._spawned_slots:
            self.reconnects += 1
        else:
            self._spawned_slots.add(worker_index)
        return link

    def _drop(self, link: WorkerLink) -> None:
        """A link being reaped leaves the receive path."""
        self._links.discard(link)
        if self._selector is None or link._sock is None:
            return
        try:
            self._selector.unregister(link._sock)
        except (KeyError, ValueError):  # already unwatched at EOF
            pass

    def recv(self, timeout: float) -> Optional[tuple]:
        """Next worker→parent message from any link, or None on timeout.

        One selector over every link's socket, one incremental
        :class:`FrameDecoder` per link.  ``timeout <= 0`` does not
        block.
        """
        if self._inbox:
            return self._inbox.popleft()
        if self._selector is None:
            return None
        for key, _ in self._selector.select(timeout if timeout > 0 else 0):
            link: WorkerLink = key.data
            try:
                data = key.fileobj.recv(1 << 16)
            except (BlockingIOError, InterruptedError):  # pragma: no cover
                continue
            except OSError:
                data = b""
            if not data:
                # connection gone: stop watching; the cluster notices via
                # alive() and replays the journal into a fresh link
                self._selector.unregister(key.fileobj)
                link._eof = True
                continue
            self._inbox.extend(link.decoder.feed(data))
        return self._inbox.popleft() if self._inbox else None

    def stats(self) -> dict:
        return {"transport": self.name, "reconnects": self.reconnects}

    def close(self) -> None:
        """Release the receive side; links are reaped by the cluster first."""
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        self._inbox.clear()


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
