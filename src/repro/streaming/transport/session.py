"""Transport-agnostic worker logic.

:class:`WorkerSession` is the single implementation of the worker side
of the cluster/worker protocol: batch execution (each entry through the
local backend's :class:`~repro.streaming.component.Executor`, plus the
kill and ack-delay faults), snapshot export and stop.  :func:`serve_link`
is the single worker loop around one session, :class:`InlineLink` its
in-process twin; the transports differ only in how a worker process
starts:

* the pipe transport forks a child holding one end of a
  ``socketpair`` and calls ``serve_link(sock, init)`` with the
  :class:`WorkerInit` the child inherited;
* the socket worker (:mod:`repro.worker`) accepts one TCP connection at
  a time and calls ``serve_link(conn)``, whose first frame is the
  pickled :class:`WorkerInit`.

The message vocabulary (a batch is a frame; everything else is a plain
tuple whose first element is the kind):

parent → worker
    every batch is one
    :class:`~repro.streaming.transport.framing.BufferFrame`, which the
    codec's ``decode_batch`` turns back into ``(seq, entries)`` with
    entries ``(component, task_index, stream, source, source_task,
    direct, values, mask)`` — one tuple for every task of this worker
    in ``mask``, ``task_index`` the lowest (informational: the worker
    finds the owners from ``mask`` alone); ``("adopt", tasks)`` and
    ``("disown", keys)`` (a task move, at a window boundary, hands a
    worker task instances mid-run and tells the old worker they left),
    ``("snapshot",)``, ``("stop",)``; ``adopt``, ``disown`` and
    ``stop`` have no reply — FIFO order already places an adopt before
    the batches that need it
worker → parent
    ``("ack", seq, worker_index, counts, failures, emissions, dead)``
    (``dead``: :class:`~repro.streaming.recovery.DeadLetter` records
    stamped with ``worker`` and ``batch_seq``),
    ``("error", worker_index, seq, component, task_index, retries, exc)``,
    ``("snapshot", worker_index, dict)``

Every worker→parent message carries the worker index, which is what
lets a transport multiplex all links into one ``recv`` stream without
tagging.
"""

from __future__ import annotations

import os
import pickle
import traceback
from dataclasses import replace
from time import sleep
from typing import Any, Optional

from repro.exceptions import TupleProcessingError
from repro.streaming.component import Executor
from repro.streaming.recovery import DeadLetter
from repro.streaming.transport.base import LinkDown, WorkerInit
from repro.streaming.transport.framing import (
    BufferFrame,
    FrameDecoder,
    FrameError,
    encode_frame,
)
from repro.streaming.tuples import StreamTuple


class WorkerKilled(BaseException):
    """A fault-plan kill fired; the worker loop must exit the process.

    The session never ends the process itself — it also runs inside the
    parent behind an :class:`InlineLink` — so it raises and
    :func:`serve_link`, which owns the worker process, calls ``os._exit``.
    ``BaseException`` so task-level exception handling can never swallow
    an injected kill.
    """

    def __init__(self, exit_code: int) -> None:
        super().__init__(f"fault-injected kill with exit code {exit_code}")
        self.exit_code = exit_code


class WorkerCollector:
    """Worker-side collector: buffers encoded emissions for the ack."""

    __slots__ = ("_component", "_task_index", "_codec", "buffer")

    def __init__(self, component: str, task_index: int, codec, buffer: list) -> None:
        self._component = component
        self._task_index = task_index
        self._codec = codec
        self.buffer = buffer

    def emit(
        self,
        stream: str,
        values: tuple[Any, ...],
        direct_task: Optional[int] = None,
    ) -> None:
        self.buffer.append(
            (
                self._component,
                self._task_index,
                stream,
                direct_task,
                self._codec.encode(stream, values),
            )
        )

    def emit_fanout(self, stream, values, targets) -> None:
        encoded = self._codec.encode(stream, values)
        self.buffer.extend(
            (self._component, self._task_index, stream, target, encoded)
            for target in targets
        )


class WorkerSession:
    """Serves one link: feed parent messages in, get reply messages out.

    The session is synchronous and single-threaded by design — a worker
    owns its tasks exclusively and the per-link FIFO guarantee comes
    from processing messages in arrival order.  ``stopped`` flips once a
    ``stop`` was handled; the surrounding loop then exits.
    """

    def __init__(self, init: WorkerInit) -> None:
        self.worker_index = init.worker_index
        self.stopped = False
        self._registry = init.registry
        self._obs = init.registry.enabled
        self._codec = init.codec
        plan = init.fault_plan
        #: component -> task index -> task / its collector
        self._tasks: dict[str, dict[int, Any]] = {}
        self._collectors: dict[str, dict[int, WorkerCollector]] = {}
        #: component -> bitmask of the task indices this worker holds
        self._own: dict[str, int] = {}
        #: the current batch's emissions and quarantined tuples
        self._emissions: list = []
        self._dead: list[DeadLetter] = []
        faults = plan.runtime(init.worker_index, init.incarnation) if plan else None
        self._executor = Executor(
            self._tasks,
            self._collectors,
            {},  # component -> histogram, with observability on
            faults,
            init.max_retries,
            self._dead.append if init.quarantine else None,
        )
        self._install(init.tasks)

    def _install(self, tasks: dict) -> None:
        for (component, task_index), task in tasks.items():
            self._tasks.setdefault(component, {})[task_index] = task
            self._collectors.setdefault(component, {})[task_index] = (
                WorkerCollector(component, task_index, self._codec, self._emissions)
            )
            self._own[component] = self._own.get(component, 0) | 1 << task_index
            hists = self._executor.hists
            if self._obs and component not in hists:
                hists[component] = self._registry.histogram(
                    "executor.execute_seconds", component=component
                )

    def handle(self, message) -> list[tuple]:
        """Process one parent message; return the replies to ship back."""
        if isinstance(message, BufferFrame):
            return [self._handle_batch(*self._codec.decode_batch(message))]
        kind = message[0]
        if kind == "adopt":
            self._handle_adopt(message[1])
            return []
        if kind == "disown":
            self._handle_disown(message[1])
            return []
        if kind == "snapshot":
            return [
                ("snapshot", self.worker_index, self._registry.snapshot().as_dict())
            ]
        if kind == "stop":
            self.stopped = True
            return []
        raise ValueError(f"unknown worker message kind {kind!r}")

    def _handle_adopt(self, tasks: dict) -> None:
        """Take ownership of moved tasks (a task move).

        The parent ships pristine task instances; their sticky history
        follows as one replayed batch, so order matters — ``adopt`` must
        precede it on the same FIFO link.  A later entry may address
        adopted and resident tasks together, so the newcomers first join
        the executor-level state of a resident of their component.  They
        were pickled apart from this worker's registry, so they are
        rebound to it as well.
        """
        for (component, _task_index), task in tasks.items():
            residents = self._tasks.get(component, {}).values()
            task.join_executor(next(iter(residents), None), self._registry)
        self._install(tasks)

    def _handle_disown(self, keys) -> None:
        """Let go of tasks that moved to another worker; at a window
        boundary they hold nothing of the worker's shared state."""
        for component, task_index in keys:
            if self._tasks.get(component, {}).pop(task_index, None) is not None:
                del self._collectors[component][task_index]
                self._own[component] &= ~(1 << task_index)

    def _handle_batch(self, seq: int, entries: list) -> tuple:
        faults = self._executor.faults
        if faults is not None:
            exit_code = faults.kill_on_batch()
            if exit_code is not None:
                raise WorkerKilled(exit_code)
        own = self._own
        executor = self._executor
        executor.failures = 0
        self._emissions.clear()
        self._dead.clear()
        counts: dict[str, int] = {}
        for entry_index, entry in enumerate(entries):
            # the owners come from the mask alone: entry[1], the lowest
            # owner's index, is the sender's word for it
            component, _, stream, source, source_task, direct, values, mask = entry
            if mask <= 0 or mask & ~own.get(component, 0):
                # a peer naming no task, or tasks this worker does not hold
                raise FrameError(
                    f"batch {seq} entry {entry_index} addresses {component!r} "
                    f"tasks {mask:#x}; worker {self.worker_index} holds "
                    f"{own.get(component, 0):#x}"
                )
            tup = StreamTuple(stream, values, source, source_task, direct)
            try:
                n = executor.execute(component, mask, tup)
            except TupleProcessingError as failed:
                return self._error(seq, failed)
            if n:
                counts[component] = counts.get(component, 0) + n
        if faults is not None:
            delay = faults.ack_delay()
            if delay > 0:
                sleep(delay)
        dead = tuple(
            replace(letter, worker=self.worker_index, batch_seq=seq)
            for letter in self._dead
        )
        return (
            "ack", seq, self.worker_index, tuple(counts.items()),
            executor.failures, tuple(self._emissions), dead,
        )

    def _error(self, seq: int, failed: TupleProcessingError) -> tuple:
        """The reply to a batch whose tuple exhausted its retry budget;
        the worker stays alive so that the parent can stop it cleanly."""
        exc = failed.cause
        try:  # exceptions are usually picklable; fall back to text
            pickle.dumps(exc)
        except Exception:
            # the original traceback would be lost with the process —
            # carry its formatted text across the link
            detail = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ) or repr(exc)
            exc = RuntimeError(
                f"unpicklable worker exception {exc!r}; "
                f"worker-side traceback:\n{detail}"
            )
        return (
            "error", self.worker_index, seq, failed.component,
            failed.task_index, failed.retries, exc,
        )


def serve_link(sock, init: Optional[WorkerInit] = None) -> None:
    """The worker loop: serve one connected link until stop or EOF.

    Each pass is ``recv`` → :meth:`FrameDecoder.feed` →
    :meth:`WorkerSession.handle` → ``sendall`` of every reply, so the
    link is FIFO both ways.  With ``init=None`` the first frame is the
    pickled :class:`WorkerInit`.  Either way its registry is reset
    before the session is built, as only a worker process may do.  The
    link ends (and ``sock`` is closed) on ``stop``, when the parent goes
    away, or on a malformed frame — including an
    entry whose mask names no task or a task this worker does not hold
    (:class:`FrameError`); a fault-plan kill ends the process.
    """
    decoder = FrameDecoder()
    # the registry came with the parent's activity so far: start at zero
    if init is not None:
        init.registry.reset()
    session = None if init is None else WorkerSession(init)
    try:
        while session is None or not session.stopped:
            data = sock.recv(1 << 16)
            if not data:
                break
            for message in decoder.feed(data):
                if session is None:
                    message.registry.reset()
                    session = WorkerSession(message)
                    continue
                for reply in session.handle(message):
                    sock.sendall(encode_frame(reply))
                if session.stopped:
                    break
    except WorkerKilled as kill:
        # the parent sees the EOF / process exit and replays the journal
        os._exit(kill.exit_code)
    except (FrameError, OSError):
        pass
    finally:
        sock.close()


def _copy(obj):
    """What a process boundary delivers of ``obj``."""
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


class InlineLink:
    """A link to a :class:`WorkerSession` in this process.

    The in-process twin of :func:`serve_link`: :meth:`send` (and
    :meth:`stage`) runs the message through the session at once and
    queues its replies where ``Transport.recv`` returns them first.  The
    session owns a copy of ``init`` — one pickle, as the socket
    transport ships it — with a reset registry: pristine tasks, and
    counters of its own.  A degraded worker is respawned onto one.
    """

    exit_code = None

    def __init__(self, init: WorkerInit, transport) -> None:
        init = _copy(init)
        init.registry.reset()
        self._session: Optional[WorkerSession] = WorkerSession(init)
        self._inbox = transport._inbox

    def send(self, message) -> None:
        """Run one message through the session; queue its replies."""
        if self._session is None:
            raise LinkDown("link already reaped")
        if not isinstance(message, BufferFrame):
            message = _copy(message)  # adopt ships task instances
        self._inbox.extend(self._session.handle(message))

    stage = send

    def pump(self) -> None:
        """Nothing is queued: :meth:`send` ran the message."""

    def alive(self) -> bool:
        """Until reaped: a session cannot die on its own."""
        return self._session is not None

    def reap(self, timeout: float = 1.0) -> None:
        """Drop the session (idempotent)."""
        self._session = None
