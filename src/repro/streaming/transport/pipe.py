"""Fork + socketpair transport (the single-host default).

Each worker slot is a forked process holding one end of a
``socket.socketpair()``; the parent's end is an ordinary
:class:`~repro.streaming.transport.base.WorkerLink`.  Only the start
differs from the socket transport: the child inherits the
:class:`~repro.streaming.transport.base.WorkerInit` object graph by
memory copy, so it runs on this host and ``workers=`` takes a count.
"""

from __future__ import annotations

import multiprocessing
import socket
import subprocess
from typing import Optional, Sequence

from repro.exceptions import TopologyError
from repro.streaming.transport.base import (
    Transport,
    WorkerInit,
    WorkerLink,
    register_transport,
)
from repro.streaming.transport.session import serve_link


class _ForkedProcess:
    """``Popen``'s process surface over a forked ``multiprocessing`` child.

    The ``Process`` is closed once the child has exited, which releases
    its sentinel pipe right away instead of at garbage collection.
    """

    stdout = None

    def __init__(self, process) -> None:
        self._process = process
        self.pid = process.pid
        self.returncode: Optional[int] = None
        self.terminate = process.terminate
        self.kill = process.kill

    def poll(self) -> Optional[int]:
        if self.returncode is None and self._process.exitcode is not None:
            self.returncode = self._process.exitcode
            self._process.close()
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        if self.poll() is None:
            self._process.join(timeout)
            if self.poll() is None:
                raise subprocess.TimeoutExpired(self._process.name, timeout)
        return self.returncode


@register_transport("pipe")
class PipeTransport(Transport):
    name = "pipe"

    def __init__(self, addresses: Optional[Sequence[str]] = None) -> None:
        super().__init__()
        if addresses is not None:
            raise TopologyError(
                "the pipe transport spawns local forks and takes a worker "
                "count, not addresses; use transport='socket' for host:port "
                "workers"
            )
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - platform dependent
            raise TopologyError(
                "the pipe transport requires the 'fork' start method; "
                "use the local backend or the socket transport on this "
                "platform"
            ) from exc

    def spawn(self, init: WorkerInit) -> WorkerLink:
        self.start()
        parent_end, child_end = socket.socketpair()
        process = self._ctx.Process(
            target=self._serve_forked,
            args=(init, parent_end, child_end),
            daemon=True,
            name=f"repro-joiner-worker-{init.worker_index}.{init.incarnation}",
        )
        with child_end:
            process.start()
        return self._attach(init.worker_index, parent_end, _ForkedProcess(process))

    def _serve_forked(self, init: WorkerInit, parent_end, child_end) -> None:
        """Forked child: drop every parent-side fd it inherited — this
        link's parent end, the other links' and the selector — so only
        the parent holds them, then serve the link."""
        parent_end.close()
        for link in self._links:
            link._sock.close()
        self._selector.close()
        serve_link(child_end, init)
