"""Socket transport: length-prefixed frames over TCP.

Workers are separate ``python -m repro.worker --listen host:port``
interpreters (see :mod:`repro.worker`); the parent either spawns them
as subprocesses or *attaches* to pre-started ones:

* ``"host:port"`` (or the default ``"127.0.0.1:0"``) — spawn a local
  subprocess listening there; port 0 picks a free port, discovered from
  the worker's LISTEN banner on stdout.
* ``"tcp://host:port"`` — connect to an already-running worker, e.g.
  one started by hand on another machine (``docs/distributed.md``).

Because a socket worker is a fresh interpreter rather than a fork, the
:class:`~repro.streaming.transport.base.WorkerInit` is pickled and sent
as the connection's first frame.  Everything after that is shared with
the pipe transport: the connected socket becomes an ordinary
:class:`~repro.streaming.transport.base.WorkerLink` and its replies
arrive through the one selector mux in
:meth:`~repro.streaming.transport.base.Transport.recv`.

Failure model: TCP happily buffers sends to a worker that just died, so
``send`` raising :class:`LinkDown` is *not* the primary death signal —
the cluster's liveness checks (``alive()`` via the subprocess, or EOF
surfacing through ``recv``) are, and the journal replay makes either
detection path safe.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys
from pathlib import Path
from time import monotonic, sleep
from typing import Optional, Sequence

from repro.exceptions import TopologyError
from repro.streaming.transport.base import (
    Transport,
    WorkerInit,
    WorkerLink,
    register_transport,
)
from repro.streaming.transport.framing import (
    DEFAULT_HOST,
    encode_frame,
    is_attach_address,
    parse_address,
    parse_banner,
)

#: how long spawn waits for a LISTEN banner / successful connect
DEFAULT_SPAWN_TIMEOUT_S = 30.0
#: a send making no progress this long means the worker is dead or stuck
SEND_TIMEOUT_S = 120.0
#: ``src`` directory shipped to spawned workers via PYTHONPATH
_SRC_ROOT = str(Path(__file__).resolve().parents[3])


@register_transport("socket")
class SocketTransport(Transport):
    name = "socket"

    def __init__(
        self,
        addresses: Optional[Sequence[str]] = None,
        *,
        spawn_timeout_s: float = DEFAULT_SPAWN_TIMEOUT_S,
    ) -> None:
        super().__init__()
        self._addresses = list(addresses) if addresses is not None else None
        self._spawn_timeout_s = spawn_timeout_s

    def address_for(self, worker_index: int) -> str:
        if self._addresses is None or worker_index >= len(self._addresses):
            return f"{DEFAULT_HOST}:0"
        return self._addresses[worker_index]

    def spawn(self, init: WorkerInit) -> WorkerLink:
        address = self.address_for(init.worker_index)
        deadline = monotonic() + self._spawn_timeout_s
        if is_attach_address(address):
            process = None
            sock = self._connect(parse_address(address), deadline, init.worker_index)
        else:
            process, sock = self._launch(address, deadline, init.worker_index)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # timeout mode, not non-blocking: send() below relies on
            # sendall, and recv only runs after the selector reports
            # readability, so neither side can stall the parent forever
            sock.settimeout(SEND_TIMEOUT_S)
            sock.sendall(encode_frame(init))
        except OSError as exc:
            WorkerLink(init.worker_index, sock, self, process).reap(timeout=0.5)
            raise TopologyError(
                f"worker {init.worker_index} at {address} rejected the init "
                f"frame: {exc}"
            ) from exc
        return self._attach(init.worker_index, sock, process)

    def _launch(self, address: str, deadline: float, worker_index: int):
        host, port = parse_address(address)
        env = os.environ.copy()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            _SRC_ROOT if not existing else _SRC_ROOT + os.pathsep + existing
        )
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.worker", "--listen", f"{host}:{port}"],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            listen_host, listen_port = self._read_banner(
                process, deadline, worker_index
            )
            sock = self._connect(
                (listen_host, listen_port), deadline, worker_index
            )
        except Exception:
            process.terminate()
            try:
                process.wait(timeout=1.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
                process.wait()
            if process.stdout is not None:
                process.stdout.close()
            raise
        return process, sock

    def _read_banner(self, process, deadline: float, worker_index: int):
        """Wait for the worker's LISTEN line on stdout (port-0 discovery)."""
        fd = process.stdout.fileno()
        buffer = b""
        while True:
            newline = buffer.find(b"\n")
            if newline >= 0:
                line = buffer[:newline].decode("utf-8", errors="replace")
                buffer = buffer[newline + 1:]
                parsed = parse_banner(line)
                if parsed is not None:
                    return parsed
                continue
            if monotonic() > deadline:
                raise TopologyError(
                    f"worker {worker_index} did not report a listen address "
                    f"within {self._spawn_timeout_s:.0f}s"
                )
            ready, _, _ = select.select([fd], [], [], 0.1)
            if not ready:
                if process.poll() is not None:
                    raise TopologyError(
                        f"worker {worker_index} exited with code "
                        f"{process.returncode} before listening"
                    )
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise TopologyError(
                    f"worker {worker_index} closed stdout before reporting "
                    "a listen address"
                )
            buffer += chunk

    def _connect(self, target: tuple[str, int], deadline: float, worker_index: int):
        """Connect with retries — the listener (or a respawning attached
        worker) may need a moment to come up."""
        last_error: Optional[OSError] = None
        while monotonic() <= deadline:
            try:
                return socket.create_connection(target, timeout=5.0)
            except OSError as exc:
                last_error = exc
                sleep(0.05)
        raise TopologyError(
            f"could not connect to worker {worker_index} at "
            f"{target[0]}:{target[1]}: {last_error}"
        )
