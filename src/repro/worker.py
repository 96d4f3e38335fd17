"""Standalone socket worker: ``python -m repro.worker --listen host:port``.

The process side of the socket transport
(:mod:`repro.streaming.transport.tcp`).  It listens on the given
address (port 0 picks a free port), prints a LISTEN banner on stdout so
a spawning parent can discover the bound port, and serves connections:

1. the first frame of a connection is a pickled
   :class:`~repro.streaming.transport.base.WorkerInit`;
2. every further frame is a parent message, answered on the same
   connection via :class:`~repro.streaming.transport.session.WorkerSession`;
3. the connection ends on ``stop`` or when the parent goes away; the
   *process* ends once the connection budget is spent.

Connections are served one at a time by the transports' one worker
loop, :func:`~repro.streaming.transport.session.serve_link`.

Each connection gets a *fresh* session — worker state is rebuilt by the
parent's journal replay, never carried across connections.  By default
the process exits after one connection (the spawned-subprocess
lifecycle, where a respawn is a new process).  Pre-started workers that
a parent attaches to with ``tcp://host:port`` addressing should pass
``--max-connections 0``: such a worker outlives any single cluster, so
a respawning (or entirely new) parent can connect again; see
``docs/distributed.md``.
"""

from __future__ import annotations

import argparse
import socket
import sys

from repro.streaming.transport.framing import format_banner, parse_address
from repro.streaming.transport.session import serve_link


def serve(host: str, port: int, max_connections: int) -> None:
    """Accept and serve connections one at a time (blocking)."""
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    with socket.create_server((host, port), family=family) as listener:
        bound_host, bound_port = listener.getsockname()[:2]
        print(format_banner(bound_host, bound_port), flush=True)
        served = 0
        # Only the connection budget ends the process: a clean ``stop``
        # ends its *connection*, so an attach-mode worker (budget 0)
        # keeps listening for the next cluster — while a spawned worker
        # (budget 1) exits whether its parent said stop or just died.
        while True:
            conn, _peer = listener.accept()
            served += 1
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            serve_link(conn)
            if max_connections and served >= max_connections:
                return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.worker",
        description="socket-transport worker for the parallel backend",
    )
    parser.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="address to listen on; port 0 picks a free port "
        "(reported via the LISTEN banner on stdout)",
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=1,
        metavar="N",
        help="exit after N connections (default 1, the spawned-subprocess "
        "lifecycle); 0 keeps serving so a supervising parent can "
        "reconnect after failures (attach mode)",
    )
    args = parser.parse_args(argv)
    try:
        host, port = parse_address(args.listen)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        serve(host, port, args.max_connections)
    except KeyboardInterrupt:  # pragma: no cover - operator stop
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
