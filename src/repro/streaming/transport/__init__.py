"""Pluggable worker transports for the parallel backend.

The :class:`~repro.streaming.transport.base.Transport` /
:class:`~repro.streaming.transport.base.WorkerLink` pair is the seam
between :class:`~repro.streaming.parallel.ParallelCluster` (batching,
journals, supervision) and the mechanics of running workers.  Two
implementations ship and differ only in how a worker starts: ``"pipe"``
(fork + ``socketpair``, one host) and ``"socket"`` (TCP to
``python -m repro.worker`` processes).  After spawn both speak the same
length-prefixed frames through one link class, one reply mux and one
worker loop.  See ``docs/distributed.md`` for the contract.
"""

from repro.streaming.transport.base import (
    LinkDown,
    Transport,
    TRANSPORTS,
    WireCodec,
    WorkerInit,
    WorkerLink,
    available_transports,
    make_transport,
    register_transport,
)
from repro.streaming.transport.session import (
    InlineLink,
    WorkerCollector,
    WorkerSession,
    serve_link,
)

# importing the implementations registers them under their names
from repro.streaming.transport.pipe import PipeTransport  # noqa: E402
from repro.streaming.transport.tcp import SocketTransport  # noqa: E402

__all__ = [
    "InlineLink",
    "LinkDown",
    "PipeTransport",
    "SocketTransport",
    "Transport",
    "TRANSPORTS",
    "WireCodec",
    "WorkerCollector",
    "WorkerInit",
    "WorkerLink",
    "WorkerSession",
    "available_transports",
    "make_transport",
    "register_transport",
    "serve_link",
]
