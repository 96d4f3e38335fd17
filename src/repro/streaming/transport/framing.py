"""Wire framing: the one protocol every worker link speaks.

Both transports move the same bytes — a forked pipe worker over one end
of a ``socket.socketpair()``, a socket worker over TCP — and both sides
of a link speak the same trivial protocol: a stream of
**length-prefixed frames**.  Each frame is a 4-byte unsigned
big-endian header followed by the payload (``docs/distributed.md``
documents the format).  Two frame kinds share the stream:

* **pickle frames** (header MSB clear): the payload is one pickled
  message — the original protocol, still used for control messages and
  worker→parent replies.
* **buffer frames** (header MSB set): the payload is a small pickled
  *envelope* followed by raw byte buffers, see :class:`BufferFrame`.
  The columnar wire codec ships document batches this way so the
  parent can scatter-write pre-encoded array buffers without pickling
  them, and replay a journaled frame verbatim.

Framing is deliberately independent of the message vocabulary — the
parent/worker messages themselves are defined by
:class:`~repro.streaming.transport.session.WorkerSession`.

The helpers here are synchronous and allocation-light.  There is one
reader, :class:`FrameDecoder`: the parent's selector loop feeds one per
link, and the worker loop
(:func:`~repro.streaming.transport.session.serve_link`) feeds one per
connection.  A buffer frame whose meta block does not describe its
payload raises :class:`FrameError`.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Optional, Sequence

#: 4-byte unsigned big-endian header: payload length, MSB = buffer frame
FRAME_HEADER = struct.Struct("!I")
#: header MSB marking a multi-buffer frame
FRAME_BUFFERS_FLAG = 0x80000000
#: hard cap implied by the header width (31 usable length bits)
MAX_FRAME_BYTES = FRAME_BUFFERS_FLAG - 1
#: per-buffer length prefix inside a buffer-frame payload
_BUFFER_LENGTH = struct.Struct("!I")

#: first stdout line of a listening worker: ``REPRO-WORKER LISTENING host port``
LISTEN_BANNER = "REPRO-WORKER LISTENING"

#: host used when an address omits one (``":0"`` → any free local port)
DEFAULT_HOST = "127.0.0.1"
#: scheme marking an address as *attach* (connect to an already-running
#: worker instead of spawning a subprocess)
ATTACH_SCHEME = "tcp://"


class FrameError(ValueError):
    """A buffer frame's meta block does not describe its payload."""


def encode_frame(message: Any) -> bytes:
    """One message → header + pickled payload, ready for ``sendall``."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:  # pragma: no cover - 2 GiB message
        raise ValueError(f"message of {len(payload)} bytes exceeds the frame format")
    return FRAME_HEADER.pack(len(payload)) + payload


def _byte_view(part) -> memoryview:
    view = part if isinstance(part, memoryview) else memoryview(part)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    return view


class BufferFrame:
    """A message shipped as a pickled envelope plus raw byte buffers.

    The wire payload is ``!I`` buffer count, then one ``!I`` length per
    buffer, then the buffers back to back; buffer 0 is always the
    pickled envelope.  A frame is **immutable once built** — the
    envelope is pickled at construction time — so journaling a frame
    and replaying it later reproduces the first send bit for bit.

    :meth:`parts` returns the scatter list (header + metadata block,
    envelope, raw buffers) a link writes chunk by chunk without
    concatenating; :meth:`to_bytes` joins it into one contiguous blob
    (tests, tools).
    """

    __slots__ = ("envelope_bytes", "buffers", "_envelope")

    def __init__(
        self,
        envelope: Any = None,
        buffers: Sequence = (),
        *,
        envelope_bytes: Optional[bytes] = None,
    ) -> None:
        if envelope_bytes is None:
            envelope_bytes = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
            self._envelope = envelope
        else:
            self._envelope = _UNPICKLED
        self.envelope_bytes = envelope_bytes
        self.buffers = [_byte_view(part) for part in buffers]

    @property
    def envelope(self) -> Any:
        if self._envelope is _UNPICKLED:
            self._envelope = pickle.loads(self.envelope_bytes)
        return self._envelope

    @property
    def payload_nbytes(self) -> int:
        meta = _BUFFER_LENGTH.size * (2 + len(self.buffers))
        return (
            meta
            + len(self.envelope_bytes)
            + sum(len(view) for view in self.buffers)
        )

    def _meta_block(self) -> bytes:
        """Buffer count + per-buffer lengths (envelope counts as buffer 0)."""
        lengths = [len(self.envelope_bytes)]
        lengths.extend(len(view) for view in self.buffers)
        return _BUFFER_LENGTH.pack(len(lengths)) + b"".join(
            _BUFFER_LENGTH.pack(length) for length in lengths
        )

    def parts(self) -> list:
        """Scatter list of the full wire frame."""
        nbytes = self.payload_nbytes
        if nbytes > MAX_FRAME_BYTES:  # pragma: no cover - 2 GiB frame
            raise ValueError(f"frame of {nbytes} bytes exceeds the frame format")
        header = FRAME_HEADER.pack(FRAME_BUFFERS_FLAG | nbytes)
        return [header + self._meta_block(), self.envelope_bytes, *self.buffers]

    def to_bytes(self) -> bytes:
        """The full wire frame as one contiguous blob."""
        return b"".join(bytes(part) for part in self.parts())


#: sentinel: the envelope has not been unpickled yet
_UNPICKLED = object()


def decode_buffer_payload(payload) -> BufferFrame:
    """A buffer-frame payload (bytes or memoryview) → :class:`BufferFrame`.

    The returned frame's buffers are zero-copy views into ``payload``.
    Raises :class:`FrameError` unless the meta block fits the payload,
    names at least the envelope, and its lengths exactly tile the bytes
    after it.
    """
    root = _byte_view(payload)
    size = _BUFFER_LENGTH.size
    if len(root) < size:
        raise FrameError(f"{len(root)}-byte buffer-frame payload has no meta block")
    (count,) = _BUFFER_LENGTH.unpack_from(root, 0)
    offset = size * (1 + count)
    if count == 0 or offset > len(root):
        raise FrameError(
            f"meta block of {count} buffer(s) does not fit a "
            f"{len(root)}-byte payload"
        )
    lengths = struct.unpack_from(f"!{count}I", root, size)
    if offset + sum(lengths) != len(root):
        raise FrameError(
            f"buffer lengths sum to {sum(lengths)} bytes, the payload "
            f"carries {len(root) - offset} after its meta block"
        )
    views = []
    for length in lengths:
        views.append(root[offset:offset + length])
        offset += length
    frame = BufferFrame(buffers=views[1:], envelope_bytes=bytes(views[0]))
    views[0].release()
    return frame


class FrameDecoder:
    """Incremental frame parser for one receive direction of one link.

    Feed it whatever ``recv`` returned; it hands back every *complete*
    message and buffers the tail of a partial frame for the next feed.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list:
        self._buffer.extend(data)
        messages: list = []
        header = FRAME_HEADER.size
        while len(self._buffer) >= header:
            (word,) = FRAME_HEADER.unpack_from(self._buffer)
            length = word & MAX_FRAME_BYTES
            end = header + length
            if len(self._buffer) < end:
                break
            payload = bytes(self._buffer[header:end])
            if word & FRAME_BUFFERS_FLAG:
                # One consolidation copy out of the stream buffer, then
                # the frame's buffers are views into that copy.
                messages.append(decode_buffer_payload(payload))
            else:
                messages.append(pickle.loads(payload))
            del self._buffer[:end]
        return messages

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


def is_attach_address(address: str) -> bool:
    """True for ``tcp://host:port`` (connect, do not spawn)."""
    return address.startswith(ATTACH_SCHEME)


def parse_address(address: str) -> tuple[str, int]:
    """``[tcp://]host:port`` → ``(host, port)``; empty host means local.

    Raises :class:`ValueError` with a usable message on malformed input
    (callers wrap it in their own error type).
    """
    text = address.strip()
    if is_attach_address(text):
        text = text[len(ATTACH_SCHEME):]
    host, sep, port_text = text.rpartition(":")
    if not sep:
        raise ValueError(
            f"worker address must look like 'host:port', got {address!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"worker address {address!r} has a non-numeric port {port_text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"worker address {address!r} has an out-of-range port")
    return (host or DEFAULT_HOST, port)


def format_banner(host: str, port: int) -> str:
    return f"{LISTEN_BANNER} {host} {port}"


def parse_banner(line: str) -> Optional[tuple[str, int]]:
    """The worker's LISTEN line → ``(host, port)``, or None for noise."""
    text = line.strip()
    if not text.startswith(LISTEN_BANNER):
        return None
    parts = text[len(LISTEN_BANNER):].split()
    if len(parts) != 2:
        return None
    try:
        return (parts[0], int(parts[1]))
    except ValueError:
        return None
