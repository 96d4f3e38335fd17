"""The Transport/WorkerLink seam: framing, config surface, conformance.

Three layers of coverage:

* tier-1 units for the wire framing helpers, the transport registry and
  the ``workers``/``transport`` configuration surface (the retired
  ``parallel_workers`` spelling must stay gone);
* a tier-1 socket smoke case (one TCP worker, tiny topology) so the
  default test run exercises a real ``python -m repro.worker``
  subprocess end to end;
* the transport conformance suite — the contract every implementation
  must satisfy (ordering, barrier flush, one batch form, bit-identical
  replay, unified stats, idempotent close) — instantiated for the pipe
  transport under
  the ``parallel`` marker and for the socket transport under the
  ``distributed`` marker.
"""

import argparse
import os
import socket
import struct
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import _workers_argument
from repro.exceptions import PartitioningError, TopologyError
from repro.experiments.config import ExperimentConfig
from repro.faults import FaultPlan
from repro.streaming.component import Bolt, Spout
from repro.streaming.executor import LocalCluster
from repro.streaming.grouping import AllGrouping, FieldsGrouping, GlobalGrouping
from repro.streaming.parallel import ParallelCluster
from repro.streaming.recovery import RestartPolicy
from repro.streaming.topology import TopologyBuilder
from repro.streaming.transport import (
    Transport,
    WireCodec,
    available_transports,
    make_transport,
)
from repro.streaming.transport.framing import (
    FRAME_HEADER,
    BufferFrame,
    FrameDecoder,
    FrameError,
    decode_buffer_payload,
    encode_frame,
    format_banner,
    is_attach_address,
    parse_address,
    parse_banner,
)
from repro.streaming.tuples import StreamTuple, lowest_owner
from repro.topology.messages import ColumnarWireCodec
from repro.topology.pipeline import StreamJoinConfig


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip_single_message(self):
        decoder = FrameDecoder()
        message = ("ack", 7, 0, {"square": 4}, 0, [], [])
        assert decoder.feed(encode_frame(message)) == [message]
        assert decoder.pending_bytes == 0

    def test_multiple_messages_in_one_feed(self):
        messages = [("ack", i, 0, [("a", 0, "s", None, (i,))]) for i in range(5)]
        blob = b"".join(encode_frame(m) for m in messages)
        assert FrameDecoder().feed(blob) == messages

    def test_byte_at_a_time_feed(self):
        messages = [("stop",), ("snapshot", 3), ("ack", 0, 1)]
        blob = b"".join(encode_frame(m) for m in messages)
        decoder, received = FrameDecoder(), []
        for i in range(len(blob)):
            received.extend(decoder.feed(blob[i : i + 1]))
        assert received == messages
        assert decoder.pending_bytes == 0

    def test_partial_frame_stays_buffered(self):
        frame = encode_frame(("stop",))
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.pending_bytes == len(frame) - 1
        assert decoder.feed(frame[-1:]) == [("stop",)]


class TestBufferFrames:
    def test_payload_roundtrip(self):
        frame = BufferFrame(("cbatch", 3, "env"), [b"\x01\x02", b"", b"abc"])
        decoded = decode_buffer_payload(frame.to_bytes()[4:])
        assert decoded.envelope == ("cbatch", 3, "env")
        assert [bytes(view) for view in decoded.buffers] == [b"\x01\x02", b"", b"abc"]

    def test_decoder_handles_mixed_frame_kinds(self):
        frame = BufferFrame({"seq": 1}, [b"columns"])
        blob = encode_frame(("stop",)) + frame.to_bytes() + encode_frame(("ack", 2))
        decoder, received = FrameDecoder(), []
        for i in range(len(blob)):  # worst case: byte-at-a-time delivery
            received.extend(decoder.feed(blob[i : i + 1]))
        assert received[0] == ("stop",)
        assert received[2] == ("ack", 2)
        middle = received[1]
        assert isinstance(middle, BufferFrame)
        assert middle.envelope == {"seq": 1}
        assert bytes(middle.buffers[0]) == b"columns"

    def test_parts_concatenate_to_the_wire_bytes(self):
        # a link writes parts() chunk by chunk; they must equal the
        # contiguous form
        frame = BufferFrame((1, 2), [bytes(range(10)), b"x" * 100])
        assert b"".join(bytes(p) for p in frame.parts()) == frame.to_bytes()

    def test_frames_are_stable_across_re_serialization(self):
        # journal replay guarantee: the same frame always produces the
        # same bytes, and a received copy re-serializes to them too
        frame = BufferFrame(("cbatch", 9), [b"\x00" * 16])
        first = frame.to_bytes()
        assert frame.to_bytes() == first
        (clone,) = FrameDecoder().feed(first)
        assert clone.to_bytes() == first


#: byte size of the meta block's count word and of each length word
_WORD = 4


@st.composite
def _buffer_payloads(draw):
    """A valid buffer-frame payload (no outer header)."""
    envelope = draw(st.tuples(st.text(max_size=8), st.integers()))
    buffers = draw(st.lists(st.binary(max_size=24), max_size=4))
    return BufferFrame(envelope, buffers).to_bytes()[FRAME_HEADER.size:]


class TestHostileMetaBlock:
    """``decode_buffer_payload`` trusts nothing it reads off the wire:
    a payload either decodes to buffers that exactly tile it or raises
    :class:`FrameError` — never ``struct.error`` or ``IndexError``."""

    @staticmethod
    def _decodes_or_rejects(payload: bytes) -> None:
        try:
            frame = decode_buffer_payload(payload)
        except FrameError:
            return
        meta = _WORD * (2 + len(frame.buffers))
        tiled = meta + len(frame.envelope_bytes) + sum(
            len(view) for view in frame.buffers
        )
        assert tiled == len(payload)

    @given(_buffer_payloads(), st.data())
    def test_truncations(self, payload, data):
        # a strict prefix can never tile: its meta block is unchanged
        cut = data.draw(st.integers(0, len(payload) - 1))
        with pytest.raises(FrameError):
            decode_buffer_payload(payload[:cut])

    @given(_buffer_payloads(), st.data())
    def test_single_bit_flips_in_the_meta_block(self, payload, data):
        (count,) = struct.unpack_from("!I", payload)
        bit = data.draw(st.integers(0, 8 * _WORD * (1 + count) - 1))
        flipped = bytearray(payload)
        flipped[bit // 8] ^= 1 << (bit % 8)
        self._decodes_or_rejects(bytes(flipped))

    @pytest.mark.parametrize(
        "payload",
        [b"", b"\x00\x00", struct.pack("!I", 0), struct.pack("!II", 5, 1)],
    )
    def test_degenerate_payloads_raise_frame_error(self, payload):
        with pytest.raises(FrameError):
            decode_buffer_payload(payload)

    def test_the_stream_decoder_raises_it_too(self):
        wire = bytearray(BufferFrame(("frame", 1), [b"abc"]).to_bytes())
        wire[FRAME_HEADER.size + _WORD + 3] ^= 0x01  # envelope length
        with pytest.raises(FrameError):
            FrameDecoder().feed(bytes(wire))


def _generic_entries():
    """A generic topology's batch: per-stream tuples, one fan-out mask
    and one ``(component, task, tuple)`` triple."""
    return [
        ("square", 0, StreamTuple("numbers", (3,), "src", 0), 0b1),
        ("square", 0, StreamTuple("tick", (10,), "src", 0), 0b11),
        ("square", 1, StreamTuple("numbers", (4,), "src", 0, 1)),
    ]


def _one_entry_batch(codec, mask: int, task_index=None):
    """A one-entry batch for ``mask``: a pickled slot from the base
    codec, a row of the columnar mask column (signed ``'q'``) from the
    topology's.  The slot names ``task_index`` beside the mask, by
    default the lowest owner (a column row carries no task index)."""
    if task_index is None:
        task_index = lowest_owner(mask)
    if isinstance(codec, ColumnarWireCodec):
        from repro.core.document import Document
        from repro.topology.messages import ASSIGNED, ASSIGNER

        tup = StreamTuple(ASSIGNED, (Document({"a": 1}, doc_id=1), 0, None), ASSIGNER, 0)
    else:
        tup = StreamTuple("numbers", (3,), "src", 0)
    return codec.encode_batch(1, [("joiner", task_index, tup, mask)])


class TestForeignMasks:
    """A worker acks an entry only for tasks it holds: a mask naming no
    task, a negative one or one naming a task the worker does not hold
    is a :class:`FrameError`, and the worker loop closes the link — it
    never hangs, grows a list forever or dies on a bare ``KeyError``.
    The slot's task index is never read: the owners come from the mask."""

    HELD = 0b101  # the worker holds joiner tasks 0 and 2

    def _init(self, codec):
        from repro.streaming.transport import WorkerInit

        tasks = {("joiner", 0): SquareBolt(), ("joiner", 2): SquareBolt()}
        return WorkerInit(0, 0, tasks, codec=codec)

    def _serve(self, codec, mask: int, task_index=None) -> list:
        """One batch through ``serve_link`` on a socketpair; the replies
        before the link closed (after a ``stop`` when the batch acked)."""
        from threading import Thread

        from repro.streaming.transport import serve_link

        parent, child = socket.socketpair()
        served = []  # stays empty if serve_link raises
        worker = Thread(target=lambda: served.append(serve_link(child, self._init(codec))))
        worker.start()
        replies: list = []
        try:
            parent.settimeout(5)
            # one write: the worker may close the link right after the batch
            parent.sendall(
                _one_entry_batch(codec, mask, task_index).to_bytes()
                + encode_frame(("stop",))
            )
            decoder = FrameDecoder()
            while data := parent.recv(1 << 16):
                replies.extend(decoder.feed(data))
        finally:
            worker.join(5)
            parent.close()
        assert served == [None] and not worker.is_alive()
        return replies

    @pytest.mark.parametrize("codec", [WireCodec, ColumnarWireCodec])
    @given(
        mask=st.one_of(
            st.integers(-2, 1 << 4), st.integers(-(2**63), 2**63 - 1)
        )
    )
    def test_every_mask_acks_or_closes_the_link(self, codec, mask):
        replies = self._serve(codec(), mask)
        if mask > 0 and not mask & ~self.HELD:
            (ack,) = replies
            assert ack[:3] == ("ack", 1, 0) and ack[3] == (("joiner", mask.bit_count()),)
        else:
            assert replies == []

    @given(task_index=st.integers(), mask=st.integers(-2, 1 << 4))
    def test_every_task_index_acks_or_closes_the_link(self, task_index, mask):
        replies = self._serve(WireCodec(), mask, task_index)
        if mask > 0 and not mask & ~self.HELD:
            (ack,) = replies
            assert ack[:3] == ("ack", 1, 0) and ack[3] == (("joiner", mask.bit_count()),)
        else:
            assert replies == []

    def test_adopt_and_disown_move_the_held_mask(self):
        from repro.streaming.transport import WorkerSession

        codec = WireCodec()
        session = WorkerSession(self._init(codec))
        session.handle(("disown", (("joiner", 2),)))
        with pytest.raises(FrameError, match="holds 0x1"):
            session.handle(_one_entry_batch(codec, 0b100))
        session.handle(("adopt", {("joiner", 1): SquareBolt()}))
        (ack,) = session.handle(_one_entry_batch(codec, 0b11))
        assert ack[0] == "ack" and ack[3] == (("joiner", 2),)


class TestBaseWireCodec:
    """The streaming layer's default codec frames any topology's batch."""

    def test_frame_roundtrip_decodes_every_entry(self):
        codec = WireCodec()
        frame = codec.encode_batch(7, _generic_entries())
        (received,) = FrameDecoder().feed(frame.to_bytes())
        assert isinstance(received, BufferFrame)
        assert codec.decode_batch(received) == (
            7,
            [
                ("square", 0, "numbers", "src", 0, None, (3,), 0b1),
                ("square", 0, "tick", "src", 0, None, (10,), 0b11),
                ("square", 1, "numbers", "src", 0, 1, (4,), 0b10),
            ],
        )

    def test_encoding_is_deterministic(self):
        # what journal replay relies on: the same raw entries encode to
        # the same bytes, on the same codec or a fresh one
        entries = _generic_entries()
        first = WireCodec().encode_batch(3, entries).to_bytes()
        codec = WireCodec()
        assert codec.encode_batch(3, entries).to_bytes() == first
        assert codec.encode_batch(3, entries).to_bytes() == first

    def test_registered_streams_ship_their_plain_form(self):
        codec = WireCodec()
        codec.register("numbers", lambda v: (str(v[0]),), lambda v: (int(v[0]),))
        frame = codec.encode_batch(1, _generic_entries())
        assert frame.envelope[2][0][6] == ("3",)
        _seq, decoded = codec.decode_batch(frame)
        assert [entry[6] for entry in decoded] == [(3,), (10,), (4,)]


class TestAddresses:
    def test_parse_host_port(self):
        assert parse_address("10.0.0.5:7777") == ("10.0.0.5", 7777)

    def test_empty_host_means_local(self):
        assert parse_address(":0") == ("127.0.0.1", 0)

    def test_attach_scheme_is_stripped(self):
        assert parse_address("tcp://worker-3:6000") == ("worker-3", 6000)
        assert is_attach_address("tcp://worker-3:6000")
        assert not is_attach_address("worker-3:6000")

    @pytest.mark.parametrize("bad", ["nocolon", "host:notaport", "host:70000"])
    def test_malformed_addresses_raise(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_banner_roundtrip(self):
        assert parse_banner(format_banner("127.0.0.1", 40123)) == (
            "127.0.0.1",
            40123,
        )

    @pytest.mark.parametrize(
        "noise",
        ["", "warning: something", "REPRO-WORKER LISTENING", "REPRO-WORKER LISTENING h p"],
    )
    def test_banner_ignores_noise(self, noise):
        assert parse_banner(noise) is None


# ----------------------------------------------------------------------
# Transport registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_both_transports_are_registered(self):
        names = available_transports()
        assert "pipe" in names and "socket" in names

    def test_make_transport_builds_instances(self):
        for name in ("pipe", "socket"):
            transport = make_transport(name)
            assert isinstance(transport, Transport)
            assert transport.name == name
            assert transport.stats() == {"transport": name, "reconnects": 0}
            transport.close()

    def test_unknown_transport_raises(self):
        with pytest.raises(TopologyError, match="unknown transport"):
            make_transport("carrier-pigeon")

    def test_pipe_transport_rejects_addresses(self):
        with pytest.raises(TopologyError):
            make_transport("pipe", addresses=("127.0.0.1:1234",))


# ----------------------------------------------------------------------
# Redesigned configuration surface
# ----------------------------------------------------------------------
class TestConfigSurface:
    def test_parallel_workers_spelling_is_gone(self):
        # the PR 6 deprecation shim served its release; ``workers`` is
        # the only spelling now
        with pytest.raises(TypeError, match="parallel_workers"):
            StreamJoinConfig(m=4, backend="parallel", parallel_workers=2)
        with pytest.raises(TypeError, match="parallel_workers"):
            ExperimentConfig(
                dataset="rwData", backend="parallel", parallel_workers=2
            )

    def test_workers_alone_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = StreamJoinConfig(m=4, backend="parallel", workers=2)
        assert config.workers == 2

    def test_worker_count_must_be_positive(self):
        with pytest.raises(PartitioningError, match="workers"):
            StreamJoinConfig(m=4, workers=0)

    def test_unknown_transport_rejected(self):
        with pytest.raises(PartitioningError, match="unknown transport"):
            StreamJoinConfig(m=4, transport="smoke-signals")

    def test_addresses_require_socket_transport(self):
        with pytest.raises(PartitioningError, match="socket"):
            StreamJoinConfig(m=4, workers=["127.0.0.1:0"])

    def test_address_list_normalizes_to_tuple(self):
        config = StreamJoinConfig(
            m=4, transport="socket", workers=["127.0.0.1:0", ":0"]
        )
        assert config.workers == ("127.0.0.1:0", ":0")
        hash(config)  # experiment caches key on the config

    def test_malformed_address_rejected(self):
        with pytest.raises(PartitioningError):
            StreamJoinConfig(m=4, transport="socket", workers=["nocolon"])


class TestCliWorkersArgument:
    def test_count(self):
        assert _workers_argument("4") == 4

    def test_address_list(self):
        assert _workers_argument("host-a:7000, host-b:7001") == (
            "host-a:7000",
            "host-b:7001",
        )

    def test_single_address(self):
        assert _workers_argument("tcp://host-a:7000") == ("tcp://host-a:7000",)

    @pytest.mark.parametrize("bad", ["bogus", ","])
    def test_garbage_rejected(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            _workers_argument(bad)


# ----------------------------------------------------------------------
# Conformance suite: the contract every transport must satisfy
# ----------------------------------------------------------------------
class TickingNumberSpout(Spout):
    """Emits 0..n-1 with a barrier tick every ``period`` numbers; with
    ``pad`` > 0 every number carries that many bytes of its own (distinct
    objects, so a frame's pickle cannot share them)."""

    def __init__(self, n: int, period: int = 10, pad: int = 0):
        self.n, self.period, self._i = n, period, 0
        self.pad = pad

    def next_tuple(self, collector) -> bool:
        if self._i >= self.n:
            return False
        if self.pad:
            filler = self._i.to_bytes(4, "big") * (self.pad // 4)
            collector.emit("numbers", (self._i, filler))
        else:
            collector.emit("numbers", (self._i,))
        self._i += 1
        if self._i % self.period == 0:
            collector.emit("tick", (self._i,))
        return self._i < self.n


class SquareBolt(Bolt):
    def process(self, tup, collector) -> None:
        if tup.stream == "numbers":
            collector.emit("squares", (tup.values[0] ** 2,))


class CollectBolt(Bolt):
    def __init__(self):
        self.values: list[int] = []

    def process(self, tup, collector) -> None:
        self.values.append(tup.values[0])


def _square_topology(
    collector: CollectBolt, n: int = 50, period: int = 10, pad: int = 0
):
    builder = TopologyBuilder()
    builder.set_spout("src", lambda: TickingNumberSpout(n, period, pad))
    square = builder.set_bolt("square", SquareBolt, parallelism=2)
    square.subscribe("src", "numbers", FieldsGrouping(key=0))
    square.subscribe("src", "tick", AllGrouping())
    builder.set_bolt("collect", lambda: collector).subscribe(
        "square", "squares", GlobalGrouping()
    )
    return builder.build()


def _clean_reference(n: int = 50, **shape) -> list[int]:
    collector = CollectBolt()
    with LocalCluster(_square_topology(collector, n, **shape)) as cluster:
        cluster.run()
    return sorted(collector.values)


def _largest_send_buffer() -> int:
    """``SO_SNDBUF`` of a fresh socketpair end or loopback TCP socket,
    whichever is larger."""
    pair = socket.socketpair()
    with socket.create_server(("127.0.0.1", 0)) as server, pair[0], pair[1]:
        with socket.create_connection(server.getsockname()) as tcp:
            return max(
                end.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
                for end in (pair[0], tcp)
            )


#: zero-backoff restart policy so recovery cases stay fast
FAST_RESTART = RestartPolicy(max_restarts_per_window=3, backoff_base_s=0.0, jitter=0.0)


class TransportConformance:
    """Shared cases; subclasses pick the transport (and the marker)."""

    TRANSPORT = "unset"

    def _cluster(
        self, collector: CollectBolt, n: int = 50, shape=None, **kwargs
    ) -> ParallelCluster:
        kwargs.setdefault("batch_size", 4)
        return ParallelCluster(
            _square_topology(collector, n, **(shape or {})),
            remote_components=("square",),
            barrier_streams=("tick",),
            transport=self.TRANSPORT,
            workers=2,
            **kwargs,
        )

    def test_clean_run_matches_local(self):
        clean = _clean_reference()
        collector = CollectBolt()
        with self._cluster(collector) as cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["transport"] == self.TRANSPORT
        assert stats["reconnects"] == 0
        assert stats["worker_restarts"] == 0

    def test_barrier_flush_releases_everything(self):
        """After a run every shipped batch is acked, every barrier
        completed and every stashed emission released — nothing in
        flight, nothing buffered, nothing journaled."""
        collector = CollectBolt()
        with self._cluster(collector) as cluster:
            cluster.run()
            for handle in cluster._workers:
                assert not handle.pending
                assert not handle.buffer
                assert not handle.journal and not handle.journal.suppress
            assert not cluster._barriers.open
            assert cluster._barriers.completed == 5
            assert cluster._barriers.release_rest() == []
        assert len(collector.values) == 50

    def test_mid_pipeline_kill_is_byte_identical(self):
        """Kill a worker while one window's acks are still draining and
        the next window's frames are already staged on the corked link:
        the journal replay must cover both windows — the acked-but-
        unreleased one and the staged one — and results stay identical
        to the local reference."""
        clean = _clean_reference(n=80)
        collector = CollectBolt()
        cluster = self._cluster(
            collector,
            n=80,
            restart_policy=FAST_RESTART,
            # dies on receipt of batch 6 — inside the second window's
            # batch range, while the first window's barrier can still
            # be outstanding under the default pipeline depth
            fault_plan=FaultPlan().kill_worker(1, after_batches=5),
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["worker_restarts"] == 1
        assert stats["reconnects"] == 1

    def test_corked_links_drain_by_end_of_run(self):
        """Staged (corked) writes must all reach the kernel by the time
        the run's final drain returns — nothing parked parent-side."""
        collector = CollectBolt()
        with self._cluster(collector) as cluster:
            cluster.run()
            for handle in cluster._workers:
                link = handle.link
                if link is None:
                    continue
                assert not getattr(link, "_pending", ())
        assert len(collector.values) == 50

    def test_one_batch_form_on_the_wire_and_in_the_journal(self):
        """A generic topology without ``codec=`` still frames: every
        parent->worker batch — first sends and the replay after a kill —
        is a ``BufferFrame`` from the base codec, and every journal
        value is the list of raw entries it was encoded from."""
        clean = _clean_reference()
        collector = CollectBolt()
        cluster = self._cluster(
            collector,
            restart_policy=FAST_RESTART,
            fault_plan=FaultPlan().kill_worker(0, after_batches=1),
        )
        frames: list = []
        others: list = []

        def check_journals():
            for handle in cluster._workers:
                for entries in handle.journal.batches.values():
                    assert type(entries) is list
                    for component, task_index, tup, mask in entries:
                        assert component == "square"
                        assert isinstance(tup, StreamTuple)
                        assert mask & -mask == 1 << task_index

        class SpyLink:
            def __init__(self, link):
                self._link = link

            def _record(self, message):
                if isinstance(message, BufferFrame):
                    frames.append(message.envelope[1])
                else:
                    others.append(message[0])
                check_journals()

            def send(self, message):
                self._record(message)
                return self._link.send(message)

            def stage(self, message):
                self._record(message)
                return self._link.stage(message)

            def __getattr__(self, name):
                return getattr(self._link, name)

        inner_spawn = cluster._transport.spawn
        cluster._transport.spawn = lambda init: SpyLink(inner_spawn(init))
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["worker_restarts"] == 1
        assert len(frames) > len(set(frames)), "the kill must force a replay"
        assert set(others) <= {"stop", "snapshot"}

    def test_replayed_frames_are_bit_identical(self):
        """The journal stores raw entries and a replacement worker's
        replay re-encodes them: encoding is deterministic, so the
        replayed wire bytes equal the first send's."""
        clean = _clean_reference()
        collector = CollectBolt()
        cluster = self._cluster(
            collector,
            codec=ColumnarWireCodec(),
            restart_policy=FAST_RESTART,
            fault_plan=FaultPlan().kill_worker(0, after_batches=1),
        )
        first_send: dict = {}
        replayed: list = []

        class RecordingLink:
            def __init__(self, link):
                self._link = link

            def _record(self, message):
                if isinstance(message, BufferFrame):
                    seq = message.envelope[1]
                    wire = message.to_bytes()
                    if seq in first_send:
                        replayed.append((seq, wire))
                    else:
                        first_send[seq] = wire

            def send(self, message):
                self._record(message)
                self._link.send(message)

            def stage(self, message):
                self._record(message)
                self._link.stage(message)

            def __getattr__(self, name):
                return getattr(self._link, name)

        inner_spawn = cluster._transport.spawn
        cluster._transport.spawn = lambda init: RecordingLink(inner_spawn(init))
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["worker_restarts"] == 1
        assert replayed, "the kill must have forced a frame replay"
        for seq, wire in replayed:
            assert wire == first_send[seq]

    def test_frames_larger_than_the_socket_buffer(self):
        """Batches of 128 padded numbers: every full frame is larger than
        256 KiB and than the link's send buffer, so ``stage``/``pump``
        finish it over several partial writes."""
        shape = {"period": 300, "pad": max(4096, _largest_send_buffer() // 100)}
        clean = _clean_reference(n=300, **shape)
        collector = CollectBolt()
        cluster = self._cluster(
            collector, n=300, shape=shape, batch_size=128
        )
        staged: list[int] = []
        send_buffers: list[int] = []

        class SizingLink:
            def __init__(self, link):
                self._link = link
                send_buffers.append(
                    link._sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
                )

            def stage(self, message):
                staged.append(len(message.to_bytes()))
                self._link.stage(message)

            def __getattr__(self, name):
                return getattr(self._link, name)

        inner_spawn = cluster._transport.spawn
        cluster._transport.spawn = lambda init: SizingLink(inner_spawn(init))
        segments = set(os.listdir("/dev/shm"))
        with cluster:
            cluster.run()
        assert sorted(collector.values) == clean
        assert max(staged) > max(256 * 1024, *send_buffers)
        assert set(os.listdir("/dev/shm")) <= segments

    def test_stats_schema_is_unified(self):
        collector = CollectBolt()
        with self._cluster(collector) as cluster:
            cluster.run()
            stats = cluster.stats()
        local = CollectBolt()
        with LocalCluster(_square_topology(local)) as reference:
            reference.run()
            assert set(stats) == set(reference.stats())

    def test_close_is_idempotent_and_reaps_all_workers(self):
        collector = CollectBolt()
        cluster = self._cluster(collector, n=20)
        cluster.run()
        cluster.close()
        assert all(handle.link is None for handle in cluster._workers)
        cluster.close()  # second close must be a no-op, not an error

    def test_close_without_start_is_safe(self):
        cluster = self._cluster(CollectBolt())
        cluster.close()
        cluster.close()


@pytest.mark.parallel
class TestPipeConformance(TransportConformance):
    TRANSPORT = "pipe"


@pytest.mark.distributed
class TestSocketConformance(TransportConformance):
    TRANSPORT = "socket"


class TestSocketSmoke:
    """Tier-1: one real TCP worker end to end, kept deliberately tiny."""

    def test_single_socket_worker_matches_local(self):
        clean = _clean_reference(n=20)
        collector = CollectBolt()
        with ParallelCluster(
            _square_topology(collector, n=20),
            remote_components=("square",),
            barrier_streams=("tick",),
            transport="socket",
            workers=1,
            batch_size=4,
        ) as cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["transport"] == "socket"
        assert stats["reconnects"] == 0
