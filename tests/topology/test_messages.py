"""Unit tests for the topology message payloads and wire codecs."""

from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.document import Document
from repro.streaming.transport import WireCodec
from repro.streaming.transport.framing import BufferFrame, FrameDecoder, FrameError
from repro.topology.messages import (
    ASSIGNED,
    AttributeStats,
    ColumnarWireCodec,
    ControlMessage,
    wire_codec,
)


class TestAttributeStats:
    def test_observe_counts_documents_and_values(self):
        stats = AttributeStats()
        stats.observe([("a", 1), ("b", 2)])
        stats.observe([("a", 3)])
        assert stats.sample_size == 2
        assert stats.doc_count == {"a": 2, "b": 1}
        assert stats.values["a"] == {1, 3}

    def test_value_cap_bounds_memory(self):
        stats = AttributeStats()
        for i in range(AttributeStats.VALUE_CAP + 50):
            stats.observe([("k", i)])
        assert len(stats.values["k"]) == AttributeStats.VALUE_CAP
        assert stats.doc_count["k"] == AttributeStats.VALUE_CAP + 50

    def test_merge_combines_counts(self):
        a, b = AttributeStats(), AttributeStats()
        a.observe([("x", 1)])
        b.observe([("x", 2), ("y", 3)])
        a.merge(b)
        assert a.sample_size == 2
        assert a.doc_count == {"x": 2, "y": 1}
        assert a.values["x"] == {1, 2}

    def test_merge_respects_cap(self):
        a, b = AttributeStats(), AttributeStats()
        for i in range(AttributeStats.VALUE_CAP):
            a.observe([("k", i)])
        b.observe([("k", "fresh")])
        a.merge(b)
        assert len(a.values["k"]) == AttributeStats.VALUE_CAP


class TestControlMessage:
    def test_repartition_message(self):
        control = ControlMessage(kind="repartition", window_id=3)
        assert control.pair is None
        assert control.co_pairs == ()

    def test_messages_are_hashable(self):
        a = ControlMessage(kind="repartition", window_id=3)
        b = ControlMessage(kind="repartition", window_id=3)
        assert a == b
        assert hash(a) == hash(b)


def roundtrip(codec, doc, window_id=0, side=None):
    return codec.decode(ASSIGNED, codec.encode(ASSIGNED, (doc, window_id, side)))


class TestColumnarWireCodec:
    def test_default_codec_ships_columnar_frames(self):
        codec = wire_codec()
        assert isinstance(codec, ColumnarWireCodec)
        # one streaming-layer codec family: the topology codec only adds
        # the assigned columns to the base frame
        assert isinstance(codec, WireCodec)

    def test_per_entry_form_is_stateless(self):
        # worker->parent traffic and entries that do not fit the columns
        # use the plain-tuple per-entry form; it is safe to reuse anywhere
        codec = wire_codec()
        doc = Document({"a": 1}, doc_id=0)
        encoded = codec.encode(ASSIGNED, (doc, 1, None))
        assert encoded == ((("a", 1),), 0, 1, None)
        decoded, window_id, side = roundtrip(codec, doc, window_id=2, side="L")
        assert decoded.pairs == doc.pairs and decoded.doc_id == 0
        assert (window_id, side) == (2, "L")

    def test_per_entry_form_preserves_value_types(self):
        # The joiners may conflate 1/True/1.0 (value equality); the wire
        # must not — documents reconstruct with their original types.
        codec = wire_codec()
        for value in (1, True, 1.0, "1"):
            decoded, _, _ = roundtrip(codec, Document({"k": value}, doc_id=0))
            assert type(decoded.pairs["k"]) is type(value)
            assert decoded.pairs["k"] == value


def _frame_roundtrip(codec, seq, entries):
    """Encode, cross the wire as bytes, decode — as a worker link does."""
    from repro.streaming.transport.framing import FrameDecoder

    frame = codec.encode_batch(seq, entries)
    (received,) = FrameDecoder().feed(b"".join(bytes(p) for p in frame.parts()))
    return frame, codec.decode_batch(received)


class TestFrameEntries:
    def test_per_task_triples_are_one_bit_masks(self):
        """The contract ``bench/replay.py`` drives: ``(component, task,
        StreamTuple)`` triples in, one decoded entry per triple out,
        ``entry[1]`` the int task index and ``entry[6][0]`` the
        document; the mask rides behind as the trailing field."""
        from repro.streaming.tuples import StreamTuple
        from repro.topology.messages import ASSIGNER, JOINER

        docs = [Document({"a": i % 2, "k": i}, doc_id=i) for i in range(5)]
        chunk = [
            (JOINER, task, StreamTuple(ASSIGNED, (doc, 3, None), ASSIGNER, 0, task))
            for doc in docs
            for task in (doc.doc_id % 3, 5)
        ]
        _frame, (seq, decoded) = _frame_roundtrip(ColumnarWireCodec(), 9, chunk)
        assert seq == 9 and len(decoded) == len(chunk)
        for (component, task, tup), entry in zip(chunk, decoded):
            assert entry[0] == component
            assert type(entry[1]) is int and entry[1] == task
            assert entry[2] == ASSIGNED and entry[3:5] == (ASSIGNER, 0)
            assert entry[6][0].pairs == tup.values[0].pairs
            assert entry[6][0].doc_id == tup.values[0].doc_id
            assert entry[6][1:] == (3, None)
            assert entry[7] == 1 << task

    def test_a_mask_entry_is_one_row_of_three_columns(self):
        """One (document, worker) pair per entry: ``doc_row, ctx, mask``
        after the three document columns, whatever the fan-out."""
        from repro.streaming.tuples import StreamTuple
        from repro.topology.messages import ASSIGNER, JOINER, WINDOW_DONE

        doc = Document({"a": 1}, doc_id=4)
        wide = Document({"a": 2}, doc_id=5)
        tup = StreamTuple(ASSIGNED, (doc, 0, "L"), ASSIGNER, 1)
        entries = [
            (JOINER, 1, tup, 0b1010),
            (JOINER, 0, StreamTuple(WINDOW_DONE, (0,), ASSIGNER, 1), 0b1),
            # more tasks than a 'q' column holds bits: pickled envelope
            (JOINER, 2, StreamTuple(ASSIGNED, (wide, 0, None), ASSIGNER, 1), 1 << 70 | 0b100),
        ]
        frame, (_seq, decoded) = _frame_roundtrip(ColumnarWireCodec(), 1, entries)
        assert len(frame.buffers) == 6
        assert [len(memoryview(b).cast("B")) for b in frame.buffers[3:]] == [8, 8, 8]
        fanned, done, huge = decoded
        assert fanned[:6] == (JOINER, 1, ASSIGNED, ASSIGNER, 1, 1)
        assert fanned[6][0].doc_id == 4 and fanned[6][1:] == (0, "L")
        assert fanned[7] == 0b1010
        assert done[:3] == (JOINER, 0, WINDOW_DONE) and done[6:] == ((0,), 0b1)
        assert huge[1] == 2 and huge[6][0].doc_id == 5 and huge[7] == 1 << 70 | 0b100


#: wire order of the six columns a columnar batch ships
COLUMNS = ("offsets", "pair_ids", "doc_ids", "doc_row", "ctx", "mask")


def _column_batch():
    """Three documents over two contexts, one fanned out to two tasks."""
    from repro.streaming.tuples import StreamTuple
    from repro.topology.messages import ASSIGNER, JOINER

    docs = [Document({"a": i % 2, "k": i}, doc_id=i) for i in range(3)]
    entries = [
        (JOINER, 0, StreamTuple(ASSIGNED, (doc, window, None), ASSIGNER, 0), mask)
        for doc, window, mask in zip(docs, (0, 0, 1), (0b1, 0b11, 0b10))
    ]
    return ColumnarWireCodec().encode_batch(1, entries)


def _decode_with(columns: list):
    """Ship the batch's envelope with ``columns`` as its raw buffers."""
    frame = BufferFrame(_column_batch().envelope, columns)
    (received,) = FrameDecoder().feed(frame.to_bytes())
    return ColumnarWireCodec().decode_batch(received)


def _columns() -> list:
    return [array("q", memoryview(b).cast("q")) for b in _column_batch().buffers]


class TestHostileColumns:
    """``decode_batch`` trusts no column it reads off the wire: a frame
    either decodes or raises :class:`FrameError` — never ``TypeError`` or
    ``IndexError``, and never an index that wraps to another row."""

    @given(
        st.sampled_from(range(len(COLUMNS))),
        st.data(),
        st.one_of(st.integers(-3, 8), st.integers(-(2**63), 2**63 - 1)),
    )
    def test_single_value_corruptions(self, column, data, value):
        columns = _columns()
        if not columns[column]:
            return
        columns[column][data.draw(st.integers(0, len(columns[column]) - 1))] = value
        try:
            _decode_with(columns)
        except FrameError:
            pass

    @given(st.sampled_from(range(len(COLUMNS))), st.data())
    def test_truncations(self, column, data):
        columns = [bytes(c) for c in _columns()]
        cut = data.draw(st.integers(0, max(0, len(columns[column]) - 1)))
        columns[column] = columns[column][:cut]
        with pytest.raises(FrameError):
            _decode_with(columns)

    @pytest.mark.parametrize("column", ["doc_row", "ctx", "pair_ids"])
    def test_negative_indexes_do_not_wrap(self, column):
        columns = _columns()
        columns[COLUMNS.index(column)][0] = -1
        with pytest.raises(FrameError):
            _decode_with(columns)

    def test_the_worker_loop_closes_the_link(self):
        import socket
        from threading import Thread

        from repro.streaming.transport import WorkerInit, serve_link

        columns = _columns()
        columns[COLUMNS.index("doc_row")][0] = -1
        init = WorkerInit(0, 0, {}, codec=ColumnarWireCodec())
        parent, child = socket.socketpair()
        served = []  # stays empty if serve_link raises
        worker = Thread(target=lambda: served.append(serve_link(child, init)))
        worker.start()
        try:
            parent.sendall(BufferFrame(_column_batch().envelope, columns).to_bytes())
            parent.settimeout(5)
            assert parent.recv(1) == b""
        finally:
            worker.join(5)
            parent.close()
        assert served == [None]

    def test_the_untouched_columns_decode(self):
        _seq, entries = _decode_with(_columns())
        assert [entry[6][0].doc_id for entry in entries] == [0, 1, 2]
