"""ColumnarBatch: the wire batch and its frame round trip.

The wire contract under test: ``ColumnarBatch.encode`` → buffer frame →
``from_buffers``/``to_documents`` reconstructs the original documents
*faithfully* — same pairs, same value types (``True`` never decodes as
``1``), same ``doc_id``s — from nothing but the frame, on any process.
"""

import random

from repro.core.columnar import ColumnarBatch
from repro.core.document import Document
from repro.streaming.transport.framing import BufferFrame, decode_buffer_payload


def wire_roundtrip(documents):
    """encode → frame → wire bytes → decode, as the transports do it."""
    batch = ColumnarBatch.encode(documents)
    frame = BufferFrame(batch.pair_table, batch.buffers())
    received = decode_buffer_payload(frame.to_bytes()[4:])
    decoded = ColumnarBatch.from_buffers(received.envelope, received.buffers)
    return decoded.to_documents()


def assert_faithful(original, decoded):
    assert decoded.doc_id == original.doc_id
    assert decoded.pairs == original.pairs
    for attribute, value in original.pairs.items():
        assert type(decoded.pairs[attribute]) is type(value)


class TestWireRoundTrip:
    def test_roundtrip_reconstructs_documents(self):
        docs = [
            Document({"user": "A", "code": 7}, doc_id=3),
            Document({"user": "A", "level": "warn"}, doc_id=4),
        ]
        for original, decoded in zip(docs, wire_roundtrip(docs)):
            assert_faithful(original, decoded)

    def test_mixed_value_types_ship_faithfully(self):
        # value-equal but type-distinct pairs must not collapse: the
        # joiners may conflate 1/True/1.0, the wire never does
        docs = [
            Document({"k": 1, "other": "x"}, doc_id=0),
            Document({"k": True}, doc_id=1),
            Document({"k": 1.0}, doc_id=2),
            Document({"k": "1"}, doc_id=3),
        ]
        decoded = wire_roundtrip(docs)
        for original, copy in zip(docs, decoded):
            assert_faithful(original, copy)

    def test_empty_batch(self):
        assert wire_roundtrip([]) == []

    def test_missing_doc_ids_survive(self):
        decoded = wire_roundtrip([Document({"a": 1}), Document({"b": 2}, doc_id=9)])
        assert decoded[0].doc_id is None
        assert decoded[1].doc_id == 9

    def test_randomized_batches_roundtrip(self):
        rng = random.Random(7)
        values = [0, 1, True, False, 1.5, "v", "1", None, (1, 2)]
        attributes = [f"a{i}" for i in range(12)]
        for _ in range(25):
            docs = []
            for doc_id in range(rng.randrange(1, 12)):
                pairs = {
                    attribute: rng.choice(values)
                    for attribute in rng.sample(attributes, rng.randrange(1, 6))
                }
                docs.append(Document(pairs, doc_id=doc_id))
            for original, decoded in zip(docs, wire_roundtrip(docs)):
                assert_faithful(original, decoded)

    def test_shared_pairs_encode_once(self):
        docs = [Document({"a": 1, "b": 2}, doc_id=i) for i in range(10)]
        batch = ColumnarBatch.encode(docs)
        assert len(batch.pair_table) == 2  # dictionary, not per-row copies
        assert len(batch.pair_ids) == 20

    def test_to_documents_is_idempotent_on_encode_side(self):
        docs = [Document({"a": 1}, doc_id=0)]
        batch = ColumnarBatch.encode(docs)
        assert batch.to_documents() is batch.to_documents()
        assert batch.to_documents()[0] is docs[0]
