"""Unit tests for the dictionary-encoding layer (repro.core.interning)."""

from repro.core.document import AVPair, Document
from repro.core.interning import PairInterner


class TestPairInterner:
    def test_ids_are_dense_and_first_seen_ordered(self):
        interner = PairInterner()
        ids = [
            interner.pair_id("a", 1),
            interner.pair_id("b", 2),
            interner.pair_id("c", 3),
        ]
        assert ids == [0, 1, 2]
        assert interner.pair_count == 3

    def test_interning_is_idempotent(self):
        interner = PairInterner()
        assert interner.pair_id("a", 1) == interner.pair_id("a", 1)
        assert interner.attr_id("a") == interner.attr_id("a")
        assert interner.pair_count == 1

    def test_value_equality_matches_dict_semantics(self):
        # 1, 1.0 and True compare equal as Python values (what the seed
        # joiners' dict lookups conflate), so they share one id ...
        interner = PairInterner()
        assert interner.pair_id("a", 1) == interner.pair_id("a", True)
        assert interner.pair_id("a", 1) == interner.pair_id("a", 1.0)
        # ... while the string "1" never compares equal to 1.
        assert interner.pair_id("a", 1) != interner.pair_id("a", "1")

    def test_same_value_under_different_attributes_gets_distinct_ids(self):
        interner = PairInterner()
        assert interner.pair_id("a", 1) != interner.pair_id("b", 1)

    def test_reverse_lookups(self):
        interner = PairInterner()
        pid = interner.pair_id("severity", "warn")
        assert interner.pair(pid) == AVPair("severity", "warn")

    def test_encode_pairs(self):
        interner = PairInterner()
        ids = interner.encode_pairs([AVPair("a", 1), AVPair("b", 2)])
        assert ids == {interner.pair_id("a", 1), interner.pair_id("b", 2)}


class TestEncodedDocument:
    def test_encode_preserves_document_order(self):
        interner = PairInterner()
        doc = Document({"x": 1, "y": 2, "z": 3}, doc_id=7)
        encoded = interner.encode(doc)
        assert encoded.doc_id == 7
        assert [interner.pair(pid) for pid in encoded.pair_ids] == list(doc.avpairs())

    def test_encode_is_cached_per_interner(self):
        interner = PairInterner()
        doc = Document({"x": 1}, doc_id=0)
        assert interner.encode(doc) is interner.encode(doc)

    def test_crossing_components_reencodes(self):
        # A document cached under one component's interner must not leak
        # that encoding into another component.
        a, b = PairInterner(), PairInterner()
        doc = Document({"x": 1}, doc_id=0)
        encoded_a = interned_a = a.encode(doc)
        encoded_b = b.encode(doc)
        assert encoded_b is not encoded_a
        assert encoded_b.interner is b and interned_a.interner is a

    def test_freeze_items_materializes_once(self):
        interner = PairInterner()
        encoded = interner.encode(Document({"x": 1, "y": 2}, doc_id=0))
        assert encoded.items is None  # lazy: routing never pays for it
        items = encoded.freeze_items()
        assert items is encoded.freeze_items()
        assert dict(items) == encoded.attr_to_pair

    def test_pair_set_is_cached(self):
        interner = PairInterner()
        encoded = interner.encode(Document({"x": 1, "y": 2}, doc_id=0))
        assert encoded.pair_set is encoded.pair_set
        assert encoded.pair_set == frozenset(encoded.pair_ids)

    def test_joinable_matches_document_semantics(self):
        interner = PairInterner()
        base = Document({"a": 1, "b": 2}, doc_id=0)
        cases = [
            Document({"a": 1, "c": 3}, doc_id=1),  # share, no conflict
            Document({"a": 2, "b": 2}, doc_id=2),  # share and conflict
            Document({"c": 3, "d": 4}, doc_id=3),  # disjoint
            Document({"a": True, "c": 3}, doc_id=4),  # 1 == True
            Document({"a": "1", "c": 3}, doc_id=5),  # "1" != 1
        ]
        for other in cases:
            assert interner.encode(base).joinable(
                interner.encode(other)
            ) == base.joinable(other), other.pairs
