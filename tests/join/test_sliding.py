"""Tests for the sliding-window extension (FP-tree eviction)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.document import AVPair, Document
from repro.data.serverlogs import ServerLogGenerator
from repro.exceptions import WindowError
from repro.join.fptree import FPTree
from repro.join.fptree_join import fptree_join
from repro.join.ordering import AttributeOrder
from repro.join.sliding import (
    SlidingFPTreeJoiner,
    brute_force_sliding_pairs,
    sliding_join_stream,
)
from tests.conftest import document_lists


class TestFPTreeRemoval:
    def test_remove_returns_false_for_unknown(self):
        tree = FPTree(AttributeOrder(("a",)))
        assert tree.remove(99) is False

    def test_remove_single_document_empties_tree(self):
        tree = FPTree(AttributeOrder(("a", "b")))
        tree.insert(Document({"a": 1, "b": 2}, doc_id=1))
        assert tree.remove(1) is True
        assert tree.doc_count == 0
        assert tree.node_count == 0
        assert tree.root.children == {}
        assert tree.header == {}

    def test_removed_document_no_longer_joins(self):
        tree = FPTree(AttributeOrder(("a",)))
        tree.insert(Document({"a": 1}, doc_id=1))
        tree.insert(Document({"a": 1}, doc_id=2))
        tree.remove(1)
        assert fptree_join(tree, Document({"a": 1})) == [2]

    def test_shared_prefix_survives_partial_removal(self, table1_documents):
        tree = FPTree.build(table1_documents)
        tree.remove(1)  # d1 = {b:7, a:3, c:1}; d3 still needs b:7 -> a:3
        assert fptree_join(tree, Document({"b": 7, "a": 3})) == [3]
        b7 = tree.root.children[AVPair("b", 7)]
        assert AVPair("a", 3) in b7.children
        assert AVPair("c", 1) not in b7.children[AVPair("a", 3)].children

    def test_attribute_counts_updated(self, table1_documents):
        tree = FPTree.build(table1_documents)
        tree.remove(1)
        assert tree.attribute_document_count("c") == 1
        assert tree.attribute_document_count("b") == 3

    def test_ubiquitous_prefix_can_grow_after_removal(self):
        docs = [
            Document({"f": 1, "x": 1}, doc_id=1),
            Document({"y": 2}, doc_id=2),  # lacks f
            Document({"f": 2}, doc_id=3),
        ]
        tree = FPTree.build(docs)
        assert tree.ubiquitous_prefix_length() == 0
        tree.remove(2)
        assert tree.ubiquitous_prefix_length() == 1

    def test_header_chain_consistent_after_removals(self):
        order = AttributeOrder(("a", "b"))
        tree = FPTree(order)
        tree.insert(Document({"a": 1, "b": 1}, doc_id=1))
        tree.insert(Document({"a": 2, "b": 1}, doc_id=2))
        tree.insert(Document({"a": 3, "b": 1}, doc_id=3))
        assert len(tree.header_chain(AVPair("b", 1))) == 3
        tree.remove(2)  # middle of the b:1 chain
        chain = tree.header_chain(AVPair("b", 1))
        assert len(chain) == 2
        tree.insert(Document({"a": 4, "b": 1}, doc_id=4))
        assert len(tree.header_chain(AVPair("b", 1))) == 3

    def test_remove_head_and_tail_of_chain(self):
        order = AttributeOrder(("a", "b"))
        tree = FPTree(order)
        for i in range(1, 4):
            tree.insert(Document({"a": i, "b": 1}, doc_id=i))
        tree.remove(1)  # head
        tree.remove(3)  # tail
        assert len(tree.header_chain(AVPair("b", 1))) == 1
        tree.insert(Document({"a": 9, "b": 1}, doc_id=9))
        assert len(tree.header_chain(AVPair("b", 1))) == 2

    def test_duplicate_doc_id_rejected(self):
        tree = FPTree(AttributeOrder(("a",)))
        tree.insert(Document({"a": 1}, doc_id=1))
        with pytest.raises(ValueError, match="already stored"):
            tree.insert(Document({"a": 2}, doc_id=1))

    def test_insert_after_remove_reuses_id(self):
        tree = FPTree(AttributeOrder(("a",)))
        tree.insert(Document({"a": 1}, doc_id=1))
        tree.remove(1)
        tree.insert(Document({"a": 2}, doc_id=1))
        assert tree.doc_count == 1

    @given(docs=document_lists(min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_property_insert_remove_all_restores_empty_tree(self, docs):
        tree = FPTree(AttributeOrder.from_documents(docs))
        for doc in docs:
            tree.insert(doc)
        for doc in docs:
            assert tree.remove(doc.doc_id)
        assert tree.doc_count == 0
        assert tree.node_count == 0
        assert tree.header == {}
        assert tree.attribute_counts() == {}

    @given(
        docs=document_lists(min_size=4, max_size=20),
        keep=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_partial_removal_equals_fresh_tree(self, docs, keep):
        """Removing a prefix leaves a tree equivalent to building from
        the suffix: same probe results for every document."""
        order = AttributeOrder.from_documents(docs)
        incremental = FPTree(order)
        for doc in docs:
            incremental.insert(doc)
        for doc in docs[:-keep]:
            incremental.remove(doc.doc_id)
        fresh = FPTree(order)
        for doc in docs[-keep:]:
            fresh.insert(doc)
        for doc in docs:
            assert sorted(fptree_join(incremental, doc)) == sorted(
                fptree_join(fresh, doc)
            )


class TestSlidingJoiner:
    def test_partner_expires_after_window_size_adds(self):
        """W = 2 means the probe joins exactly the one previous document."""
        joiner = SlidingFPTreeJoiner(window_size=2)
        joiner.add(Document({"a": 1}, doc_id=1))
        assert joiner.probe(Document({"a": 1})) == [1]
        joiner.add(Document({"a": 1}, doc_id=2))
        # doc 1 is now 2 positions back -> outside the extent
        assert joiner.probe(Document({"a": 1})) == [2]

    def test_window_size_validation(self):
        with pytest.raises(WindowError):
            SlidingFPTreeJoiner(window_size=0)

    def test_len_is_capped_at_window(self):
        joiner = SlidingFPTreeJoiner(window_size=3)
        for i in range(10):
            joiner.add(Document({"a": i}, doc_id=i))
        assert len(joiner) == 3

    def test_reset(self):
        joiner = SlidingFPTreeJoiner(window_size=3)
        joiner.add(Document({"a": 1}, doc_id=1))
        joiner.reset()
        assert len(joiner) == 0
        assert joiner.probe(Document({"a": 1})) == []

    def test_add_requires_doc_id(self):
        with pytest.raises(ValueError):
            SlidingFPTreeJoiner(window_size=2).add(Document({"a": 1}))

    @given(
        docs=document_lists(min_size=1, max_size=30),
        window=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_sliding_join_is_exact(self, docs, window):
        pairs = sliding_join_stream(SlidingFPTreeJoiner(window), docs)
        assert frozenset(pairs) == brute_force_sliding_pairs(docs, window)

    def test_exact_on_generated_stream(self):
        docs = ServerLogGenerator(seed=8).documents(300)
        pairs = sliding_join_stream(SlidingFPTreeJoiner(50), docs)
        assert frozenset(pairs) == brute_force_sliding_pairs(docs, 50)

    def test_sliding_window_spans_tumbling_boundaries(self):
        """The motivation for sliding windows: neighbours in the stream
        join even when a tumbling boundary would separate them."""
        from repro.join.base import JoinPair

        docs = [
            Document({"k": 1}, doc_id=0),
            Document({"z": 5}, doc_id=1),
            Document({"k": 1}, doc_id=2),
        ]
        pairs = sliding_join_stream(SlidingFPTreeJoiner(3), docs)
        assert JoinPair(0, 2) in pairs
