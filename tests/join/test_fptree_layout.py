"""The flat-array FP-tree: storage invariants, sharing, allocation guard.

The tree stores nodes as indices into parallel columns and shares two
things between co-located trees: the pair dictionary and the sorted
pair-id path cached on each document.  These tests pin down what that
layout must keep true under arbitrary insert / remove / probe / reset
interleavings, that sharing never changes a result, and that inserts
stay (nearly) free of GC-tracked allocations.
"""

import gc
from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.document import Document
from repro.core.interning import PairInterner
from repro.data.nobench import NoBenchGenerator
from repro.data.serverlogs import ServerLogGenerator
from repro.join.fptree import FPTree
from repro.join.fptree_join import FPTreeJoiner, fptree_join
from repro.join.ordering import AttributeOrder
from repro.join.sliding import SlidingFPTreeJoiner
from tests.conftest import document_pairs

ORDER = AttributeOrder(("c", "a", "f"))  # the rest rank last, by name


class FPTreeMachine(RuleBasedStateMachine):
    """insert / remove / probe / reset against a list-of-documents model."""

    def __init__(self):
        super().__init__()
        self.tree = FPTree(ORDER)
        self.model: dict[int, Document] = {}
        self.next_id = 0
        self.peak_nodes = 0

    @rule(pairs=document_pairs())
    def insert(self, pairs):
        doc = Document(pairs, doc_id=self.next_id)
        self.next_id += 1
        self.tree.insert(doc)
        self.model[doc.doc_id] = doc

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        doc_id = data.draw(st.sampled_from(sorted(self.model)))
        assert self.tree.remove(doc_id)
        del self.model[doc_id]
        assert not self.tree.remove(doc_id)

    @rule(pairs=document_pairs(), fast=st.booleans())
    def probe(self, pairs, fast):
        probe = Document(pairs)
        expected = sorted(i for i, d in self.model.items() if d.joinable(probe))
        assert sorted(fptree_join(self.tree, probe, use_fast_path=fast)) == expected

    @rule()
    def reset(self):
        self.tree.clear()
        self.model.clear()
        self.peak_nodes = 0

    @invariant()
    def bookkeeping_matches_model(self):
        tree = self.tree
        assert tree.doc_count == len(self.model)
        assert sorted(tree.stored_doc_ids()) == sorted(self.model)
        for doc_id, doc in self.model.items():
            terminal = tree.terminal(doc_id)
            assert terminal.path_pairs() == ORDER.sort_document(doc)
            assert doc_id in terminal.doc_ids
        expected = Counter()
        for doc in self.model.values():
            expected.update(doc.pairs.keys())
        assert tree.attribute_counts() == expected
        prefix = 0
        for attribute in ORDER.attributes:
            if not self.model or expected[attribute] != len(self.model):
                break
            prefix += 1
        assert tree.ubiquitous_prefix_length() == prefix

    @invariant()
    def nodes_are_exactly_the_stored_prefixes(self):
        tree = self.tree
        prefixes = set()
        for doc in self.model.values():
            path = tuple(ORDER.sort_document(doc))
            prefixes.update(path[:depth] for depth in range(1, len(path) + 1))
        reachable = list(tree.iter_nodes())
        assert len(reachable) == tree.node_count == len(prefixes)
        assert {tuple(node.path_pairs()) for node in reachable} == prefixes
        for node in reachable:
            # a live node with neither ids nor children stores nothing
            assert node.doc_ids or node.children, "dangling empty leaf"
        by_label = Counter(node.label for node in reachable)
        assert set(tree.header) == set(by_label)
        for label, count in by_label.items():
            assert len(tree.header_chain(label)) == count

    @invariant()
    def columns_grow_only_when_no_slot_is_free(self):
        tree = self.tree
        self.peak_nodes = max(self.peak_nodes, tree.node_count)
        columns = (
            tree._label, tree._doc_ids, tree._parent,
            tree._first_child, tree._next_sibling,
        )
        assert len({len(column) for column in columns}) == 1
        assert len(tree._label) - 1 == tree.node_count + len(tree._free)
        assert len(tree._label) - 1 <= self.peak_nodes
        assert len(tree._edges) == tree.node_count


TestFPTreeStateful = FPTreeMachine.TestCase
TestFPTreeStateful.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_free_list_bounds_the_columns_over_sliding_turnovers():
    """Ten full turnovers of a sliding extent reuse unlinked slots: the
    columns stay within twice the live nodes instead of growing with
    the stream."""
    window = 200
    docs = ServerLogGenerator(seed=3).next_window(window * 11)
    order = AttributeOrder.from_documents(docs[:window])
    joiner = SlidingFPTreeJoiner(window, order=order)
    created = 0  # net of the eviction each add performs: a lower bound
    for index, doc in enumerate(docs):
        before = joiner.tree.node_count
        joiner.add(doc)
        created += max(0, joiner.tree.node_count - before)
        if index >= window and index % window == 0:
            tree = joiner.tree
            assert len(tree._label) - 1 <= 2 * tree.node_count
    assert created > 3 * (len(joiner.tree._label) - 1)  # slots were reused


def _stream(seed, windows=3, size=120):
    generator = NoBenchGenerator(seed=seed)
    return [generator.next_window(size) for _ in range(windows)]


def _probe_log(joiners, windows):
    """Sorted partners of every probe, per joiner, documents fanned out
    to every joiner as the same object."""
    log = [[] for _ in joiners]
    for window in windows:
        for doc in window:
            for entries, joiner in zip(log, joiners):
                entries.append(sorted(joiner.probe(doc)))
                joiner.add(doc)
        for joiner in joiners:
            joiner.reset()
    return log


def test_joiners_sharing_dictionary_and_path_match_isolated_joiners():
    k = 4
    order = AttributeOrder.from_documents(_stream(5)[0])
    shared = PairInterner()
    together = _probe_log(
        [FPTreeJoiner(order, interner=shared) for _ in range(k)], _stream(5)
    )
    isolated = [
        _probe_log([FPTreeJoiner(order)], _stream(5))[0] for _ in range(k)
    ]
    assert together == isolated
    # the sharing happened: one path object served all k trees
    doc = _stream(5)[0][0]
    trees = [FPTree(order, shared) for _ in range(k)]
    paths = [tree.path(doc) for tree in trees]
    assert all(path is paths[0] for path in paths)


def test_cached_path_is_keyed_by_order_and_dictionary():
    doc = Document({"a": 1, "b": 2, "c": 3}, doc_id=0)
    interner = PairInterner()
    forward = FPTree(AttributeOrder(("a", "b", "c")), interner)
    backward = FPTree(AttributeOrder(("c", "b", "a")), interner)  # repartitioned
    first = forward.path(doc)
    second = backward.path(doc)
    assert [interner.pair(pid).attribute for pid in first] == ["a", "b", "c"]
    assert [interner.pair(pid).attribute for pid in second] == ["c", "b", "a"]
    # an equal order under the same dictionary is the same order ...
    same = FPTree(AttributeOrder(("c", "b", "a")), interner)
    assert same.path(doc) is second
    # ... another dictionary never is: its ids mean something else
    other = PairInterner()
    other.pair_id("z", 0)
    foreign = FPTree(AttributeOrder(("c", "b", "a")), other)
    foreign.insert(doc)
    assert [n.label for n in foreign.iter_nodes()] == [("c", 3), ("b", 2), ("a", 1)]
    assert foreign.path(doc) != second
    for tree in (forward, backward):
        tree.insert(Document(doc.pairs, doc_id=1))
        tree.insert(doc)
        assert sorted(fptree_join(tree, doc)) == [0, 1]


def test_inserts_allocate_almost_nothing_the_collector_tracks():
    """2 000 nbData inserts create ~12 000 tree nodes.  One tracked
    container per node (the layout this replaced had three) would add
    17+ young-generation collections; the columns allocate one id list
    per terminal, and the rest is the cached path per document and the
    dictionary's tuple per new pair — under four tracked objects per
    document."""
    docs = NoBenchGenerator(seed=11).next_window(2000)
    tree = FPTree(AttributeOrder.from_documents(docs[:250]))
    threshold = gc.get_threshold()[0]
    gc.collect()
    gc.freeze()
    try:
        before = gc.get_stats()[0]["collections"]
        for doc in docs:
            tree.insert(doc)
        collections = gc.get_stats()[0]["collections"] - before
    finally:
        gc.unfreeze()
    assert tree.node_count > 10_000
    assert collections <= 4 * len(docs) // threshold + 1
