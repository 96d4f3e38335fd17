"""Structural invariants of the FP-tree under arbitrary insert/remove."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.document import Document
from repro.join.fptree import FPTree
from repro.join.ordering import AttributeOrder
from tests.conftest import document_lists


def _check_invariants(tree: FPTree, live_docs: list[Document]) -> None:
    # doc bookkeeping
    assert tree.doc_count == len(live_docs)
    assert sorted(tree.stored_doc_ids()) == sorted(d.doc_id for d in live_docs)

    # every stored document's path equals its ordered pair list
    for doc in live_docs:
        terminal = tree.terminal(doc.doc_id)
        assert terminal.path_pairs() == tree.order.sort_document(doc)
        assert doc.doc_id in terminal.doc_ids

    # attribute counts equal live content
    expected = Counter()
    for doc in live_docs:
        expected.update(doc.pairs.keys())
    assert tree.attribute_counts() == expected

    # node count equals reachable nodes; no empty leaves linger
    reachable = list(tree.iter_nodes())
    assert len(reachable) == tree.node_count
    for node in reachable:
        assert node.doc_ids or node.children, "dangling empty leaf"

    # header chains cover exactly the reachable nodes per label
    by_label = Counter(node.label for node in reachable)
    for label, count in by_label.items():
        assert len(tree.header_chain(label)) == count
    assert set(tree.header) == set(by_label)


@given(docs=document_lists(min_size=1, max_size=25))
@settings(max_examples=50, deadline=None)
def test_property_invariants_after_inserts(docs):
    tree = FPTree(AttributeOrder.from_documents(docs))
    for doc in docs:
        tree.insert(doc)
    _check_invariants(tree, docs)


@given(
    docs=document_lists(min_size=2, max_size=25),
    removals=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_property_invariants_after_mixed_removals(docs, removals):
    tree = FPTree(AttributeOrder.from_documents(docs))
    for doc in docs:
        tree.insert(doc)
    to_remove = removals.draw(
        st.lists(
            st.sampled_from([d.doc_id for d in docs]),
            unique=True,
            max_size=len(docs),
        )
    )
    for doc_id in to_remove:
        assert tree.remove(doc_id)
    live = [d for d in docs if d.doc_id not in set(to_remove)]
    _check_invariants(tree, live)


@given(docs=document_lists(min_size=1, max_size=15))
@settings(max_examples=40, deadline=None)
def test_property_reinsertion_restores_structure(docs):
    """Remove everything, reinsert everything: node-for-node identical
    shape (counts, labels, doc placement) as a freshly built tree."""
    order = AttributeOrder.from_documents(docs)
    tree = FPTree(order)
    for doc in docs:
        tree.insert(doc)
    for doc in docs:
        tree.remove(doc.doc_id)
    for doc in docs:
        tree.insert(doc)
    fresh = FPTree(order)
    for doc in docs:
        fresh.insert(doc)

    def shape(t):
        return sorted(
            (
                tuple(p.sort_key() for p in node.path_pairs()),
                tuple(sorted(node.doc_ids)),
            )
            for node in t.iter_nodes()
        )

    assert shape(tree) == shape(fresh)
    assert tree.node_count == fresh.node_count
