"""The FPTreeJoin algorithm (paper, Section V-B, Algorithms 2 and 3).

FPTreeJoin finds all stored documents joinable with a probe document by
traversing the FP-tree top-down, pruning every subtree rooted at a node
whose AV-pair *conflicts* with the probe (same attribute, different
value).  Document ids are collected at nodes only once the path shares at
least one AV-pair with the probe.

The **fast path** exploits attributes present in *all* stored documents:
such attributes necessarily occupy the first ``num`` tree levels, so the
algorithm can jump directly to the single equally-labelled child per
level (any sibling conflicts by construction), pruning the bulk of the
tree without inspection.  If the probe lacks one of these ubiquitous
attributes no conflict on it is possible and the algorithm falls back to
the general traversal from the root, which is always correct.

The traversal runs on the flat arrays of :class:`~repro.join.fptree.FPTree`:
the fast path jumps through the edge dict (one pair-id lookup per
ubiquitous level), the DFS walks first-child / next-sibling links and
reads each node's label and doc ids from their columns.  The order in
which partner ids are returned is unspecified.
"""

from __future__ import annotations

from typing import Optional

from repro.core.document import Document
from repro.core.interning import PairInterner
from repro.join.base import LocalJoiner
from repro.join.fptree import EDGE_SHIFT, FPTree
from repro.join.ordering import AttributeOrder
from repro.obs.registry import MetricsRegistry

_MISSING = object()


def fptree_join(
    tree: FPTree, document: Document, use_fast_path: bool = True
) -> list[int]:
    """Ids of documents stored in ``tree`` that join with ``document``.

    ``use_fast_path=False`` disables the ubiquitous-attribute shortcut
    (Algorithm 2, lines 2-6) and runs the plain pruning DFS; results are
    identical — the flag exists for the ablation benchmark.

    The probe is *not* encoded: conflict checks read the probe's raw
    attribute -> value mapping through the node labels (CPython's
    string-keyed dicts are as fast as lookups get), and only the fast
    path resolves pair ids.  The ubiquity precheck of Algorithm 2 is
    merged into the descent itself: a probe missing some ubiquitous
    attribute abandons the descent and falls back to the general
    traversal.  The DFS carries no per-node ``(node, shared)`` tuples:
    nodes that have not shared a pair yet live on a ``pending`` stack,
    and once a path is collecting, only internal nodes whose subtree
    survives are pushed — leaves are consumed in the sibling loop.
    """
    pairs_get = document._pairs.get
    result: list[int] = []
    extend = result.extend
    doc_ids = tree._doc_ids
    first_child = tree._first_child
    next_sibling = tree._next_sibling
    labels = tree._label
    #: nodes on a collecting path whose children remain to be scanned
    stack: list[int] = []
    collecting = False

    if use_fast_path:
        num = tree._ubiq_len
        if num is None:
            num = tree.ubiquitous_prefix_length()
        if num:
            pair_ids_get = tree.interner._pair_ids.get
            edges_get = tree._edges.get
            attributes = tree._attributes
            node = 0
            for level in range(num):
                attribute = attributes[level]
                value = pairs_get(attribute, _MISSING)
                if value is _MISSING:
                    # The probe lacks this ubiquitous attribute, so no
                    # conflict on it is possible: abandon the descent and
                    # run the general traversal (always correct).
                    del result[:]
                    break
                pid = pair_ids_get((attribute, value))
                if pid is not None:
                    node = edges_get((node << EDGE_SHIFT) | pid)
                if pid is None or node is None:
                    # Every stored document carries this attribute with a
                    # different value, i.e. conflicts with the probe.  (A
                    # pair the interner has never seen cannot be stored.)
                    return result
                ids = doc_ids[node]
                if ids:
                    extend(ids)
            else:
                # collecting from the end of the prefix downwards
                collecting = True
                if first_child[node]:
                    stack.append(node)

    # General traversal (Algorithm 3) from the root: ``pending`` holds
    # nodes whose path shares nothing with the probe yet.
    if not collecting:
        pending = [0]
        while pending:
            node = first_child[pending.pop()]
            while node:
                attribute, value = labels[node]
                probe_value = pairs_get(attribute, _MISSING)
                if probe_value is _MISSING:
                    # Absent from the probe: neither shared nor conflict.
                    if first_child[node]:
                        pending.append(node)
                elif probe_value == value:
                    # First shared pair on this path: collect from here.
                    ids = doc_ids[node]
                    if ids:
                        extend(ids)
                    if first_child[node]:
                        stack.append(node)
                # else: conflict — prune the subtree.
                node = next_sibling[node]
    while stack:
        node = first_child[stack.pop()]
        while node:
            attribute, value = labels[node]
            probe_value = pairs_get(attribute, _MISSING)
            # Test order favors the common matching node: one comparison
            # when the probe shares the pair, two to prune a conflict.
            if probe_value == value or probe_value is _MISSING:
                ids = doc_ids[node]
                if ids:
                    extend(ids)
                if first_child[node]:
                    stack.append(node)
            node = next_sibling[node]
    return result


class FPTreeJoiner(LocalJoiner):
    """Windowed join operator backed by an FP-tree (the paper's FPJ).

    Parameters
    ----------
    order:
        Fixed global attribute order.  If omitted, attributes are ordered
        by name (unknown attributes rank last); deriving the order from a
        window sample via :meth:`with_sample_order` yields better tree
        sharing.
    registry:
        Optional metrics registry; probe/insert timings and counts are
        recorded through the shared :class:`LocalJoiner` hook.
    use_fast_path:
        Forwarded to :func:`fptree_join`; disable for ablation runs.
    interner:
        The pair dictionary the tree stores ids of.  Joiners handed the
        same dictionary (and order) share the sorted path cached on each
        document; omitted, the joiner makes a private one.  Either way
        :meth:`reset` evicts the tree, never the dictionary.
    """

    name = "FPJ"

    def __init__(
        self,
        order: Optional[AttributeOrder] = None,
        registry: Optional[MetricsRegistry] = None,
        use_fast_path: bool = True,
        interner: Optional[PairInterner] = None,
    ):
        super().__init__(order=order, registry=registry)
        self.use_fast_path = use_fast_path
        self.tree = FPTree(order, interner)

    @classmethod
    def with_sample_order(
        cls,
        sample,
        use_fast_path: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> "FPTreeJoiner":
        """Build a joiner whose order is computed from a document sample."""
        return cls(
            AttributeOrder.from_documents(sample),
            registry=registry,
            use_fast_path=use_fast_path,
        )

    def _insert(self, document: Document) -> None:
        self.tree.insert(document)

    def _probe(self, document: Document) -> list[int]:
        return fptree_join(self.tree, document, self.use_fast_path)

    def reset(self) -> None:
        """Evict the whole tree — the tumbling-window eviction of §V-A."""
        self.tree.clear()

    def __len__(self) -> int:
        return self.tree.doc_count
