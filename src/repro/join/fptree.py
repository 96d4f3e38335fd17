"""FP-tree storage for schema-free documents (paper, Section V-A).

The FP-tree (Han et al.) is re-purposed from frequent pattern mining to
*compactly store documents*: every document is inserted as a root-to-node
path of AV-pair labelled nodes (ordered by the global
:class:`~repro.join.ordering.AttributeOrder`), and the document's id is
recorded at the terminal node of its path.  Documents with a shared pair
prefix share tree nodes, which is what makes probing cheap.

Storage layout
--------------
Nodes are **indices** into parallel lists (columns); index 0 is the root
and doubles as the "none" link::

    _edges        {(parent << 32) | pair_id: child}   child lookup
    _label        [AVPair]        the dictionary's own pair tuple
    _doc_ids      [list | None]   ids ending here; None off terminals
    _parent       [node]          upward link (removal, path_pairs)
    _first_child  [node]          head of the child list, newest first
    _next_sibling [node]          next child of the same parent
    _free         [node]          unlinked by remove(), reused by insert()

A new node appends five existing references and one dict entry — no
per-node object, container or reference cycle — and a terminal node
allocates the one list that holds its ids, so inserts barely move the
cyclic garbage collector and an evicted window frees by reference count.
The header table, branch ids and node objects of the original FP-tree
are *derived on demand* (:class:`NodeView`, :attr:`FPTree.header`,
:meth:`FPTree.header_chain`); nothing on the insert path maintains them.

Pair ids come from a :class:`~repro.core.interning.PairInterner` that
outlives the tree — the Joiner tasks of one process share one (see
:func:`~repro.core.interning.process_interner`), a tree given none makes
a private one.  A document's sorted pair-id path depends only on the
dictionary and the attribute order, so it is cached on the document:
co-located trees that receive the same object sort and intern it once.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Optional

from repro.core.document import AVPair, Document
from repro.core.interning import PairInterner
from repro.join.ordering import AttributeOrder

#: edge keys pack ``(parent node, pair id)`` into one int; dictionary
#: generations cap pair ids far below 2**32
EDGE_SHIFT = 32


class NodeView:
    """Read-only view of one tree node, computed from the columns on demand.

    ``label`` is the node's AV-pair (``None`` for the root), ``doc_ids``
    the ids of documents whose ordered pair list ends exactly here, and
    ``branch_id`` a unique id for terminal nodes (``None`` elsewhere).
    An introspection surface for tests and tooling, never the hot path.
    """

    __slots__ = ("_tree", "index")

    def __init__(self, tree: "FPTree", index: int):
        self._tree = tree
        self.index = index

    @property
    def label(self) -> Optional[AVPair]:
        return self._tree._label[self.index]

    @property
    def doc_ids(self) -> list[int]:
        return self._tree._doc_ids[self.index] or []

    @property
    def branch_id(self) -> Optional[int]:
        return self.index if self._tree._doc_ids[self.index] else None

    @property
    def children(self) -> dict[AVPair, "NodeView"]:
        tree = self._tree
        views = {}
        child = tree._first_child[self.index]
        while child:
            views[tree._label[child]] = NodeView(tree, child)
            child = tree._next_sibling[child]
        return views

    def path_pairs(self) -> list[AVPair]:
        """AV-pairs along the root-to-this-node path (root excluded)."""
        tree = self._tree
        pairs = []
        node = self.index
        while node:
            pairs.append(tree._label[node])
            node = tree._parent[node]
        pairs.reverse()
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - display helper
        label = "root" if not self.index else str(self.label)
        return f"<NodeView {label} docs={self.doc_ids}>"


class FPTree:
    """An FP-tree over a window of documents.

    The tree is built incrementally: the Joiner probes each arriving
    document against the current tree and then inserts it, so it can be
    matched with forthcoming documents.  :meth:`clear` evicts everything
    when the tumbling window closes; the interner is not touched — pair
    ids outlive windows.
    """

    def __init__(
        self,
        order: Optional[AttributeOrder] = None,
        interner: Optional[PairInterner] = None,
    ):
        # without an order every attribute ranks last, i.e. by name
        self.order = order = order if order is not None else AttributeOrder(())
        self._attributes = order.attributes
        self.interner = interner if interner is not None else PairInterner()
        #: per-attr-id sort keys under ``order``, shared by every tree on
        #: this (dictionary, order) and grown lazily; its identity keys
        #: the documents' cached paths
        self._keys = self.interner.order_keys(order)
        self._edges: dict[int, int] = {}
        #: doc_id -> terminal node, for duplicate checks and removal
        self._terminals: dict[int, int] = {}
        self._label: list[Optional[AVPair]] = [None]
        self._doc_ids: list[Optional[list[int]]] = [None]
        self._parent = [0]
        self._first_child = [0]
        self._next_sibling = [0]
        self._free: list[int] = []
        self.doc_count = 0
        #: ubiquitous-prefix length, maintained by ``insert``; None after
        #: a removal -> recomputed from the attribute counts on next query
        self._ubiq_len: Optional[int] = 0
        #: attribute -> stored documents carrying it; built on first need
        #: (removal, introspection) and maintained from then on, so
        #: tumbling windows never pay for it
        self._attr_counts: Optional[Counter[str]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, documents: Iterable[Document], order: Optional[AttributeOrder] = None
    ) -> "FPTree":
        """Build a tree over ``documents``, deriving the order if absent."""
        docs = list(documents)
        if order is None:
            order = AttributeOrder.from_documents(docs)
        tree = cls(order)
        for doc in docs:
            tree.insert(doc)
        return tree

    def path(self, document: Document) -> tuple[int, ...]:
        """The document's pair ids in global attribute order.

        Cached on the document under this tree's (dictionary, order), so
        every co-located tree handed the same object reuses it.
        """
        keys = self._keys
        if document._path_key is keys:
            return document._path
        interner = self.interner
        known = interner._pair_ids
        pair_attrs = interner._pair_attrs
        entries = []
        for item in document._pairs.items():
            pid = known.get(item)
            if pid is None:
                pid = interner._intern_pair(item)
            aid = pair_attrs[pid]
            if aid >= len(keys):  # first sight of the attribute
                sort_key = self.order.sort_key
                keys.extend(map(sort_key, interner._attrs[len(keys):]))
            entries.append((keys[aid], pid))
        # keys are unique per attribute: the sort never compares pair ids
        entries.sort()
        path = tuple([pid for _, pid in entries])
        document._path_key = keys
        document._path = path
        return path

    def insert(self, document: Document) -> int:
        """Insert ``document`` and return the terminal node of its path.

        The document must carry a ``doc_id``; the Joiner assigns ids on
        ingest.
        """
        doc_id = document.doc_id
        if doc_id is None:
            raise ValueError("documents stored in the FP-tree need a doc_id")
        terminals = self._terminals
        if doc_id in terminals:
            raise ValueError(f"doc_id {doc_id} already stored")
        path = self.path(document)
        edges = self._edges
        edges_get = edges.get
        doc_ids = self._doc_ids
        node = 0
        walk = iter(path)
        for pid in walk:
            child = edges_get((node << EDGE_SHIFT) | pid)
            if child is not None:
                node = child
                continue
            # below the first missing edge every node is new
            labels = self._label
            pair_table = self.interner._pairs
            parents = self._parent
            first_child = self._first_child
            next_sibling = self._next_sibling
            free = self._free
            while pid is not None:
                if free:
                    child = free.pop()
                    labels[child] = pair_table[pid]
                    parents[child] = node
                    next_sibling[child] = first_child[node]
                else:
                    child = len(labels)
                    labels.append(pair_table[pid])
                    doc_ids.append(None)
                    parents.append(node)
                    next_sibling.append(first_child[node])
                    first_child.append(0)
                first_child[node] = child
                edges[(node << EDGE_SHIFT) | pid] = child
                node = child
                pid = next(walk, None)
        ids = doc_ids[node]
        if ids is None:
            doc_ids[node] = [doc_id]
        else:
            ids.append(doc_id)
        terminals[doc_id] = node
        pairs = document._pairs
        if self._attr_counts is not None:
            self._attr_counts.update(pairs.keys())
        # Inserting into a non-empty tree can only shrink the ubiquitous
        # prefix, to the leading order attributes the new document itself
        # carries: O(prefix) here, O(1) on probe.
        attributes = self._attributes
        limit = self._ubiq_len if self.doc_count else len(attributes)
        self.doc_count += 1
        if limit:
            length = 0
            while length < limit and attributes[length] in pairs:
                length += 1
            self._ubiq_len = length
        return node

    def remove(self, doc_id: int) -> bool:
        """Evict one stored document (sliding-window support, Section V-A).

        The document's id is dropped from its terminal node and now-empty
        nodes are unlinked bottom-up onto the free list; attribute
        statistics (and with them the ubiquitous prefix of the fast path)
        are kept consistent.  Returns False if ``doc_id`` is not stored.
        O(path depth + siblings of the pruned nodes).
        """
        if doc_id not in self._terminals:
            return False
        counts = self.attribute_counts()
        node = self._terminals.pop(doc_id)
        doc_ids = self._doc_ids
        ids = doc_ids[node]
        ids.remove(doc_id)
        if not ids:
            doc_ids[node] = None
        self.doc_count -= 1
        self._ubiq_len = None if self.doc_count else 0
        labels = self._label
        parents = self._parent
        first_child = self._first_child
        next_sibling = self._next_sibling
        walk = node
        while walk:
            attribute = labels[walk][0]
            remaining = counts[attribute] - 1
            if remaining:
                counts[attribute] = remaining
            else:
                del counts[attribute]
            walk = parents[walk]
        pair_ids = self.interner._pair_ids
        while node and doc_ids[node] is None and not first_child[node]:
            parent = parents[node]
            del self._edges[(parent << EDGE_SHIFT) | pair_ids[labels[node]]]
            sibling = first_child[parent]
            if sibling == node:
                first_child[parent] = next_sibling[node]
            else:
                while next_sibling[sibling] != node:
                    sibling = next_sibling[sibling]
                next_sibling[sibling] = next_sibling[node]
            labels[node] = None
            self._free.append(node)
            node = parent
        return True

    def clear(self) -> None:
        """Evict every document — the tumbling-window eviction of §V-A."""
        self._edges.clear()
        self._terminals.clear()
        for column in (
            self._label,
            self._doc_ids,
            self._parent,
            self._first_child,
            self._next_sibling,
        ):
            del column[1:]
        self._first_child[0] = 0
        self._free.clear()
        self.doc_count = 0
        self._ubiq_len = 0
        self._attr_counts = None

    # ------------------------------------------------------------------
    # Introspection (derived on demand)
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Live non-root nodes."""
        return len(self._label) - 1 - len(self._free)

    @property
    def root(self) -> NodeView:
        return NodeView(self, 0)

    def terminal(self, doc_id: int) -> NodeView:
        """The node at which the stored document ``doc_id`` ends."""
        return NodeView(self, self._terminals[doc_id])

    def attribute_counts(self) -> Counter[str]:
        """attribute -> number of stored documents that contain it."""
        counts = self._attr_counts
        if counts is None:
            counts = self._attr_counts = Counter()
            for node in self._terminals.values():
                while node:
                    counts[self._label[node][0]] += 1
                    node = self._parent[node]
        return counts

    def attribute_document_count(self, attribute: str) -> int:
        """Number of stored documents that contain ``attribute``."""
        return self.attribute_counts().get(attribute, 0)

    def ubiquitous_prefix_length(self) -> int:
        """Number of leading order positions whose attribute appears in
        *every* stored document.

        These attributes are guaranteed to occupy the first levels of the
        tree, enabling the FPTreeJoin fast path (Algorithm 2).  Returns 0
        for an empty tree.  Maintained by ``insert``; only a removal
        forces the recount done here.
        """
        length = self._ubiq_len
        if length is None:
            counts = self.attribute_counts()
            length = 0
            for attribute in self._attributes:
                if counts.get(attribute, 0) != self.doc_count:
                    break
                length += 1
            self._ubiq_len = length
        return length

    def ubiquitous_attributes(self) -> tuple[str, ...]:
        """The attributes covered by :meth:`ubiquitous_prefix_length`."""
        return self._attributes[: self.ubiquitous_prefix_length()]

    def iter_nodes(self) -> Iterator[NodeView]:
        """Depth-first iteration over all non-root nodes."""
        stack = [0]
        while stack:
            child = self._first_child[stack.pop()]
            while child:
                yield NodeView(self, child)
                stack.append(child)
                child = self._next_sibling[child]

    def header_chain(self, label: AVPair) -> list[NodeView]:
        """All nodes carrying ``label`` — a header-table chain of the
        original FP-tree, in node-index order."""
        return [
            NodeView(self, node)
            for node, node_label in enumerate(self._label)
            if node_label == label
        ]

    @property
    def header(self) -> dict[AVPair, NodeView]:
        """The header table: label -> first node of its chain."""
        table: dict[AVPair, NodeView] = {}
        for node, label in enumerate(self._label):
            if label is not None:
                table.setdefault(label, NodeView(self, node))
        return table

    def stored_doc_ids(self) -> list[int]:
        """All document ids currently stored."""
        return list(self._terminals)

    def __len__(self) -> int:
        return self.doc_count

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"<FPTree docs={self.doc_count} nodes={self.node_count}>"
