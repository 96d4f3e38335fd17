"""Sliding-window joins over the FP-tree.

The paper evaluates tumbling windows and explicitly defers sliding
windows — "tree updates or frequent tree evictions and rebuilds are
required, which ... is part of our ongoing work" (Section V-A).  This
module implements that extension: the FP-tree supports O(depth) document
removal (:meth:`repro.join.fptree.FPTree.remove`), and the joiners here
maintain a sliding extent over the stream, evicting expired documents
incrementally instead of rebuilding the tree.

The sliding semantics is count-based: a probe joins the ``window_size``
most recently added documents.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.core.document import Document
from repro.exceptions import WindowError
from repro.join.base import JoinPair
from repro.join.fptree import FPTree
from repro.join.fptree_join import fptree_join
from repro.join.ordering import AttributeOrder


class SlidingFPTreeJoiner:
    """Count-based sliding-window FP-tree join.

    ``probe(doc)`` returns the ids of the last ``window_size`` added
    documents joinable with ``doc``; ``add(doc)`` appends the document
    and evicts the oldest one once the extent is full.  The FP-tree is
    updated in place — no rebuilds.
    """

    name = "FPJ-sliding"

    def __init__(
        self, window_size: int, order: Optional[AttributeOrder] = None,
        use_fast_path: bool = True,
    ):
        if window_size <= 0:
            raise WindowError(f"window size must be positive, got {window_size}")
        self.window_size = window_size
        self.use_fast_path = use_fast_path
        self.tree = FPTree(order)
        self._arrivals: deque[int] = deque()

    def _shrink_to(self, limit: int) -> None:
        while len(self._arrivals) > limit:
            self.tree.remove(self._arrivals.popleft())

    def probe(self, document: Document) -> list[int]:
        # An extent of W documents contains the probe itself plus the
        # W - 1 most recent stored documents, so expire down to that
        # before matching.
        self._shrink_to(self.window_size - 1)
        return fptree_join(self.tree, document, use_fast_path=self.use_fast_path)

    def add(self, document: Document) -> None:
        if document.doc_id is None:
            raise ValueError("stored documents need a doc_id")
        self._shrink_to(self.window_size - 1)
        self.tree.insert(document)
        self._arrivals.append(document.doc_id)

    def reset(self) -> None:
        # The sliding extent is dropped; the tree's pair dictionary
        # survives.
        self.tree.clear()
        self._arrivals.clear()

    def __len__(self) -> int:
        return len(self._arrivals)


def sliding_join_stream(
    joiner: SlidingFPTreeJoiner, documents: Sequence[Document]
) -> list[JoinPair]:
    """Exact sliding join of a stream: probe-then-add over all documents."""
    pairs: list[JoinPair] = []
    for doc in documents:
        if doc.doc_id is None:
            raise ValueError("sliding_join_stream requires doc_id on documents")
        for partner in joiner.probe(doc):
            pairs.append(JoinPair.of(partner, doc.doc_id))
        joiner.add(doc)
    return pairs


def brute_force_sliding_pairs(
    documents: Sequence[Document], window_size: int
) -> frozenset[JoinPair]:
    """Reference result: i joins j iff |i - j| < window_size (and joinable)."""
    out = set()
    for i, later in enumerate(documents):
        for j in range(max(0, i - window_size + 1), i):
            earlier = documents[j]
            if earlier.joinable(later):
                assert earlier.doc_id is not None and later.doc_id is not None
                out.add(JoinPair.of(earlier.doc_id, later.doc_id))
    return frozenset(out)
