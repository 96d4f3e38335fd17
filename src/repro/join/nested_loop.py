"""Nested Loop Join (NLJ) baseline (paper, Section VII-A).

The probe document is compared against every stored document with the
full natural-join test.  O(n) per probe, O(n^2) per window — the
textbook baseline the FP-tree join is measured against in Fig. 11.

Stored documents are kept as dictionary-encoded views and the pairwise
test compares integer ids.
"""

from __future__ import annotations

from typing import Optional

from repro.core.document import Document
from repro.core.interning import EncodedDocument, PairInterner
from repro.join.base import LocalJoiner
from repro.join.ordering import AttributeOrder
from repro.obs.registry import MetricsRegistry


class NestedLoopJoiner(LocalJoiner):
    """Exhaustive pairwise comparison joiner.

    ``order`` is accepted for signature uniformity with the other
    joiners and ignored — NLJ needs no attribute order.
    """

    name = "NLJ"

    def __init__(
        self,
        order: Optional[AttributeOrder] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        super().__init__(order=order, registry=registry)
        self._interner = PairInterner()
        self._stored_encoded: list[EncodedDocument] = []
        #: inserts are appended raw and encoded in bulk by the next
        #: probe — a cache hit for any document the component has probed
        #: before storing, i.e. the entire streaming discipline
        self._pending: list[Document] = []
        #: stored documents verified by all probes so far — the cost
        #: model's NLJ unit (:mod:`repro.join.cost`)
        self.verified = 0

    def _insert(self, document: Document) -> None:
        if document.doc_id is None:
            raise ValueError("stored documents need a doc_id")
        self._pending.append(document)

    def _flush_pending(self) -> None:
        encode = self._interner.encode
        self._stored_encoded.extend([encode(d) for d in self._pending])
        self._pending.clear()

    def _probe(self, document: Document) -> list[int]:
        if self._pending:
            self._flush_pending()
        self.verified += len(self._stored_encoded)
        # The natural-join test is inlined (no per-candidate call):
        # iterate the smaller side's (attr id, pair id) items against
        # the larger side's map — a differing pair id under a shared
        # attribute id is a conflict, at least one equal id must occur.
        encoded = self._interner.encode(document)
        probe_map = encoded.attr_to_pair
        probe_items = encoded.freeze_items()
        probe_get = probe_map.get
        probe_len = len(probe_map)
        result: list[int] = []
        append = result.append
        for stored in self._stored_encoded:
            stored_map = stored.attr_to_pair
            if len(stored_map) <= probe_len:
                items = stored.items
                if items is None:
                    items = stored.freeze_items()
                get = probe_get
            else:
                items = probe_items
                get = stored_map.get
            shares = False
            for aid, pid in items:
                opid = get(aid)
                if opid is not None:
                    if opid != pid:
                        break
                    shares = True
            else:
                if shares:
                    append(stored.doc_id)
        return result

    def reset(self) -> None:
        self._stored_encoded.clear()
        self._pending.clear()

    def __len__(self) -> int:
        return len(self._stored_encoded) + len(self._pending)
