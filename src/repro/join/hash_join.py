"""Hash-Based Join (HBJ) baseline (paper, Section VII-A).

HBJ maintains an inverted index from each AV-pair to the ids of stored
documents containing it.  A probe gathers candidates from the posting
lists of its own pairs — any join partner must share at least one pair —
and verifies the full natural-join condition per candidate.

On highly interconnected data (the paper's rwData) the posting lists of
popular pairs grow long, each probe touches a large candidate set, and
HBJ degrades below even NLJ; on diverse data (nbData) the lists stay
short and HBJ wins.  Both effects are visible in Fig. 11c/11d.

The index is dictionary-encoded: posting lists are ``array('q')`` of
doc-ids keyed by dense pair id, candidates are gathered by a bulk set
union over the postings, and each distinct candidate is verified once
on integer ids.  The probe's cost is proportional to the total posting
length touched, which is what sinks HBJ on interconnected data.
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.core.document import Document
from repro.core.interning import EncodedDocument, PairInterner
from repro.join.base import LocalJoiner
from repro.join.ordering import AttributeOrder
from repro.obs.registry import MetricsRegistry


class HashJoiner(LocalJoiner):
    """Inverted-index joiner over AV-pairs.

    ``order`` is accepted for signature uniformity with the other
    joiners and ignored — HBJ needs no attribute order.
    """

    name = "HBJ"

    def __init__(
        self,
        order: Optional[AttributeOrder] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        super().__init__(order=order, registry=registry)
        #: component-lifetime dictionary: survives window resets so ids
        #: stay dense and stable across the stream
        self._interner = PairInterner()
        self._index: dict[int, array] = {}
        self._docs: dict[int, EncodedDocument] = {}
        #: posting entries walked by all probes so far — the cost
        #: model's HBJ unit (:mod:`repro.join.cost`)
        self.touched = 0

    def _insert(self, document: Document) -> None:
        if document.doc_id is None:
            raise ValueError("stored documents need a doc_id")
        doc_id = document.doc_id
        index = self._index
        # the items tuple is frozen lazily by the first verifying probe;
        # inserts stay append-only
        encoded = self._interner.encode(document)
        self._docs[doc_id] = encoded
        for pid in encoded.pair_ids:
            posting = index.get(pid)
            if posting is None:
                index[pid] = posting = array("q")
            posting.append(doc_id)

    def _probe(self, document: Document) -> list[int]:
        # Candidate gathering is a bulk set union over the posting arrays
        # (C-level iteration), which deduplicates ids across shared pairs
        # for free; each distinct candidate is then verified exactly
        # once.  The probe's cost stays proportional to the total posting
        # length touched (the paper's "incidences"), which is still what
        # sinks HBJ on interconnected data.
        encoded = self._interner.encode(document)
        candidates: set[int] = set()
        update = candidates.update
        index = self._index
        touched = 0
        for pid in encoded.pair_ids:
            posting = index.get(pid)
            if posting:
                update(posting)
                touched += len(posting)
        self.touched += touched
        # Verification is inlined and *conflict-only*: a candidate shares
        # >= 1 pair with the probe by construction (it came off a posting
        # list), so the natural-join test reduces to "no shared attribute
        # carries a different pair id".
        docs = self._docs
        probe_map = encoded.attr_to_pair
        probe_items = encoded.freeze_items()
        probe_get = probe_map.get
        probe_len = len(probe_map)
        accepted: list[int] = []
        append = accepted.append
        for doc_id in candidates:
            stored = docs[doc_id]
            stored_map = stored.attr_to_pair
            if len(stored_map) <= probe_len:
                items = stored.items
                if items is None:
                    items = stored.freeze_items()
                get = probe_get
            else:
                items = probe_items
                get = stored_map.get
            for aid, pid in items:
                opid = get(aid)
                if opid is not None and opid != pid:
                    break
            else:
                append(doc_id)
        return accepted

    def reset(self) -> None:
        # The window's index and store are evicted; the dictionary is
        # component-lifetime state and survives (ids never change).
        self._index.clear()
        self._docs.clear()

    def __len__(self) -> int:
        return len(self._docs)

    def posting_list_lengths(self) -> list[int]:
        """Lengths of all posting lists — used to characterize datasets."""
        return [len(ids) for ids in self._index.values()]
