"""One owner-tagged window index for the co-located Joiner tasks.

The paper gives every *machine* one FP-tree (Section V).  When several
Joiner tasks run in one process, a document assigned to k of them used
to be probed against and inserted into k near-identical trees in the
same address space.  :class:`SharedWindowIndex` stores each document
once and remembers, per document, *which owners hold it*::

    tree    one FPTree over every document any owner received
    masks   doc_id -> bitmask of owners     d1 -> 0b011  (owners 0, 1)
                                            d2 -> 0b110  (owners 1, 2)
    cache   (doc_id, partners) of the latest probe

``arrive_many(document, owners)`` returns, per owner, exactly what a
private tree fed only that owner's arrivals would have returned for the
probe — the stored joinable documents whose mask carries the owner's
bit — and then records the owners on the document.  d1 and d2 above are partners at owner 1
only.

The first owner to see a document probes and inserts.  A later owner
reuses that probe's partner list **only while nothing has been inserted
since** (every insert overwrites the cache, so a cached list is never
stale); otherwise it probes again.  A re-probe finds the document
itself, which needs no special case: the mask filter runs before the
arriving owner's bit is set, so the document never carries it yet.
Nothing here assumes an arrival order — owners may see documents in
different orders, and a ``doc_id`` may arrive as distinct-but-equal
objects (a fan-out split across two decoded wire frames).
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.core.document import Document
from repro.core.interning import PairInterner
from repro.join.fptree import FPTree
from repro.join.fptree_join import FPTreeJoiner, fptree_join
from repro.join.ordering import AttributeOrder
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

#: the series keep the label the per-task FP-tree joiners recorded under
_ALGORITHM = FPTreeJoiner.name


class SharedWindowIndex:
    """One tumbling window's documents, indexed once for several owners.

    Parameters
    ----------
    order, interner:
        Forwarded to the :class:`~repro.join.fptree.FPTree`.
    registry:
        ``joiner.probes`` / ``joiner.inserts`` / ``joiner.partners``
        count **per assignment** — once per arriving owner, partners as
        returned to that owner — so they do not depend on which owners
        happen to be co-located.  Physical tree operations are the
        observations of the ``joiner.probe_seconds`` /
        ``joiner.insert_seconds`` histograms.

    Owners are small non-negative ints (the Joiner task index).
    """

    def __init__(
        self,
        order: Optional[AttributeOrder] = None,
        registry: Optional[MetricsRegistry] = None,
        interner: Optional[PairInterner] = None,
    ):
        self.order = order
        self.tree = FPTree(order, interner)
        self._masks: dict[int, int] = {}
        #: bits of the owners that arrived since the last reset, and of
        #: those that released
        self._fed = 0
        self._released = 0
        self._cached_id: Optional[int] = None
        self._cached: list[int] = []
        registry = registry if registry is not None else NULL_REGISTRY
        self._observed = registry.enabled
        self._probe_seconds = registry.histogram(
            "joiner.probe_seconds", algorithm=_ALGORITHM
        )
        self._insert_seconds = registry.histogram(
            "joiner.insert_seconds", algorithm=_ALGORITHM
        )
        self._probe_count = registry.counter("joiner.probes", algorithm=_ALGORITHM)
        self._partner_count = registry.counter("joiner.partners", algorithm=_ALGORITHM)
        self._insert_count = registry.counter("joiner.inserts", algorithm=_ALGORITHM)

    def _probe(self, document: Document) -> list[int]:
        if not self._observed:
            return fptree_join(self.tree, document)
        start = perf_counter()
        partners = fptree_join(self.tree, document)
        self._probe_seconds.observe(perf_counter() - start)
        return partners

    def _insert(self, document: Document) -> None:
        if not self._observed:
            self.tree.insert(document)
            return
        start = perf_counter()
        self.tree.insert(document)
        self._insert_seconds.observe(perf_counter() - start)

    def _stored_partners(self, document: Document, mask: int) -> list[int]:
        """Everything stored that joins with ``document`` (whose current
        owner mask is ``mask``), indexing the document if it is new."""
        doc_id = document.doc_id
        if not mask:
            partners = self._probe(document)
            self._insert(document)  # rejects a missing doc_id
        elif doc_id == self._cached_id:
            return self._cached
        else:
            partners = self._probe(document)
        self._cached_id = doc_id
        self._cached = partners
        return partners

    def arrive_many(
        self, document: Document, owner_mask: int
    ) -> list[tuple[int, list[int]]]:
        """Probe-then-insert ``document`` on behalf of every owner in
        ``owner_mask`` (one bit for an ordinary arrival).

        One mask lookup, at most one probe and one insert, one pass over
        the partner list.  Returns ``(owner, partners)`` per owner in
        ascending owner order: the ids of the documents that arrived at
        that owner earlier and join with ``document``, in unspecified
        order — in any interleaving with other calls; a list may be the
        cache's own, do not mutate it.  A document may arrive at most
        once per owner: raises before changing anything if it already
        arrived at one of them.
        """
        doc_id = document.doc_id
        masks = self._masks
        mask = masks.get(doc_id, 0)
        if mask & owner_mask:
            raise ValueError(
                f"doc_id {doc_id} already arrived at owners "
                f"{mask & owner_mask:#b} of {owner_mask:#b}"
            )
        partners = self._stored_partners(document, mask)
        if not owner_mask & (owner_mask - 1):
            # one owner: its own partners — all of them while it is the
            # only owner that fed the index
            if self._fed != owner_mask:
                self._fed |= owner_mask
                if partners:
                    partners = [p for p in partners if masks[p] & owner_mask]
            arrivals = [(owner_mask.bit_length() - 1, partners)]
            total = len(partners)
        else:
            self._fed |= owner_mask
            # partners grouped by which of the arriving owners hold them:
            # co-located owners mostly hold the same documents, so there
            # are far fewer distinct groups than (partner, owner) pairs
            shared: dict[int, list[int]] = {}
            for partner in partners:
                common = masks[partner] & owner_mask
                if common:
                    group = shared.get(common)
                    if group is None:
                        shared[common] = [partner]
                    else:
                        group.append(partner)
            arrivals = []
            total = 0
            rest = owner_mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                mine: list[int] = []
                for common, group in shared.items():
                    if common & bit:
                        mine += group
                total += len(mine)
                arrivals.append((bit.bit_length() - 1, mine))
        masks[doc_id] = mask | owner_mask
        if self._observed:
            self._probe_count.inc(len(arrivals))
            self._insert_count.inc(len(arrivals))
            self._partner_count.inc(total)
        return arrivals

    def release(self, owner: int) -> bool:
        """``owner``'s window closed; True once every owner that fed the
        index has released it."""
        self._released |= 1 << owner
        return not self._fed & ~self._released

    def reset(self) -> None:
        """Evict everything — the tumbling-window eviction of §V-A."""
        self.tree.clear()
        self._masks.clear()
        self._fed = self._released = 0
        self._cached_id = None
        self._cached = []

    def __len__(self) -> int:
        """Distinct documents stored."""
        return self.tree.doc_count
