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
bit — and then records the owners on the document.  d1 and d2 above are
partners at owner 1 only.

The first owner to see a document probes and inserts.  A later owner
reuses that probe's partner list **only while the probed tree has not
changed since** (an insert or a removal drops the cache, so a cached
list is never stale); otherwise it probes again.  A re-probe finds the
document itself, which needs no special case: the mask filter runs
before the arriving owner's bit is set, so the document never carries
it yet.
Nothing here assumes an arrival order — owners may see documents in
different orders, and a ``doc_id`` may arrive as distinct-but-equal
objects (a fan-out split across two decoded wire frames).

A two-stream join (R ⋈ S) keeps an index per side, and an arrival probes
the other side's (``arrive_many(document, owners, probe)``).  A sliding
index (``extent=N``) keeps each owner's arrivals and, before an owner
probes, expires all but its last N - 1 — a private
``SlidingFPTreeJoiner``'s extent; a document no owner holds leaves the tree.
"""

from __future__ import annotations

from collections import defaultdict, deque
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
    """One window's documents, indexed once for several owners.

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
    extent:
        None, or N: a sliding extent of each owner's last N arrivals.

    Owners are small non-negative ints (the Joiner task index).
    """

    def __init__(
        self,
        order: Optional[AttributeOrder] = None,
        registry: Optional[MetricsRegistry] = None,
        interner: Optional[PairInterner] = None,
        extent: Optional[int] = None,
    ):
        self.order = order
        self.extent = extent
        #: extent only: owner -> the ids of its arrivals, oldest first
        self._arrivals: defaultdict[int, deque[int]] = defaultdict(deque)
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

    def arrive_many(
        self, document: Document, owner_mask: int,
        probe: Optional[SharedWindowIndex] = None,
    ) -> list[tuple[int, list[int]]]:
        """Probe-then-insert ``document`` on behalf of every owner in
        ``owner_mask`` (one bit for an ordinary arrival): probe ``probe``
        (default: this index), then store the document here.

        One mask lookup, at most one probe and one insert, one pass over
        the partner list.  Returns ``(owner, partners)`` per owner in
        ascending owner order: the ids of the documents in ``probe``
        that arrived at that owner earlier (and are still in its extent)
        and join with ``document``, in unspecified order — in any
        interleaving with other calls; a list may be the cache's own, do
        not mutate it.  A document may arrive at most once per owner:
        raises before changing anything if it already arrived at one of
        them.
        """
        doc_id = document.doc_id
        masks = self._masks
        mask = masks.get(doc_id, 0)
        if mask & owner_mask:
            raise ValueError(
                f"doc_id {doc_id} already arrived at owners "
                f"{mask & owner_mask:#b} of {owner_mask:#b}"
            )
        probe = self if probe is None else probe
        if self.extent is not None:
            self.expire(owner_mask, self.extent - 1)
        if doc_id == probe._cached_id:
            partners = probe._cached
        elif self._observed:
            start = perf_counter()
            partners = fptree_join(probe.tree, document)
            self._probe_seconds.observe(perf_counter() - start)
        else:
            partners = fptree_join(probe.tree, document)
        if not mask:
            if self._observed:
                start = perf_counter()
                self.tree.insert(document)
                self._insert_seconds.observe(perf_counter() - start)
            else:
                self.tree.insert(document)  # rejects a missing doc_id
            self._cached_id = None
        probe._cached_id = doc_id
        probe._cached = partners
        self._fed |= owner_mask
        held = probe._masks
        if not owner_mask & (owner_mask - 1):
            # one owner: its own partners — all of them while it is the
            # only owner that fed the probed index
            if partners and probe._fed != owner_mask:
                partners = [p for p in partners if held[p] & owner_mask]
            arrivals = [(owner_mask.bit_length() - 1, partners)]
            total = len(partners)
        else:
            # partners grouped by which of the arriving owners hold them:
            # co-located owners mostly hold the same documents, so there
            # are far fewer distinct groups than (partner, owner) pairs
            shared: dict[int, list[int]] = {}
            for partner in partners:
                common = held[partner] & owner_mask
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
        if self.extent is not None:
            for owner, _ in arrivals:
                self._arrivals[owner].append(doc_id)
        if self._observed:
            self._probe_count.inc(len(arrivals))
            self._insert_count.inc(len(arrivals))
            self._partner_count.inc(total)
        return arrivals

    def expire(self, owner_mask: int, keep: int) -> None:
        """Forget all but the latest ``keep`` arrivals at every owner in
        ``owner_mask`` (an ``extent`` index only).  A document no owner
        holds leaves the tree, and the cached partner list, which may
        name it, is dropped."""
        masks = self._masks
        while owner_mask:
            bit = owner_mask & -owner_mask
            owner_mask ^= bit
            arrivals = self._arrivals[bit.bit_length() - 1]
            while len(arrivals) > keep:
                doc_id = arrivals.popleft()
                masks[doc_id] &= ~bit
                if not masks[doc_id]:
                    del masks[doc_id]
                    self.tree.remove(doc_id)
                    self._cached_id = None

    def release(self, owner: int) -> bool:
        """``owner``'s window closed; True once every owner that fed the
        index has released it."""
        self._released |= 1 << owner
        return not self._fed & ~self._released

    def reset(self) -> None:
        """Evict everything — the tumbling-window eviction of §V-A."""
        self.tree.clear()
        self._masks.clear()
        self._arrivals.clear()
        self._fed = self._released = 0
        self._cached_id = None
        self._cached = []

    def __len__(self) -> int:
        """Distinct documents stored."""
        return self.tree.doc_count
