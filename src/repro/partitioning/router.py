"""Routing documents to machines according to a partitioning.

The :class:`DocumentRouter` is the algorithmic core of the Assigner
component: a document is forwarded to every partition it shares an
AV-pair with; documents matching no partition (unseen AV-pairs, or
broadcast-flagged by an expansion plan) are emitted to *all* machines so
the join result stays exact (Section VI-A).

One owner map backs the routing decision, keyed by the pair itself
(``(attribute, value) -> machines``): every document is routed exactly
once, so a dictionary encode per document would never amortize —
:meth:`route` walks ``pairs.items()`` directly.  Dict keys carry the
same value equality as :class:`~repro.core.interning.PairInterner` ids:
``("a", 1)``, ``("a", True)`` and ``("a", 1.0)`` are one key.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from repro.core.document import AVPair, Document
from repro.partitioning.base import Partition
from repro.partitioning.expansion import ExpansionPlan


class RoutingDecision(NamedTuple):
    """Where a document goes and why."""

    targets: tuple[int, ...]
    #: the document was sent to *all* machines as the exactness fallback
    #: (it carried an AV-pair not owned by any partition, or could not be
    #: expanded)
    broadcast: bool
    #: the document's pairs not owned by any partition — what the
    #: Assigner counts toward the δ update threshold (Section VI-A)
    unseen_pairs: tuple[AVPair, ...] = ()

    @property
    def replication(self) -> int:
        return len(self.targets)


class DocumentRouter:
    """Routes documents against a fixed set of partitions.

    Parameters
    ----------
    partitions:
        The current partitioning (one entry per machine).
    expansion:
        Optional expansion plan; incoming documents are transformed
        before matching, exactly as the partition sample was.
    """

    def __init__(
        self,
        partitions: Sequence[Partition],
        expansion: Optional[ExpansionPlan] = None,
    ):
        self.swap(partitions, expansion)

    def swap(
        self,
        partitions: Sequence[Partition],
        expansion: Optional[ExpansionPlan] = None,
    ) -> None:
        """Atomically re-point this router at a new partitioning.

        The owner maps are rebuilt into scratch locals first and only
        then installed, so a concurrent reader (an elastic migration
        draining mid-repartition, a metrics sampler) always observes
        either the old routing tables or the new ones — never a
        half-built map.  Identity is preserved, which is what lets
        components hold a router reference across repartitionings
        instead of re-resolving it per window.
        """
        if not partitions:
            raise ValueError("router needs at least one partition")
        m = len(partitions)
        #: pair -> owning machine indices; sets are the mutable truth
        #: (``add_pair``), tuples the read-optimized routing view
        owner_sets: dict[AVPair, set[int]] = {}
        for partition in partitions:
            for pair in partition.pairs:
                owner_sets.setdefault(pair, set()).add(partition.index)
        owners: dict[AVPair, tuple[int, ...]] = {
            pair: tuple(machines) for pair, machines in owner_sets.items()
        }
        # installation point: both maps are complete; plain attribute
        # stores are atomic, and route() reads the map through a single
        # local binding
        self.partitions = list(partitions)
        self.expansion = expansion
        self.m = m
        self._all = tuple(range(m))
        self._owner_sets = owner_sets
        self._owners = owners

    def route(self, document: Document) -> RoutingDecision:
        """Decide the target machines for ``document``.

        A document *all* of whose (expanded) pairs are owned by partitions
        is forwarded to the union of the owning machines.  A document
        carrying **any** pair unknown to the partitioning is emitted to
        all machines: this is the Section VI-A fallback that keeps the
        join exact — another document sharing that unseen pair may match
        a completely different set of partitions.
        """
        if self.expansion is not None:
            document, broadcast = self.expansion.transform(document)
            if broadcast:
                return RoutingDecision(self._all, broadcast=True)
        targets: set[int] = set()
        unseen: list[AVPair] = []
        pair_map = self._owners
        for item in document.pairs.items():
            owners = pair_map.get(item)
            if owners:
                targets.update(owners)
            else:
                unseen.append(item)
        if unseen or not targets:
            return RoutingDecision(
                self._all,
                broadcast=True,
                unseen_pairs=tuple(map(AVPair._make, unseen)),
            )
        return RoutingDecision(tuple(sorted(targets)), broadcast=False)

    def add_pair(self, pair: AVPair, partition_index: int) -> None:
        """Apply a partition *update*: graft one pair onto a partition."""
        self.partitions[partition_index].pairs.add(pair)
        owners = self._owner_sets.setdefault(pair, set())
        owners.add(partition_index)
        self._owners[pair] = tuple(owners)

    def owns(self, pair: AVPair) -> bool:
        return pair in self._owners
