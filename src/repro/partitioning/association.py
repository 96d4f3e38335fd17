"""Association-groups partitioning (paper, Section IV — the AG algorithm).

The algorithm observes that AV-pairs do not occur arbitrarily:

* pairs that appear in exactly the same set of documents form an
  **equivalence group** (Definition 1);
* equivalence group ``eg_i`` **implies** ``eg_j`` when every document
  containing ``eg_i`` also contains ``eg_j`` but not vice versa
  (Definition 2) — i.e. ``docs(eg_i)`` is a strict subset of
  ``docs(eg_j)``.

Association groups are built by folding implied groups together
(Algorithm 1); partitions are then filled greedily by descending group
load.  Unlike classic association-rule mining there is **no support or
confidence threshold**: one co-occurrence suffices, because dropping rare
groups would leave documents unroutable and break join exactness.

The distributed variant runs only the group-mining phase inside each
PartitionCreator and ships local groups to the single Merger, which
consolidates them (:func:`consolidate_association_groups`) before filling
the partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from repro.core.document import AVPair, Document, pairs_sort_key
from repro.partitioning.base import (
    Partitioner,
    PartitioningResult,
    assign_groups_to_partitions,
)


class EquivalenceGroup(NamedTuple):
    """AV-pairs that occur in exactly the same set of documents."""

    pairs: frozenset[AVPair]
    doc_ids: frozenset[int]

    @property
    def load(self) -> int:
        return len(self.doc_ids)


@dataclass
class AssociationGroup:
    """A maximal group of AV-pairs folded together via implications.

    ``load`` is the number of sample documents containing at least one of
    the group's pairs (Algorithm 1, line 13).  ``doc_ids`` is retained
    when the group was mined locally; consolidated groups shipped between
    components may carry only the count.
    """

    pairs: set[AVPair]
    load: int = 0
    doc_ids: Optional[set[int]] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.pairs)


def find_equivalence_groups(documents: Sequence[Document]) -> list[EquivalenceGroup]:
    """Group AV-pairs by the exact set of documents they occur in.

    This realizes line 1 of Algorithm 1: the ``avInD`` map keyed by
    document sets, whose keys *are* the equivalence groups.  Documents are
    identified positionally when they carry no ``doc_id``.
    """
    occurrences: dict[AVPair, list[int]] = {}
    for position, doc in enumerate(documents):
        identity = doc.doc_id if doc.doc_id is not None else position
        for pair in doc.avpairs():
            occurrences.setdefault(pair, []).append(identity)
    by_docset: dict[frozenset[int], set[AVPair]] = {}
    for pair, ids in occurrences.items():
        by_docset.setdefault(frozenset(ids), set()).add(pair)
    return [
        EquivalenceGroup(frozenset(pairs), doc_ids)
        for doc_ids, pairs in by_docset.items()
    ]


def build_association_groups(
    equivalence_groups: Iterable[EquivalenceGroup],
) -> list[AssociationGroup]:
    """Fold implied equivalence groups together (Algorithm 1, lines 3-15).

    Groups are scanned in ascending document-set size; whenever group *i*
    implies group *j* (``docs_i`` ⊂ ``docs_j``), *j*'s pairs are absorbed
    into *i*'s association group and *j* is removed, so the output groups
    have pairwise-disjoint pairs.  The load of each association group is
    the size of the union of the absorbed document sets.
    """
    ordered = sorted(
        equivalence_groups,
        key=lambda eg: (len(eg.doc_ids), pairs_sort_key(eg.pairs)),
    )
    consumed = [False] * len(ordered)
    groups: list[AssociationGroup] = []
    for i, base in enumerate(ordered):
        if consumed[i]:
            continue
        pairs = set(base.pairs)
        docs = set(base.doc_ids)
        for j in range(i + 1, len(ordered)):
            if consumed[j]:
                continue
            other = ordered[j]
            # implies: every doc containing base also contains other.
            # Distinct equivalence groups have distinct doc sets, so the
            # subset is automatically strict.
            if base.doc_ids <= other.doc_ids:
                pairs.update(other.pairs)
                docs.update(other.doc_ids)
                consumed[j] = True
        groups.append(AssociationGroup(pairs=pairs, load=len(docs), doc_ids=docs))
    return groups


def mine_association_groups(documents: Sequence[Document]) -> list[AssociationGroup]:
    """Phase one of the AG algorithm over one document sample."""
    return build_association_groups(find_equivalence_groups(documents))


def consolidate_association_groups(
    group_lists: Sequence[Sequence[AssociationGroup]],
) -> list[AssociationGroup]:
    """Merger-side unification of local association groups (Section IV-A).

    Two steps, as in the paper: (1) every group whose pairs are a subset
    of another group's pairs is merged into it; (2) a pair occurring in
    two different groups is removed from the group with *more* elements,
    so the consolidated groups have disjoint pairs again.  Loads from
    different creators cover disjoint sample slices and are summed.
    """
    flat = [
        AssociationGroup(pairs=set(g.pairs), load=g.load)
        for groups in group_lists
        for g in groups
        if g.pairs
    ]
    # Step 1: absorb subset groups into their (largest) superset.
    flat.sort(key=lambda g: (-len(g.pairs), pairs_sort_key(g.pairs)))
    kept: list[AssociationGroup] = []
    pair_to_kept: dict[AVPair, list[int]] = {}
    for group in flat:
        absorbed = False
        candidate_ids = {
            idx for pair in group.pairs for idx in pair_to_kept.get(pair, ())
        }
        for idx in sorted(candidate_ids):
            if group.pairs <= kept[idx].pairs:
                kept[idx].load += group.load
                absorbed = True
                break
        if not absorbed:
            index = len(kept)
            kept.append(group)
            for pair in group.pairs:
                pair_to_kept.setdefault(pair, []).append(index)
    # Step 2: deduplicate pairs shared by two groups — drop from the
    # group with more elements (ties resolved toward the later group).
    # Each drop shrinks a group and so moves later tie-breaks: walk the
    # pairs in their canonical order, not in (hash-seeded) set order.
    for pair in sorted(pair_to_kept, key=AVPair.sort_key):
        owners = pair_to_kept[pair]
        holders = [i for i in owners if pair in kept[i].pairs]
        while len(holders) > 1:
            largest = max(holders, key=lambda i: (len(kept[i].pairs), i))
            kept[largest].pairs.discard(pair)
            holders.remove(largest)
    return [g for g in kept if g.pairs]


class AssociationGroupPartitioner(Partitioner):
    """The paper's AG partitioner.

    Parameters
    ----------
    n_creators:
        Number of simulated PartitionCreator instances.  With more than
        one, the sample is split round-robin, groups are mined per slice
        and consolidated by the Merger logic — the distributed execution
        path of Section IV-A.  The standalone path (``n_creators=1``)
        skips consolidation.
    """

    name = "AG"

    def __init__(self, n_creators: int = 1):
        if n_creators < 1:
            raise ValueError("n_creators must be >= 1")
        self.n_creators = n_creators

    def create_partitions(
        self, documents: Sequence[Document], m: int
    ) -> PartitioningResult:
        self._check_args(documents, m)
        if self.n_creators == 1:
            groups: list[AssociationGroup] = mine_association_groups(documents)
        else:
            slices: list[list[Document]] = [[] for _ in range(self.n_creators)]
            for position, doc in enumerate(documents):
                slices[position % self.n_creators].append(doc)
            local = [mine_association_groups(chunk) for chunk in slices if chunk]
            groups = consolidate_association_groups(local)
        partitions = assign_groups_to_partitions(groups, m)
        return PartitioningResult(
            partitions=partitions, algorithm=self.name, group_count=len(groups)
        )
