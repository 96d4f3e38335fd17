"""Two-stream natural joins (R ⋈ S).

The paper's model is a self-join of one document stream.  Many of the
systems it cites join *two* streams — Photon pairs web-search queries
with ad clicks via a shared identifier.  The schema-free natural join
generalizes that: an R document pairs with an S document iff they share
at least one AV-pair and never conflict, no identifier designated in
advance.

:class:`BinaryStreamJoiner` keeps one store per stream and probes each
arriving document against the *opposite* store only, so intra-stream
pairs are never reported.  Any :class:`~repro.join.base.LocalJoiner`
works as the store (FPJ by default).
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.core.document import Document
from repro.join.base import LocalJoiner
from repro.join.fptree_join import FPTreeJoiner

LEFT = "R"
RIGHT = "S"


class BinaryJoinPair(NamedTuple):
    """One cross-stream match: the R document id and the S document id."""

    left: int
    right: int


class BinaryStreamJoiner:
    """Windowed R ⋈ S join with the probe-then-insert discipline.

    Parameters
    ----------
    store_factory:
        Constructor for the per-stream store; defaults to the FP-tree
        joiner.  Both stores use independent instances.
    """

    def __init__(self, store_factory: Callable[[], LocalJoiner] = FPTreeJoiner):
        self._stores: dict[str, LocalJoiner] = {
            LEFT: store_factory(),
            RIGHT: store_factory(),
        }

    def _validate_side(self, side: str) -> str:
        if side not in (LEFT, RIGHT):
            raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}, got {side!r}")
        return LEFT if side == RIGHT else RIGHT

    def probe(self, document: Document, side: str) -> list[int]:
        """Partners of ``document`` (arriving on ``side``) in the other stream."""
        other = self._validate_side(side)
        return self._stores[other].probe(document)

    def add(self, document: Document, side: str) -> None:
        """Store ``document`` on its stream for future opposite probes."""
        self._validate_side(side)
        self._stores[side].add(document)

    def process(self, document: Document, side: str) -> list[BinaryJoinPair]:
        """Probe-then-insert one arrival; returns the new cross pairs."""
        if document.doc_id is None:
            raise ValueError("stream documents need a doc_id")
        partners = self.probe(document, side)
        self.add(document, side)
        if side == LEFT:
            return [BinaryJoinPair(document.doc_id, p) for p in partners]
        return [BinaryJoinPair(p, document.doc_id) for p in partners]

    def reset(self) -> None:
        """Evict both stores (the tumbling window closed)."""
        for store in self._stores.values():
            store.reset()

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores.values())


def interleave(
    left: Sequence[Document], right: Sequence[Document]
) -> list[tuple[Document, str]]:
    """One window's arrivals: R and S documents alternate, each tagged
    with its side, and the longer stream's tail comes last."""
    pairs = zip_longest([(d, LEFT) for d in left], [(d, RIGHT) for d in right])
    return [arrival for pair in pairs for arrival in pair if arrival is not None]


def binary_join_window(
    left: Sequence[Document],
    right: Sequence[Document],
    store_factory: Callable[[], LocalJoiner] = FPTreeJoiner,
) -> frozenset[BinaryJoinPair]:
    """The exact R ⋈ S result of one window.

    Arrival order does not affect the result set; the two streams are
    interleaved here only to exercise the symmetric probe path.
    """
    joiner = BinaryStreamJoiner(store_factory)
    pairs: set[BinaryJoinPair] = set()
    for document, side in interleave(left, right):
        pairs.update(joiner.process(document, side))
    return frozenset(pairs)


def brute_force_binary_pairs(
    left: Iterable[Document], right: Iterable[Document]
) -> frozenset[BinaryJoinPair]:
    """Reference O(|R|·|S|) cross-stream join."""
    out = set()
    right_docs = list(right)
    for r_doc in left:
        for s_doc in right_docs:
            if r_doc.joinable(s_doc):
                assert r_doc.doc_id is not None and s_doc.doc_id is not None
                out.add(BinaryJoinPair(r_doc.doc_id, s_doc.doc_id))
    return frozenset(out)
