"""Common interface for local (single-node) join algorithms.

Every joiner supports a *probe-then-insert* streaming discipline inside a
tumbling window: ``probe(doc)`` returns the ids of previously added
documents joinable with ``doc``, after which ``add(doc)`` stores it for
subsequent probes.  :func:`join_window` runs this discipline over a full
window and returns the exact set of joinable pairs — the paper's exact
natural join result.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from time import perf_counter
from typing import Iterable, NamedTuple, Optional, Sequence

from repro.core.document import Document
from repro.join.ordering import AttributeOrder
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry


class JoinPair(NamedTuple):
    """An unordered joinable pair, normalized so ``left < right``."""

    left: int
    right: int

    @classmethod
    def of(cls, a: int, b: int) -> "JoinPair":
        return cls(a, b) if a <= b else cls(b, a)


class LocalJoiner(ABC):
    """Abstract windowed join operator over schema-free documents.

    Every joiner shares the uniform keyword signature
    ``(order=None, registry=None)``: ``order`` is the global attribute
    order (ignored by algorithms that do not need one) and ``registry``
    an optional :class:`~repro.obs.registry.MetricsRegistry`.  The public
    :meth:`probe` / :meth:`add` methods are the shared observability
    hook — they time the algorithm-specific :meth:`_probe` /
    :meth:`_insert` implementations into ``joiner.probe_seconds`` /
    ``joiner.insert_seconds`` histograms and count probes, partners and
    inserts, all labelled with the algorithm :attr:`name`.  With the
    default no-op registry the hook costs one attribute lookup.
    """

    def __init__(
        self,
        order: Optional[AttributeOrder] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.order = order
        registry = registry if registry is not None else NULL_REGISTRY
        self.registry = registry
        self._observed = registry.enabled
        label = self.name
        self._probe_seconds = registry.histogram("joiner.probe_seconds", algorithm=label)
        self._insert_seconds = registry.histogram(
            "joiner.insert_seconds", algorithm=label
        )
        self._probe_count = registry.counter("joiner.probes", algorithm=label)
        self._partner_count = registry.counter("joiner.partners", algorithm=label)
        self._insert_count = registry.counter("joiner.inserts", algorithm=label)

    @property
    def name(self) -> str:
        """Short name used in benchmark output ("FPJ", "NLJ", "HBJ")."""
        return "joiner"

    def add(self, document: Document) -> None:
        """Store ``document`` (must carry a ``doc_id``) for future probes."""
        if not self._observed:
            self._insert(document)
            return
        start = perf_counter()
        self._insert(document)
        self._insert_seconds.observe(perf_counter() - start)
        self._insert_count.inc()

    def probe(self, document: Document) -> list[int]:
        """Ids of stored documents joinable with ``document``."""
        if not self._observed:
            return self._probe(document)
        start = perf_counter()
        partners = self._probe(document)
        self._probe_seconds.observe(perf_counter() - start)
        self._probe_count.inc()
        self._partner_count.inc(len(partners))
        return partners

    @abstractmethod
    def _insert(self, document: Document) -> None:
        """Algorithm-specific storage step behind :meth:`add`."""

    @abstractmethod
    def _probe(self, document: Document) -> list[int]:
        """Algorithm-specific matching step behind :meth:`probe`."""

    @abstractmethod
    def reset(self) -> None:
        """Evict all state (the tumbling window closed)."""

    def __len__(self) -> int:  # pragma: no cover - overridden where cheap
        raise NotImplementedError


def join_window(joiner: LocalJoiner, documents: Sequence[Document]) -> list[JoinPair]:
    """Compute the exact join result of one window with ``joiner``.

    Documents are processed in order; each is probed against all earlier
    documents and then inserted, so every joinable pair is reported exactly
    once.  All documents must carry distinct ``doc_id`` values.
    """
    pairs: list[JoinPair] = []
    for doc in documents:
        if doc.doc_id is None:
            raise ValueError("join_window requires documents with doc_id set")
        for partner in joiner.probe(doc):
            pairs.append(JoinPair.of(partner, doc.doc_id))
        joiner.add(doc)
    return pairs


def join_result_set(
    joiner: LocalJoiner, documents: Sequence[Document]
) -> frozenset[JoinPair]:
    """The window's join result as a set — convenient for equality tests."""
    return frozenset(join_window(joiner, documents))


def brute_force_pairs(documents: Iterable[Document]) -> frozenset[JoinPair]:
    """Reference O(n^2) join used as ground truth in tests."""
    docs = list(documents)
    out = set()
    for i, a in enumerate(docs):
        for b in docs[i + 1 :]:
            if a.joinable(b):
                assert a.doc_id is not None and b.doc_id is not None
                out.add(JoinPair.of(a.doc_id, b.doc_id))
    return frozenset(out)
