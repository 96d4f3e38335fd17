"""Dictionary encoding of AV-pairs: dense integer ids for the hot paths.

Every hot operation of the reproduction — posting-list lookups in HBJ,
FP-tree child lookups, partition matching — is keyed by
``AVPair(str, Value)`` tuples, so the per-tuple cost is dominated by
hashing and comparing Python strings rather than by the algorithms the
paper measures.  This module provides the standard remedy from the
window-indexing literature: a per-component dictionary that maps
attributes and AV-pairs to dense integer ids, plus an
:class:`EncodedDocument` view computed **once per document** and reused
across every partition match and joiner probe inside that component.

Semantics
---------
Interning preserves the *value equality* of :meth:`Document.joinable`:
two pairs receive the same id exactly when they compare equal as Python
values.  In particular ``1`` and ``"1"`` get distinct ids (different
types never compare equal), while ``1``, ``1.0`` and ``True`` share one
id — exactly the pairs ``dict``/``AVPair`` equality already conflates,
so encoded joiners remain result-identical to the brute-force oracle.

Lifetime
--------
Ids are append-only: an id, once assigned, never changes meaning, so an
:class:`EncodedDocument` stays valid for the lifetime of the interner
that produced it.  A dictionary therefore outlives the *indexes built on
its ids* (posting lists, FP-trees), which are what window resets
evict: an HBJ/NLJ joiner keeps one across resets, and all
FP-tree Joiner tasks of a process share :func:`process_interner`, whose
size is bounded by starting a fresh *generation* (a new interner) once
it holds :data:`PROCESS_INTERNER_PAIRS` pairs.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.document import AVPair, Document, Value


class EncodedDocument:
    """A document's pairs as dense integer ids, valid for one interner.

    ``pair_ids`` preserves the document's attribute order (so routing
    observes unseen pairs in the same order the string implementation
    did); ``attr_to_pair`` maps attribute id -> pair id and is the
    conflict-check structure of the encoded joiners: two documents share
    an attribute with equal values iff their maps carry the same pair id
    under the same attribute id.
    """

    __slots__ = (
        "doc_id",
        "pair_ids",
        "attr_to_pair",
        "items",
        "interner",
        "_pair_set",
    )

    def __init__(
        self,
        doc_id: Optional[int],
        pair_ids: tuple[int, ...],
        attr_to_pair: dict[int, int],
        interner: "PairInterner",
    ):
        self.doc_id = doc_id
        self.pair_ids = pair_ids
        self.attr_to_pair = attr_to_pair
        #: ``attr_to_pair.items()`` frozen as a tuple, or None.  The
        #: joiners' inlined verification loops iterate *stored* documents'
        #: items many times, and a materialized tuple iterates faster than
        #: a fresh dict view — but most encodings (routing, probes) never
        #: need it, so it is filled by :meth:`freeze_items` on demand.
        self.items: Optional[tuple[tuple[int, int], ...]] = None
        self.interner = interner
        self._pair_set: Optional[frozenset[int]] = None

    def freeze_items(self) -> tuple[tuple[int, int], ...]:
        """Materialize (once) and return the (attr id, pair id) items."""
        items = self.items
        if items is None:
            items = self.items = tuple(self.attr_to_pair.items())
        return items

    @property
    def pair_set(self) -> frozenset[int]:
        """The pair ids as a frozenset (cached) — partition matching."""
        if self._pair_set is None:
            self._pair_set = frozenset(self.pair_ids)
        return self._pair_set

    def joinable(self, other: "EncodedDocument") -> bool:
        """Natural-join test on ids: share >= 1 pair, no attribute conflict.

        Both encodings must come from the same interner; ids from
        different dictionaries are not comparable.
        """
        a = self.attr_to_pair
        b = other.attr_to_pair
        if len(a) > len(b):
            a, b = b, a
        get = b.get
        shares = False
        for aid, pid in a.items():
            opid = get(aid)
            if opid is None:
                continue
            if opid != pid:
                return False
            shares = True
        return shares

    def __len__(self) -> int:
        return len(self.pair_ids)

    def __repr__(self) -> str:  # pragma: no cover - display helper
        tag = f" id={self.doc_id}" if self.doc_id is not None else ""
        return f"<EncodedDocument{tag} pairs={list(self.pair_ids)}>"


class PairInterner:
    """Bidirectional dictionary attribute/AV-pair <-> dense integer id.

    Ids are dense (``0..n-1``), assigned in first-seen order, and never
    reused or remapped, which is what lets encoded views and id-keyed
    indexes outlive window boundaries.
    """

    __slots__ = (
        "_attr_ids", "_attrs", "_pair_ids", "_pairs", "_pair_attrs", "_order_keys",
    )

    def __init__(self) -> None:
        self._attr_ids: dict[str, int] = {}
        self._attrs: list[str] = []
        #: (attribute, value) -> pair id; keys stored as AVPair (a tuple
        #: subclass), so plain ``dict.items()`` tuples hit without
        #: conversion
        self._pair_ids: dict[tuple, int] = {}
        self._pairs: list[AVPair] = []
        self._pair_attrs: list[int] = []
        #: (order attributes, per-attr-id sort keys) of the attribute
        #: order last asked for — see :meth:`order_keys`
        self._order_keys: Optional[tuple[tuple[str, ...], list]] = None

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def attr_id(self, attribute: str) -> int:
        """Dense id of ``attribute``, interning it on first sight."""
        aid = self._attr_ids.get(attribute)
        if aid is None:
            aid = len(self._attrs)
            self._attr_ids[attribute] = aid
            self._attrs.append(attribute)
        return aid

    def pair_id(self, attribute: str, value: Value) -> int:
        """Dense id of the pair, interning it on first sight."""
        item = (attribute, value)
        pid = self._pair_ids.get(item)
        if pid is None:
            pid = self._intern_pair(item)
        return pid

    def _intern_pair(self, item: tuple) -> int:
        pid = len(self._pairs)
        pair = AVPair(*item)
        self._pair_ids[pair] = pid
        self._pairs.append(pair)
        self._pair_attrs.append(self.attr_id(item[0]))
        return pid

    # ------------------------------------------------------------------
    # Reverse lookups
    # ------------------------------------------------------------------
    def attribute(self, attr_id: int) -> str:
        return self._attrs[attr_id]

    def pair(self, pair_id: int) -> AVPair:
        return self._pairs[pair_id]

    @property
    def pair_count(self) -> int:
        return len(self._pairs)

    def order_keys(self, order) -> list:
        """The per-attr-id sort-key list of an attribute order.

        Everything sorting this dictionary's ids under ``order`` (any
        object with an ``attributes`` tuple — equal tuples are the same
        order) gets the *same* list, so the keys are derived once per
        (order, dictionary) and the list's identity can stand for that
        pair: FP-trees tag the sorted path they cache on a document with
        it.  Callers grow the list as attributes are interned.  Only the
        latest order is remembered; structures built under an earlier
        one keep the list they hold.
        """
        cached = self._order_keys
        if cached is None or cached[0] != order.attributes:
            cached = self._order_keys = (order.attributes, [])
        return cached[1]

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, document: Document) -> EncodedDocument:
        """The document's encoded view, computed once and cached.

        The cache lives on the document and remembers the last interner
        that encoded it: repeated encodes inside one component are free,
        and a document crossing into a different component is simply
        re-encoded there.
        """
        cached = document._encoded
        if cached is not None and cached.interner is self:
            return cached
        pair_ids = []
        attr_to_pair = {}
        known = self._pair_ids
        pair_attrs = self._pair_attrs
        append = pair_ids.append
        for item in document.pairs.items():
            pid = known.get(item)
            if pid is None:
                pid = self._intern_pair(item)
            append(pid)
            attr_to_pair[pair_attrs[pid]] = pid
        encoded = EncodedDocument(
            document.doc_id, tuple(pair_ids), attr_to_pair, self
        )
        document._encoded = encoded
        return encoded

    def encode_pairs(self, pairs: Iterable[AVPair]) -> frozenset[int]:
        """Intern a bare pair set (e.g. a partition's) into a pair-id set."""
        pair_id = self.pair_id
        return frozenset(pair_id(attribute, value) for attribute, value in pairs)


#: pairs after which :func:`process_interner` starts a new generation
PROCESS_INTERNER_PAIRS = 1 << 16

_process_interner = PairInterner()


def process_interner() -> PairInterner:
    """The current generation of this process's shared pair dictionary.

    Every FP-tree Joiner task of a process interns into it, so a pair is
    interned once per process instead of once per task per window, and
    (with :meth:`PairInterner.order_keys`) a document's sorted path is
    shared by every co-located task.  A stream of never-repeating values
    must not grow it forever: once the current generation holds more than
    :data:`PROCESS_INTERNER_PAIRS` pairs the next call starts an empty
    one.  Structures pin the generation they were built on — ids of
    different generations are not comparable — and ask again when they
    are rebuilt at a window boundary, after which the old generation is
    unreferenced and freed.
    """
    global _process_interner
    if len(_process_interner._pairs) > PROCESS_INTERNER_PAIRS:
        _process_interner = PairInterner()
    return _process_interner
