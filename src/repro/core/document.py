"""Schema-free document model.

A document is an unordered set of attribute-value pairs
``{a1: v1, a2: v2, ...}`` (paper, Section I-A).  Attributes are strings and
values are JSON scalars.  Nested JSON objects are flattened into dotted
attribute paths and arrays into indexed paths so that every document is a
flat mapping — the representation the paper's algorithms operate on.

Join semantics (natural inner join over schema-free data):

* two documents are **joinable** iff they share at least one attribute and
  have *identical* values for every attribute they share;
* documents sharing no attribute are excluded from the join result;
* the join of two joinable documents is the union of their pairs.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from repro.exceptions import DocumentError, JoinConflictError

#: JSON scalar types a flattened document value may take.
Value = Union[str, int, float, bool, None]


class AVPair(NamedTuple):
    """A single attribute-value pair.

    ``AVPair`` is the atomic unit of both the partitioning algorithms
    (partitions are sets of AV-pairs) and the FP-tree (nodes are labelled
    with AV-pairs).
    """

    attribute: str
    value: Value

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.attribute}:{self.value!r}"

    def sort_key(self) -> tuple[str, str]:
        """Canonical total order over pairs with mixed value types."""
        return (self.attribute, repr(self.value))


def pairs_sort_key(pairs: Iterable[AVPair]) -> tuple[tuple[str, str], ...]:
    """Deterministic key for a *set* of AV-pairs (used for stable tie-breaks)."""
    return tuple(sorted(p.sort_key() for p in pairs))


#: maximum nesting depth accepted when flattening JSON; beyond this the
#: document is rejected instead of risking a recursion blow-up on
#: adversarial input
MAX_NESTING_DEPTH = 64


def flatten_json(obj: Mapping[str, Any], prefix: str = "") -> dict[str, Value]:
    """Flatten a parsed JSON object into a flat attribute → scalar mapping.

    Nested objects contribute dotted paths (``{"a": {"b": 1}}`` becomes
    ``{"a.b": 1}``) and arrays contribute indexed paths
    (``{"a": [1, 2]}`` becomes ``{"a[0]": 1, "a[1]": 2}``), matching how
    NoBench-style documents with a ``nested_obj`` member are handled.

    Raises :class:`DocumentError` on duplicate flattened attribute names,
    non-string keys, unsupported value types, or nesting deeper than
    :data:`MAX_NESTING_DEPTH`.
    """
    flat: dict[str, Value] = {}
    _flatten_into(obj, prefix, flat, depth=0)
    return flat


def _flatten_into(node: Any, prefix: str, out: dict[str, Value], depth: int) -> None:
    if depth > MAX_NESTING_DEPTH:
        raise DocumentError(
            f"nesting deeper than {MAX_NESTING_DEPTH} levels at {prefix!r}"
        )
    if isinstance(node, Mapping):
        for key, value in node.items():
            if not isinstance(key, str):
                raise DocumentError(f"attribute names must be strings, got {key!r}")
            path = f"{prefix}.{key}" if prefix else key
            _flatten_into(value, path, out, depth + 1)
    elif isinstance(node, (list, tuple)):
        for index, value in enumerate(node):
            _flatten_into(value, f"{prefix}[{index}]", out, depth + 1)
    else:
        if not isinstance(node, (str, int, float, bool)) and node is not None:
            raise DocumentError(f"unsupported JSON value {node!r} at {prefix!r}")
        if prefix in out:
            raise DocumentError(f"duplicate attribute {prefix!r} after flattening")
        out[prefix] = node


class Document:
    """An immutable schema-free document: a flat set of attribute-value pairs.

    Parameters
    ----------
    pairs:
        Mapping from attribute name to scalar value, or an iterable of
        :class:`AVPair` / ``(attribute, value)`` tuples.
    doc_id:
        Optional stable identifier.  Streaming components assign ids on
        ingest; ad-hoc documents may omit it.
    """

    __slots__ = (
        "_pairs",
        "doc_id",
        "_hash",
        "_avpair_set",
        "_encoded",
        "_path_key",
        "_path",
        "_wire_keys",
    )

    def __init__(
        self,
        pairs: Union[Mapping[str, Value], Iterable[tuple[str, Value]]],
        doc_id: Optional[int] = None,
    ):
        if isinstance(pairs, Mapping):
            items = dict(pairs)
        else:
            items = {}
            for attribute, value in pairs:
                if attribute in items and items[attribute] != value:
                    raise DocumentError(
                        f"conflicting duplicate attribute {attribute!r} in document"
                    )
                items[attribute] = value
        if not items:
            raise DocumentError("a document must contain at least one attribute")
        self._pairs: dict[str, Value] = items
        self.doc_id = doc_id
        self._hash: Optional[int] = None
        self._avpair_set: Optional[frozenset[AVPair]] = None
        #: last dictionary-encoded view of this document, tagged with the
        #: interner that produced it (see :mod:`repro.core.interning`)
        self._encoded = None
        #: the pair ids sorted for FP-tree insertion, and the token of the
        #: (dictionary, attribute order) they were sorted under — every
        #: co-located Joiner receiving this object reuses the path (see
        #: :meth:`repro.join.fptree.FPTree.path`)
        self._path_key = None
        self._path = None
        #: cached ``(type(value), attribute, value)`` key tuple for the
        #: wire codec — a document routed to several workers is encoded
        #: into one frame per worker, and the keys don't change between
        #: frames (pairs are immutable after construction)
        self._wire_keys = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_json(cls, text: str, doc_id: Optional[int] = None) -> "Document":
        """Parse a JSON object string into a flattened :class:`Document`."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DocumentError("top-level JSON value must be an object")
        return cls(flatten_json(obj), doc_id=doc_id)

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any], doc_id: Optional[int] = None) -> "Document":
        """Build a document from a (possibly nested) Python mapping."""
        return cls(flatten_json(obj), doc_id=doc_id)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> Mapping[str, Value]:
        """Read-only view of the attribute → value mapping."""
        return self._pairs

    @property
    def attributes(self) -> frozenset[str]:
        return frozenset(self._pairs)

    def avpairs(self) -> Iterator[AVPair]:
        """Iterate the document's pairs as :class:`AVPair` tuples."""
        for attribute, value in self._pairs.items():
            yield AVPair(attribute, value)

    def avpair_set(self) -> frozenset[AVPair]:
        """The document content as a frozen set of AV-pairs.

        Computed once and cached (documents are immutable): partition
        matching intersects this set per partition, so the flattening to
        :class:`AVPair` tuples must not repeat per call.
        """
        if self._avpair_set is None:
            self._avpair_set = frozenset(self.avpairs())
        return self._avpair_set

    def get(self, attribute: str, default: Value = None) -> Value:
        return self._pairs.get(attribute, default)

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._pairs

    def __getitem__(self, attribute: str) -> Value:
        return self._pairs[attribute]

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[str]:
        return iter(self._pairs)

    # ------------------------------------------------------------------
    # Join semantics
    # ------------------------------------------------------------------
    def conflicts_with(self, other: "Document") -> bool:
        """True if any shared attribute carries different values."""
        small, large = (
            (self._pairs, other._pairs)
            if len(self._pairs) <= len(other._pairs)
            else (other._pairs, self._pairs)
        )
        for attribute, value in small.items():
            other_value = large.get(attribute, _MISSING)
            if other_value is not _MISSING and other_value != value:
                return True
        return False

    def joinable(self, other: "Document") -> bool:
        """Natural-join test: share >= 1 attribute, no conflicting value."""
        small, large = (
            (self._pairs, other._pairs)
            if len(self._pairs) <= len(other._pairs)
            else (other._pairs, self._pairs)
        )
        shares = False
        for attribute, value in small.items():
            other_value = large.get(attribute, _MISSING)
            if other_value is _MISSING:
                continue
            if other_value != value:
                return False
            shares = True
        return shares

    def join(self, other: "Document") -> "Document":
        """Merge two joinable documents into their natural-join output.

        Raises :class:`JoinConflictError` if a shared attribute conflicts and
        :class:`DocumentError` if the documents share no attribute at all.
        """
        shares = False
        merged = dict(self._pairs)
        for attribute, value in other._pairs.items():
            if attribute in merged:
                if merged[attribute] != value:
                    raise JoinConflictError(attribute, merged[attribute], value)
                shares = True
            else:
                merged[attribute] = value
        if not shares:
            raise DocumentError(
                "documents share no attribute and are excluded from the join result"
            )
        return Document(merged)

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._pairs.items()))
        return self._hash

    def __reduce__(self) -> tuple:
        # Pickle only the pairs and the id: the lazily computed hash and
        # AV-pair-set caches would otherwise ship (and roughly double)
        # every document crossing a process boundary.
        return (Document, (self._pairs, self.doc_id))

    def __repr__(self) -> str:
        body = ", ".join(f"{a}: {v!r}" for a, v in sorted(self._pairs.items()))
        tag = f" id={self.doc_id}" if self.doc_id is not None else ""
        return f"<Document{tag} {{{body}}}>"

    def to_dict(self) -> dict[str, Value]:
        """A plain-dict copy of the flattened pairs (JSON-serializable)."""
        return dict(self._pairs)

    def to_json(self) -> str:
        return json.dumps(self._pairs, sort_keys=True)


_MISSING = object()
