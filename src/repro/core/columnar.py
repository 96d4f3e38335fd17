"""Columnar wire batches: flat pair-id columns over documents.

A :class:`ColumnarBatch` encodes a batch of documents as three flat
``array('q')`` columns — ``pair_ids`` (every document's pair ids,
concatenated), ``offsets`` (row boundaries into ``pair_ids``,
``len(batch) + 1`` entries) and ``doc_ids`` (one id per row, ``-1`` for
documents without one) — built in **one pass** over the documents
(:meth:`encode`), so the wire codec ships machine integers instead of
per-document pickles.

The ids are *frame-local*: dense in first-seen order within the batch,
with a ``pair_table`` mapping them back to ``(attribute, value)`` pairs.
Unlike a :class:`~repro.core.interning.PairInterner` (which mirrors the
joiners' value-equality semantics), the table keys by ``(type(value),
attribute, value)`` so ``True`` and ``1`` ship separately and decode
back to their original types.  A batch is therefore fully
self-contained: any frame decodes without per-link dictionary state,
and encoding the same documents again yields the same columns.

The columns expose the buffer protocol (:meth:`buffers`), and
:meth:`from_buffers` reads received buffers back into integer lists in
one C-level copy each, which every later pass (validation, decoding)
iterates without unpacking words again.  Columns are native-endian
(``'q'``), which is fine for the single-host process boundary they
cross.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence, Union

from repro.core.document import Document

#: wire value of a missing ``doc_id``
NO_DOC_ID = -1

#: an encoded array column or a received column read into a list
Column = Union[array, list]


class ColumnarBatch:
    """A batch of documents as flat integer columns (see module docs)."""

    __slots__ = ("doc_ids", "offsets", "pair_ids", "pair_table", "documents")

    def __init__(
        self,
        doc_ids: Column,
        offsets: Column,
        pair_ids: Column,
        *,
        pair_table: list,
        documents: Optional[list] = None,
    ) -> None:
        self.doc_ids = doc_ids
        self.offsets = offsets
        self.pair_ids = pair_ids
        self.pair_table = pair_table
        self.documents = documents

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def encode(cls, documents: Sequence[Document]) -> "ColumnarBatch":
        """Frame-local ids plus a faithful pair table, in one pass."""
        table_ids: dict = {}
        pair_table: list = []
        offsets = array("q", (0,))
        pair_ids = array("q")
        doc_ids = array("q")
        append = pair_ids.append
        total = 0
        for document in documents:
            did = document.doc_id
            doc_ids.append(NO_DOC_ID if did is None else did)
            keys = document._wire_keys
            if keys is None:
                keys = tuple(
                    (value.__class__, attribute, value)
                    for attribute, value in document.pairs.items()
                )
                document._wire_keys = keys
            for key in keys:
                wire_id = table_ids.get(key)
                if wire_id is None:
                    wire_id = len(pair_table)
                    table_ids[key] = wire_id
                    pair_table.append((key[1], key[2]))
                append(wire_id)
                total += 1
            offsets.append(total)
        return cls(
            doc_ids,
            offsets,
            pair_ids,
            pair_table=pair_table,
            documents=list(documents),
        )

    # ------------------------------------------------------------------
    # Wire round trip
    # ------------------------------------------------------------------
    def buffers(self) -> list:
        """The three columns as byte views, in wire order."""
        return [
            memoryview(self.offsets).cast("B"),
            memoryview(self.pair_ids).cast("B"),
            memoryview(self.doc_ids).cast("B"),
        ]

    @classmethod
    def from_buffers(cls, pair_table: list, buffers: Sequence) -> "ColumnarBatch":
        """A wire batch from the three byte buffers of :meth:`buffers`
        (in order), each a whole number of 8-byte words.

        ``offsets`` and ``pair_ids`` are indexes and read back unsigned
        (``'Q'``): a corrupt negative index reads as ``>= 2**63``, so a
        single upper bound rejects it.
        """
        offsets, pair_ids, doc_ids = (
            memoryview(buffer).cast(code).tolist()
            for buffer, code in zip(buffers, "QQq")
        )
        return cls(doc_ids, offsets, pair_ids, pair_table=pair_table)

    def to_documents(self) -> list[Document]:
        """Materialize the batch's documents.

        Idempotent: an encode-side batch returns the original documents;
        a received batch builds them from the table and caches the
        result.
        """
        if self.documents is not None:
            return self.documents
        table = self.pair_table
        offsets = self.offsets
        pair_ids = self.pair_ids
        out = []
        start = offsets[0]
        for row, did in enumerate(self.doc_ids):
            end = offsets[row + 1]
            pairs = {}
            for i in range(start, end):
                attribute, value = table[pair_ids[i]]
                pairs[attribute] = value
            start = end
            out.append(Document(pairs, doc_id=None if did == NO_DOC_ID else did))
        self.documents = out
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.doc_ids)

    def row(self, index: int) -> Column:
        """The pair-id column slice of one document."""
        return self.pair_ids[self.offsets[index] : self.offsets[index + 1]]

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"<ColumnarBatch rows={len(self)} pairs={len(self.pair_ids)}>"
