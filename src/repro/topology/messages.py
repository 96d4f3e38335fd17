"""Stream names and message payloads exchanged between components.

The topology's streams (cf. Fig. 2, extended with the control channels
Section VI-A describes):

========================  =======================  =========================
stream                    producer -> consumer      payload
========================  =======================  =========================
``docs``                  Reader -> Creator,        ``(Document, window_id)``
                          Assigner (shuffle)
``window_end``            Reader -> Creator,        ``(window_id,)``
                          Merger, Assigner (all)
``sample_stats``          Creator -> Merger          ``(window_id, AttributeStats,
                          (global)                   sample_size)``
``mining_request``        Merger -> Creator (all)    ``(window_id, plan | None)``
``local_groups``          Creator -> Merger          ``(window_id, [AssociationGroup],
                          (global)                    sample_size)``
``partitions``            Merger -> Assigner (all)   ``(PartitionSet,)``
``partition_update``      Merger -> Assigner (all)   ``(AVPair, partition_index)``
``control``               Assigner -> Merger          ``ControlMessage``
                          (global), Creator (all)
``assigned``              Assigner -> Joiner          ``(Document, window_id)``
                          (direct)
``window_done``           Assigner -> Joiner (all)    ``(window_id,)``
``assigner_stats``        Assigner -> Sink (global)   ``AssignerWindowStats``
``join_stats``            Joiner -> Sink (global)     ``JoinerWindowStats``
``repartition_event``     Merger -> Sink (global)     ``(window_id, initial)``
========================  =======================  =========================
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import lt
from typing import Optional

from repro.core.columnar import ColumnarBatch
from repro.core.document import AVPair
from repro.join.ordering import AttributeOrder
from repro.partitioning.base import Partition
from repro.partitioning.expansion import ExpansionPlan
from repro.streaming.transport.base import WireCodec
from repro.streaming.transport.framing import FrameError
from repro.streaming.tuples import lowest_owner

# Stream names -------------------------------------------------------------
DOCS = "docs"
WINDOW_END = "window_end"
SAMPLE_STATS = "sample_stats"
MINING_REQUEST = "mining_request"
LOCAL_GROUPS = "local_groups"
PARTITIONS = "partitions"
PARTITION_UPDATE = "partition_update"
CONTROL = "control"
ASSIGNED = "assigned"
WINDOW_DONE = "window_done"
ASSIGNER_STATS = "assigner_stats"
JOIN_STATS = "join_stats"
REPARTITION_EVENT = "repartition_event"

# Component names ----------------------------------------------------------
READER = "reader"
CREATOR = "partition_creator"
MERGER = "merger"
ASSIGNER = "assigner"
JOINER = "joiner"
SINK = "metrics_sink"


@dataclass
class AttributeStats:
    """Per-attribute sample statistics a PartitionCreator ships upstream.

    Value sets are capped at ``VALUE_CAP`` entries — the Merger only needs
    to decide whether an attribute's domain is *smaller than m*, so a
    bounded sample of distinct values suffices and keeps messages small.
    """

    VALUE_CAP = 256

    doc_count: dict[str, int] = field(default_factory=dict)
    values: dict[str, set] = field(default_factory=dict)
    sample_size: int = 0

    def observe(self, pairs) -> None:
        self.sample_size += 1
        for attribute, value in pairs:
            self.doc_count[attribute] = self.doc_count.get(attribute, 0) + 1
            bucket = self.values.setdefault(attribute, set())
            if len(bucket) < self.VALUE_CAP:
                bucket.add(value)

    def merge(self, other: "AttributeStats") -> None:
        self.sample_size += other.sample_size
        for attribute, count in other.doc_count.items():
            self.doc_count[attribute] = self.doc_count.get(attribute, 0) + count
        for attribute, values in other.values.items():
            bucket = self.values.setdefault(attribute, set())
            for value in values:
                if len(bucket) >= self.VALUE_CAP:
                    break
                bucket.add(value)


@dataclass
class PartitionSet:
    """A versioned partitioning broadcast by the Merger to all Assigners."""

    version: int
    partitions: list[Partition]
    expansion: Optional[ExpansionPlan]
    #: Merger-side estimates from the sample; Assigners compare observed
    #: values against these to decide θ-repartitioning (Section VI-A).
    baseline_replication: float
    baseline_max_load: float
    created_at_window: int
    #: the global attribute order, computed from the same sample "right
    #: after the partitions are created" (Section V-A) and used by the
    #: Joiners for their FP-trees from the next window on
    attribute_order: Optional[AttributeOrder] = None


@dataclass(frozen=True)
class ControlMessage:
    """Assigner-originated control traffic."""

    kind: str  # "repartition" | "update"
    window_id: int
    pair: Optional[AVPair] = None
    co_pairs: tuple[AVPair, ...] = ()


@dataclass
class AssignerWindowStats:
    """One Assigner's contribution to a window's routing metrics."""

    window_id: int
    task_index: int
    documents: int
    assignments: int
    machine_counts: tuple[int, ...]
    broadcasts: int
    triggered_repartition: bool


@dataclass
class JoinerWindowStats:
    """One Joiner's per-window join outcome."""

    window_id: int
    task_index: int
    documents: int
    join_pairs: int


# Wire encoding ------------------------------------------------------------


def _encode_assigned(values: tuple) -> tuple:
    document, window_id, side = values
    return (tuple(document.pairs.items()), document.doc_id, window_id, side)


def _decode_assigned(values: tuple) -> tuple:
    items, doc_id, window_id, side = values
    from repro.core.document import Document

    return (Document(dict(items), doc_id=doc_id), window_id, side)


def _encode_join_stats(values: tuple) -> tuple:
    from repro.join.binary import BinaryJoinPair

    stats, pairs = values
    encoded_pairs = (
        None
        if pairs is None
        else tuple(sorted((pair.left, pair.right) for pair in pairs))
    )
    binary = bool(pairs) and isinstance(next(iter(pairs)), BinaryJoinPair)
    return (
        stats.window_id,
        stats.task_index,
        stats.documents,
        stats.join_pairs,
        encoded_pairs,
        binary,
    )


def _decode_join_stats(values: tuple) -> tuple:
    from repro.join.base import JoinPair
    from repro.join.binary import BinaryJoinPair

    window_id, task_index, documents, join_pairs, encoded_pairs, binary = values
    stats = JoinerWindowStats(
        window_id=window_id,
        task_index=task_index,
        documents=documents,
        join_pairs=join_pairs,
    )
    if encoded_pairs is None:
        return (stats, None)
    pair_cls = BinaryJoinPair if binary else JoinPair
    return (stats, frozenset(pair_cls(left, right) for left, right in encoded_pairs))


class ColumnarWireCodec(WireCodec):
    """The stream-join topology's codec: ``assigned`` entries as columns.

    On top of the base frame (:class:`~repro.streaming.transport.WireCodec`)
    an ``assigned`` entry — one (document, worker) pair — becomes one row
    of three flat ``array('q')`` entry columns: document row, context id
    and the bitmask of the worker's tasks the document is assigned to.
    The batch's documents are encoded **once** into a
    :class:`~repro.core.columnar.ColumnarBatch` (flat integer columns plus
    a frame-local pair table, see :meth:`ColumnarBatch.encode`), so a
    document object that several entries share is encoded a single time,
    and a tiny table holds the distinct ``(component, source,
    source_task, window_id, side)`` contexts.  The six columns travel as
    raw buffers the transports scatter-write — no per-document pickling.

    The plain-tuple per-stream forms registered here serve the entries
    that do not fit the columns and the worker->parent emissions.
    """

    def __init__(self) -> None:
        super().__init__()
        self.register(ASSIGNED, _encode_assigned, _decode_assigned)
        self.register(JOIN_STATS, _encode_join_stats, _decode_join_stats)

    def _columnar(self, tup, mask: int) -> bool:
        return tup.stream == ASSIGNED and _columnar_assignable(tup.values, mask)

    def _encode_columns(self, rows: list) -> tuple:
        documents: list = []
        doc_rows: dict[int, int] = {}
        ctx_table: list = []
        ctx_ids: dict[tuple, int] = {}
        entry_doc = array("q")
        entry_ctx = array("q")
        entry_mask = array("q")
        for component, tup, mask in rows:
            document, window_id, side = tup.values
            row = doc_rows.get(id(document))
            if row is None:
                row = len(documents)
                doc_rows[id(document)] = row
                documents.append(document)
            context = (component, tup.source, tup.source_task, window_id, side)
            ctx = ctx_ids.get(context)
            if ctx is None:
                ctx = len(ctx_table)
                ctx_ids[context] = ctx
                ctx_table.append(context)
            entry_doc.append(row)
            entry_ctx.append(ctx)
            entry_mask.append(mask)
        batch = ColumnarBatch.encode(documents)
        buffers = batch.buffers()
        buffers.extend(
            memoryview(column).cast("B")
            for column in (entry_doc, entry_ctx, entry_mask)
        )
        return (tuple(ctx_table), batch.pair_table), buffers

    def _decode_columns(self, columns: tuple, buffers: list) -> list:
        """Rows → entries whose ``task_index`` (and ``direct``) is the
        lowest task in the mask; entries of one document share the
        materialized object.  Raises :class:`FrameError` for columns
        that do not describe the frame's own tables (see
        :func:`_check_columns`)."""
        ctx_table, pair_table = columns
        if len(buffers) != 6 or any(len(buffer) % 8 for buffer in buffers):
            raise FrameError("a columnar batch is six columns of 8-byte words")
        batch = ColumnarBatch.from_buffers(pair_table, buffers[:3])
        # rows and contexts are indexes: unsigned, as in ``from_buffers``
        entry_doc, entry_ctx, entry_mask = (
            memoryview(buffer).cast(code).tolist()
            for buffer, code in zip(buffers[3:], "QQq")
        )
        _check_columns(batch, entry_doc, entry_ctx, entry_mask, len(ctx_table))
        documents = batch.to_documents()
        entries = []
        append = entries.append
        for row, ctx, mask in zip(entry_doc, entry_ctx, entry_mask):
            component, source, source_task, window_id, side = ctx_table[ctx]
            task_index = lowest_owner(mask)
            append(
                (
                    component,
                    task_index,
                    ASSIGNED,
                    source,
                    source_task,
                    task_index,
                    (documents[row], window_id, side),
                    mask,
                )
            )
        return entries


def _check_columns(batch, entry_doc, entry_ctx, entry_mask, contexts: int) -> None:
    """Raise :class:`FrameError` unless the entry columns have one length,
    ``offsets`` tiles ``pair_ids`` with non-empty rows and every document
    row, context and pair id indexes its table — one ``max`` per index
    column (read unsigned, so a negative index is ``>= 2**63``), and a
    corrupt index can neither raise mid-decode nor alias another row."""
    offsets, pair_ids, rows = batch.offsets, batch.pair_ids, len(batch)
    if not len(entry_doc) == len(entry_ctx) == len(entry_mask):
        raise FrameError("entry columns of unequal length")
    if (
        len(offsets) != rows + 1
        or offsets[0] != 0
        or offsets[-1] != len(pair_ids)
        or not all(map(lt, offsets, offsets[1:]))
    ):
        raise FrameError(f"offsets do not tile {len(pair_ids)} pair ids in {rows} rows")
    for name, column, bound in (
        ("document row", entry_doc, rows),
        ("context", entry_ctx, contexts),
        ("pair id", pair_ids, len(batch.pair_table)),
    ):
        if column and max(column) >= bound:
            raise FrameError(f"{name} column leaves [0, {bound})")


def _columnar_assignable(values: tuple, mask: int) -> bool:
    """True when an ``assigned`` entry fits the columnar layout: a
    ``doc_id`` the ``'q'`` column holds unambiguously (negative ids
    would collide with the column's missing-id sentinel) and a task
    mask that fits its 63 value bits."""
    doc_id = values[0].doc_id
    return mask < (1 << 63) and (
        doc_id is None or (type(doc_id) is int and 0 <= doc_id < (1 << 63))
    )


def wire_codec() -> WireCodec:
    """The codec the stream-join topology ships across worker processes."""
    return ColumnarWireCodec()
