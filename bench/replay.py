"""Staged replay: one window at a time through each layer's public entry.

The session under test runs all layers interleaved, across processes,
so from outside it only shows whole pushes.  To see the layers, the
replay walks the same documents through the stages a document crosses —
mine partitions, route, encode a wire batch, frame and parse it, decode
it, probe and insert into the per-machine FP-tree joiners — calling the
public function of each layer under a span.  It mirrors the topology's
data flow (window *k* is routed with the partitions mined from window
*k-1*; batches of 64 entries per worker; joiners evicted at every window
end) but not its scheduling: the numbers are each layer's cost for this
stream, and ``Workload.crosses`` says which of them the workload's own
session pays.
"""

from __future__ import annotations

from time import perf_counter

from repro import (
    AssociationGroupPartitioner,
    AttributeOrder,
    Document,
    DocumentRouter,
    FPTreeJoiner,
    PairInterner,
    plan_expansion,
)
from repro.core.columnar import ColumnarBatch
from repro.metrics.gini import gini_coefficient
from repro.streaming.transport.framing import FrameDecoder
from repro.streaming.tuples import StreamTuple
from repro.topology import messages as msg

from spans import Tracer
from workloads import M, REPLAY_BATCH, STAGES, Workload

LANE = "replay"


def _chunks(items: list, size: int):
    for start in range(0, len(items), size):
        yield items[start:start + size]


def replay(
    workload: Workload,
    windows: list[list[Document]],
    tracer: Tracer,
    repartition_rate: float,
) -> dict[str, float]:
    """Replay ``windows[1:]`` (``windows[0]`` seeds the first partitions).

    ``repartition_rate`` is the share of windows in which the workload's
    own session recomputed partitions; the replay mines after every
    window, so the budget charges mining at that rate.
    """
    n_workers = workload.session.get("workers", 1)
    codec = msg.ColumnarWireCodec()
    decoder = FrameDecoder()
    encode_interner = PairInterner()
    partitioner = AssociationGroupPartitioner()

    def mine(docs):
        plan = plan_expansion(docs, M)
        sample = plan.transform_sample(docs) if plan is not None else docs
        # an all-broadcast sample leaves nothing to mine from: keep the
        # partitions in force, as the Merger does
        if not sample:
            return None
        return partitioner.create_partitions(sample, M).partitions, plan

    partitions, plan = mine(windows[0])
    router = DocumentRouter(partitions, plan)
    order = AttributeOrder.from_documents(windows[0])

    docs_total = 0
    targets_total = 0
    broadcasts = 0
    gini_sum = 0.0
    probes = partners = 0
    wire_bytes = 0
    seq = 0

    for window_id, docs in enumerate(windows[1:], start=1):
        docs_total += len(docs)
        with tracer.span("replay.window", window_id, LANE):
            with tracer.span("partitioning.route", window_id, LANE):
                decisions = [router.route(doc) for doc in docs]

            loads = [0] * M
            per_worker: list[list] = [[] for _ in range(n_workers)]
            for doc, decision in zip(docs, decisions):
                targets_total += len(decision.targets)
                broadcasts += decision.broadcast
                for task in decision.targets:
                    loads[task] += 1
                    per_worker[task % n_workers].append(
                        (
                            msg.JOINER,
                            task,
                            StreamTuple(
                                msg.ASSIGNED,
                                (doc, window_id, None),
                                msg.ASSIGNER,
                                0,
                                task,
                            ),
                        )
                    )
            gini_sum += gini_coefficient(loads)

            joiners = [FPTreeJoiner(order) for _ in range(M)]
            for entries in per_worker:
                for chunk in _chunks(entries, REPLAY_BATCH):
                    seq += 1
                    with tracer.span("wire.encode", window_id, LANE):
                        frame = codec.encode_batch(seq, chunk)
                    wire_bytes += frame.payload_nbytes
                    with tracer.span("transport.frame", window_id, LANE):
                        (received,) = decoder.feed(b"".join(frame.parts()))
                    with tracer.span("wire.decode", window_id, LANE):
                        _seq, decoded = codec.decode_batch(received)
                    with tracer.span("join.batch", window_id, LANE):
                        for entry in decoded:
                            joiner = joiners[entry[1]]
                            doc = entry[6][0]
                            start = perf_counter()
                            found = joiner.probe(doc)
                            middle = perf_counter()
                            joiner.add(doc)
                            end = perf_counter()
                            tracer.leaf("join.probe", start, middle, window_id, LANE)
                            tracer.leaf("join.insert", middle, end, window_id, LANE)
                            partners += len(found)
                        probes += len(decoded)

            with tracer.span("partitioning.mine", window_id, LANE):
                mined = mine(docs)
                if mined is not None:
                    router.swap(*mined)
            with tracer.span("join.order", window_id, LANE):
                order = AttributeOrder.from_documents(docs)

            # the two core primitives, on copies so that no cache filled
            # by an earlier stage answers for them
            copies = [Document(doc.pairs, doc_id=doc.doc_id) for doc in docs]
            with tracer.span("core.encode", window_id, LANE):
                for copy in copies:
                    encode_interner.encode(copy)
            copies = [Document(doc.pairs, doc_id=doc.doc_id) for doc in docs]
            with tracer.span("core.columnar", window_id, LANE):
                for chunk in _chunks(copies, REPLAY_BATCH):
                    ColumnarBatch.encode(chunk)

    n_windows = len(windows) - 1  # each one is mined and ordered once
    self_s = tracer.self_times()
    us_per_doc = {name: seconds / docs_total * 1e6 for name, seconds in self_s.items()}
    budget = sum(
        us_per_doc[stage]
        * (repartition_rate if stage == "partitioning.mine" else 1.0)
        for stage in STAGES
        if stage in workload.crosses
    )
    return {
        "core.encode_us_per_doc": us_per_doc["core.encode"],
        "core.columnar_us_per_doc": us_per_doc["core.columnar"],
        "core.interner_pairs": encode_interner.pair_count,
        "partitioning.route_us_per_doc": us_per_doc["partitioning.route"],
        "partitioning.targets_per_doc": targets_total / docs_total,
        "partitioning.broadcast_share": broadcasts / docs_total,
        "partitioning.gini": gini_sum / n_windows,
        "partitioning.mine_ms_per_call": self_s["partitioning.mine"] / n_windows * 1e3,
        "join.probe_us_per_doc": us_per_doc["join.probe"],
        "join.partners_per_probe": partners / probes,
        "join.probes": probes,
        "join.insert_us_per_doc": us_per_doc["join.insert"],
        "join.inserts": probes,  # probe-then-insert: one of each per assignment
        "join.order_ms_per_call": self_s["join.order"] / n_windows * 1e3,
        "wire.encode_us_per_doc": us_per_doc["wire.encode"],
        "wire.decode_us_per_doc": us_per_doc["wire.decode"],
        "wire.bytes_per_doc": wire_bytes / docs_total,
        "transport.frame_us_per_doc": us_per_doc["transport.frame"],
        "budget.sum_us_per_doc": budget,
    }
