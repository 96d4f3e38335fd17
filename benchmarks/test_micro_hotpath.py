"""Hot-path micro-benchmark: per-document probe/insert/route/ship latencies.

Measures the operations the dictionary-encoding layer and the columnar
wire path optimize, per joiner and dataset style, in nanoseconds per
document:

* ``{dataset}.{NLJ,HBJ,FPJ}.probe_ns`` / ``insert_ns`` — the
  dictionary-encoded joiners (one storage path each), per-document
  streaming discipline;
* ``{dataset}.ship_ns`` — the columnar wire path: encode a batch into a
  buffer frame, frame it, decode it back to documents, per document;
* ``{dataset}.route_ns`` — :class:`DocumentRouter` routing against an
  AG partitioning of the first window.

The workload is fixed (seeded generators, 3 tumbling windows x 500
documents) so numbers are comparable across commits: ``make
bench-hotpath`` regenerates ``BENCH_hotpath.json`` and ``make
bench-check`` (scripts/check_bench.py) fails on >25% per-metric
regressions against the committed file.  See ``docs/performance.md``.

Each metric is the per-document *minimum* over ``REPS`` repetitions x
``RUNS`` independent collection passes.  Minima, not means: scheduling
noise and host contention on shared machines only ever add latency, so
the minimum is the best estimator of the code's intrinsic cost and the
only statistic stable enough to gate on.

``seed_baseline`` ratios compare against constants frozen on the
machine that measured the seed; absolute host speed differences show up
uniformly in them.  ``workload.cpu_count`` records the host the absolute
rows come from.

The pytest entry points run a scaled-down workload as a smoke test; the
full measurement runs via ``python benchmarks/test_micro_hotpath.py``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

from repro.data.nobench import NoBenchGenerator
from repro.data.serverlogs import ServerLogGenerator
from repro.join.fptree_join import FPTreeJoiner
from repro.join.hash_join import HashJoiner
from repro.join.nested_loop import NestedLoopJoiner
from repro.join.ordering import AttributeOrder
from repro.partitioning.association import AssociationGroupPartitioner
from repro.partitioning.router import DocumentRouter
from repro.streaming.transport.framing import FrameDecoder
from repro.streaming.tuples import StreamTuple
from repro.topology.messages import ASSIGNED, ColumnarWireCodec

SEED = 7
WINDOWS = 3
SIZE = 500
REPS = 3
RUNS = 4
M = 8
#: documents per wire batch (mirrors the executor's batching scale)
BATCH = 64

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

DATASETS = ("rwData", "nbData")
JOINERS = ("NLJ", "HBJ", "FPJ")

#: The same workload measured on the pre-interning implementation (the
#: tree at "Add process-parallel execution backend ..."), i.e. the
#: "before" side of the encoding layer's before/after claim.  Embedded
#: in every report so BENCH_hotpath.json stays self-documenting.
SEED_BASELINE = {
    "rwData.NLJ.probe_ns": 56522.0,
    "rwData.NLJ.insert_ns": 242.6,
    "rwData.HBJ.probe_ns": 87119.8,
    "rwData.HBJ.insert_ns": 3481.3,
    "rwData.FPJ.probe_ns": 4316.7,
    "rwData.FPJ.insert_ns": 7470.9,
    "rwData.route_ns": 3910.3,
    "nbData.NLJ.probe_ns": 54853.2,
    "nbData.NLJ.insert_ns": 254.2,
    "nbData.HBJ.probe_ns": 44838.6,
    "nbData.HBJ.insert_ns": 4930.6,
    "nbData.FPJ.probe_ns": 4276.7,
    "nbData.FPJ.insert_ns": 15741.9,
    "nbData.route_ns": 6428.5,
}


def windows_for(dataset: str, size: int = SIZE, windows: int = WINDOWS):
    """The benchmark stream: ``windows`` tumbling windows of ``size`` docs."""
    gen = (
        ServerLogGenerator(seed=SEED)
        if dataset == "rwData"
        else NoBenchGenerator(seed=SEED)
    )
    return [gen.next_window(size) for _ in range(windows)]


def make_joiner(name: str, order: AttributeOrder):
    if name == "NLJ":
        return NestedLoopJoiner()
    if name == "HBJ":
        return HashJoiner()
    if name == "FPJ":
        return FPTreeJoiner(order)
    raise ValueError(name)


def time_joiner(make, windows, reps: int = REPS):
    """Best-of-``reps`` probe and insert ns/doc over the windowed stream."""
    best_probe = best_insert = float("inf")
    n = sum(len(w) for w in windows)
    for _ in range(reps):
        joiner = make()
        probe_s = insert_s = 0.0
        for window in windows:
            for doc in window:
                t = perf_counter()
                joiner.probe(doc)
                probe_s += perf_counter() - t
                t = perf_counter()
                joiner.add(doc)
                insert_s += perf_counter() - t
            joiner.reset()
        best_probe = min(best_probe, probe_s * 1e9 / n)
        best_insert = min(best_insert, insert_s * 1e9 / n)
    return best_probe, best_insert


def _assigned_entries(windows):
    """The benchmark stream as journaled executor entries."""
    return [
        [
            (
                "joiner",
                0,
                StreamTuple(
                    stream=ASSIGNED,
                    values=(doc, window_id, None),
                    source="assigner",
                    source_task=0,
                    direct_task=0,
                ),
            )
            for doc in window
        ]
        for window_id, window in enumerate(windows)
    ]


def time_ship(windows, reps: int = REPS):
    """Best-of-``reps`` wire-path ns/doc through the columnar frame codec.

    Measures the full parent→worker round trip the parallel backend
    performs per batch — encode, frame, decode back to documents.
    """
    per_window = _assigned_entries(windows)
    n = sum(len(w) for w in windows)
    best = float("inf")
    for _ in range(reps):
        codec = ColumnarWireCodec()
        decoder = FrameDecoder()
        seq = 0
        t = perf_counter()
        for entries in per_window:
            for start in range(0, len(entries), BATCH):
                seq += 1
                frame = codec.encode_batch(seq, entries[start : start + BATCH])
                (received,) = decoder.feed(b"".join(
                    bytes(part) for part in frame.parts()
                ))
                codec.decode_batch(received)
        best = min(best, (perf_counter() - t) * 1e9 / n)
    return best


def time_route(windows, reps: int = REPS):
    """Best-of-``reps`` route ns/doc against an AG partitioning."""
    sample = windows[0]
    result = AssociationGroupPartitioner().create_partitions(sample, M)
    n = sum(len(w) for w in windows)
    best = float("inf")
    for _ in range(reps):
        router = DocumentRouter(result.partitions)
        t = perf_counter()
        for window in windows:
            for doc in window:
                router.route(doc)
        best = min(best, (perf_counter() - t) * 1e9 / n)
    return best


def collect_metrics(size: int = SIZE, windows: int = WINDOWS, reps: int = REPS):
    """All hot-path metrics as a flat ``name -> ns_per_doc`` mapping."""
    metrics: dict[str, float] = {}
    for dataset in DATASETS:
        ws = windows_for(dataset, size=size, windows=windows)
        order = AttributeOrder.from_documents(ws[0])
        for name in JOINERS:
            probe, insert = time_joiner(
                lambda: make_joiner(name, order), ws, reps=reps
            )
            metrics[f"{dataset}.{name}.probe_ns"] = round(probe, 1)
            metrics[f"{dataset}.{name}.insert_ns"] = round(insert, 1)
        metrics[f"{dataset}.ship_ns"] = round(time_ship(ws, reps=reps), 1)
        metrics[f"{dataset}.route_ns"] = round(time_route(ws, reps=reps), 1)
    return metrics


def merge_min(*runs: dict[str, float]) -> dict[str, float]:
    """Per-metric minimum across independent collection passes."""
    merged: dict[str, float] = {}
    for metrics in runs:
        for key, value in metrics.items():
            best = merged.get(key)
            if best is None or value < best:
                merged[key] = value
    return merged


def write_report(metrics: dict[str, float], path: Path = BENCH_FILE) -> dict:
    report = {
        "workload": {
            "seed": SEED,
            "windows": WINDOWS,
            "window_size": SIZE,
            "reps": REPS,
            "runs": RUNS,
            "machines": M,
            "batch": BATCH,
            "cpu_count": os.cpu_count(),
            "unit": "ns per document, min over reps x runs",
        },
        "seed_baseline": SEED_BASELINE,
        "metrics": metrics,
        "speedup_vs_seed": {
            key: round(SEED_BASELINE[key] / metrics[key], 2)
            for key in SEED_BASELINE
            if metrics.get(key)
        },
        "notes": {
            "seed_baseline": (
                "constants frozen on the machine that measured the seed; "
                "a uniformly slower/faster host shifts every "
                "speedup_vs_seed entry by the same factor"
            ),
            "insert_gate": (
                "NLJ add() appends raw (the seed's exact insert cost) and "
                "the next probe bulk-encodes"
            ),
            "one_path": (
                "every joiner has one storage path: the plain_* and "
                "batch_* rows and the speedup_vs_plain ratios were "
                "removed on purpose with the code they measured"
            ),
        },
    }
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


# ---------------------------------------------------------------------------
# Pytest smoke tests (scaled-down workload; the full run is `main`)
# ---------------------------------------------------------------------------


def test_metrics_cover_all_hot_paths():
    metrics = collect_metrics(size=40, windows=2, reps=1)
    for dataset in DATASETS:
        for key in ("route_ns", "ship_ns"):
            assert metrics[f"{dataset}.{key}"] > 0.0, key
        for name in JOINERS:
            for op in ("probe_ns", "insert_ns"):
                key = f"{dataset}.{name}.{op}"
                assert metrics[key] > 0.0, key
    assert not [key for key in metrics if ".plain_" in key or ".batch_" in key]


def test_ship_path_roundtrips_identically():
    """The timed wire path decodes back to the original documents."""
    ws = windows_for("rwData", size=40, windows=1)
    entries = _assigned_entries(ws)[0]
    codec = ColumnarWireCodec()
    frame = codec.encode_batch(1, entries)
    decoder = FrameDecoder()
    (received,) = decoder.feed(b"".join(bytes(part) for part in frame.parts()))
    seq, decoded = codec.decode_batch(received)
    assert seq == 1
    assert len(decoded) == len(entries)
    for (_, _, tup), entry in zip(entries, decoded):
        document, window_id, side = entry[6]
        assert document.pairs == tup.values[0].pairs
        assert document.doc_id == tup.values[0].doc_id
        assert (window_id, side) == (tup.values[1], tup.values[2])


def main() -> int:
    runs = []
    for i in range(RUNS):
        runs.append(collect_metrics())
        print(f"pass {i + 1}/{RUNS} done", file=sys.stderr)
    report = write_report(merge_min(*runs))
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
