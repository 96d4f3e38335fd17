"""Time the FP-tree Joiner's probe/insert loop, with and without the GC.

``make profile-joiner`` runs this: K co-located :class:`FPTreeJoiner`
instances (what the tasks of one executor or worker process kept before
they shared an index, and what ``bench/replay.py`` still times) receive
every document of a tumbling window *as the same object*, probe then
insert, and reset at the window boundary — once with the cyclic
collector on and once with it off, on rwData (server logs) and nbData
(NoBench).  The two gc rows differ by what the collector costs the
insert path; ``--isolated`` gives every joiner a private dictionary,
which is what a document costs when nothing is shared.

``--mode`` picks the Joiner mode both sides run: ``tumbling`` (the
above), ``sliding`` (K private ``SlidingFPTreeJoiner``s against one
index with an ``extent``, both one window's documents long and neither
reset at window boundaries, so every owner expires its oldest documents) or ``binary`` (each window's halves
are the R and S streams, interleaved: K private ``BinaryStreamJoiner``s
against one index per side, an arrival probing the other side's).

Reported per (dataset, gc mode): µs per probe and per insert
(``perf_counter`` around each call; every window keeps its fastest of
``--repeats`` passes, so a burst of host noise costs one window of one
pass, not the row), new tree nodes per inserted document (sliding:
the nodes alive at each window's end, per document), and the
gen-0/1/2 collections the loop triggered.  Beside each row, the
**shared** columns time what the Joiner tasks run today — one
:class:`SharedWindowIndex` that the same K owners arrive at one by one — as µs
per assignment (one document at one owner, timed per window), next to
the K joiners' µs per assignment (probe + insert, which carries its
per-call timer reads, about 0.1 µs).  Join perf PRs should start from
this output.

Usage::

    PYTHONPATH=src python scripts/profile_joiner.py [--data rw|nb|both]
        [--mode tumbling|sliding|binary] [--joiners K] [--windows N]
        [--repeats R] [--isolated] [--seed S]
"""

from __future__ import annotations

import argparse
import gc
from time import perf_counter

from repro.core.interning import PairInterner
from repro.data.nobench import NoBenchGenerator
from repro.data.serverlogs import ServerLogGenerator
from repro.join.binary import LEFT, RIGHT, BinaryStreamJoiner, interleave
from repro.join.fptree import FPTree
from repro.join.fptree_join import FPTreeJoiner
from repro.join.ordering import AttributeOrder
from repro.join.shared_index import SharedWindowIndex
from repro.join.sliding import SlidingFPTreeJoiner

#: dataset -> (generator, window size, co-located joiners): the window
#: sizes and per-process replication of the repo benchmark's workloads
DATASETS = {
    "rw": (ServerLogGenerator, 500, 6),
    "nb": (NoBenchGenerator, 250, 4),
}


def private_joiner(mode: str, order, interner, extent: int):
    """One task's joiner as it was before co-located tasks shared an index."""
    if mode == "binary":
        return BinaryStreamJoiner(lambda: FPTreeJoiner(order, interner=interner))
    if mode == "sliding":
        joiner = SlidingFPTreeJoiner(extent, order)
        joiner.tree = FPTree(order, interner)  # the dictionary the others get
        return joiner
    return FPTreeJoiner(order, interner=interner)


def trees(joiner) -> list:
    if isinstance(joiner, BinaryStreamJoiner):
        return [store.tree for store in joiner._stores.values()]
    return [joiner.tree]


def shared_indexes(mode: str, order, interner, extent: int) -> dict:
    """side -> (index stored into, index probed), as a JoinerGroup has them."""
    if mode == "binary":
        left, right = (SharedWindowIndex(order, interner=interner) for _ in range(2))
        return {LEFT: (left, right), RIGHT: (right, left)}
    extent = extent if mode == "sliding" else None
    index = SharedWindowIndex(order, interner=interner, extent=extent)
    return {None: (index, index)}


def run_once(
    data: str, seed: int, n_windows: int, k: int, isolated: bool,
    mode: str = "tumbling",
) -> dict:
    """One pass over fresh windows; returns times, node and gc counts."""
    generator_cls, window_docs, _ = DATASETS[data]
    generator = generator_cls(seed=seed)
    windows = [generator.next_window(window_docs) for _ in range(n_windows + 1)]
    order = AttributeOrder.from_documents(windows[0])
    half = window_docs // 2
    arrivals = [
        interleave(window[:half], window[half:]) if mode == "binary"
        else [(document, None) for document in window]
        for window in windows[1:]
    ]
    tumbles = mode != "sliding"
    shared = None if isolated else PairInterner()
    joiners = [private_joiner(mode, order, shared, window_docs) for _ in range(k)]
    # the generated input is the harness's, keep the collector off it
    gc.collect()
    gc.freeze()
    before = [generation["collections"] for generation in gc.get_stats()]
    probe_windows, insert_windows = [], []
    nodes = 0
    for window in arrivals:
        probe_s = insert_s = 0.0
        for document, side in window:
            args = () if side is None else (side,)
            for joiner in joiners:
                start = perf_counter()
                joiner.probe(document, *args)
                middle = perf_counter()
                joiner.add(document, *args)
                insert_s += perf_counter() - middle
                probe_s += middle - start
        probe_windows.append(probe_s)
        insert_windows.append(insert_s)
        for joiner in joiners:
            nodes += sum(tree.node_count for tree in trees(joiner))
            if tumbles:
                joiner.reset()
    after = [generation["collections"] for generation in gc.get_stats()]
    sides = shared_indexes(mode, order, shared, window_docs)
    owners = range(k)
    shared_windows = []
    for window in arrivals:
        start = perf_counter()
        for document, side in window:
            store, probe = sides[side]
            for owner in owners:
                store.arrive_many(document, 1 << owner, probe)
        shared_windows.append(perf_counter() - start)
        if tumbles:
            for store, _ in sides.values():
                store.reset()
    gc.unfreeze()
    return {
        "probe_s": probe_windows,
        "insert_s": insert_windows,
        "shared_s": shared_windows,
        "nodes_per_doc": nodes / (n_windows * window_docs * k),
        "collections": [b - a for a, b in zip(before, after)],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--data", default="both", choices=("rw", "nb", "both"))
    parser.add_argument("--mode", default="tumbling",
                        choices=("tumbling", "sliding", "binary"))
    parser.add_argument("--joiners", type=int, help="default: 6 (rw) / 4 (nb)")
    parser.add_argument("--windows", type=int, default=12)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--isolated", action="store_true",
                        help="one private dictionary per joiner (no sharing)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"mode {args.mode}")
    print(f"{'data':<5}{'gc':<5}{'K':>3}{'probe us':>10}{'insert us':>11}"
          f"{'nodes/doc':>11}{'us/assignment: K joiners':>26}{'shared index':>14}"
          "  gen0/1/2 collections")
    for data in ("rw", "nb") if args.data == "both" else (args.data,):
        k = args.joiners or DATASETS[data][2]
        for gc_on in (True, False):
            (gc.enable if gc_on else gc.disable)()
            try:
                runs = [
                    run_once(data, args.seed, args.windows, k, args.isolated,
                             args.mode)
                    for _ in range(args.repeats)
                ]
            finally:
                gc.enable()
            calls = args.windows * DATASETS[data][1] * k
            probe_us, insert_us, shared_us = (
                sum(map(min, zip(*(run[key] for run in runs)))) / calls * 1e6
                for key in ("probe_s", "insert_s", "shared_s")
            )
            print(
                f"{data:<5}{'on' if gc_on else 'off':<5}{k:>3}"
                f"{probe_us:>10.2f}{insert_us:>11.2f}"
                f"{runs[-1]['nodes_per_doc']:>11.2f}"
                f"{probe_us + insert_us:>26.2f}{shared_us:>14.2f}  "
                + "/".join(str(c) for c in runs[-1]["collections"])
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
