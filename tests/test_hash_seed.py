"""Hash-seed guards: outputs must not depend on ``PYTHONHASHSEED``.

``hash()`` of a string is salted per interpreter, so iterating a set of
AV-pairs visits them in a different order under every seed.  Each test
runs the same computation in two fresh interpreters under different
seeds and compares what they print.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

MINE = """
from repro.data.nobench import NoBenchGenerator
from repro.data.serverlogs import ServerLogGenerator
from repro.partitioning.association import AssociationGroupPartitioner

for generator in (ServerLogGenerator, NoBenchGenerator):
    sample = generator(seed=7).next_window(2000)
    for n_creators in (2, 3):
        result = AssociationGroupPartitioner(n_creators).create_partitions(
            sample, 8
        )
        print(result.group_count, [
            sorted(pair.sort_key() for pair in part.pairs)
            for part in result.partitions
        ])
"""

TOPOLOGY = """
from repro.data.serverlogs import ServerLogGenerator
from repro.topology.pipeline import StreamJoinConfig, run_stream_join

windows = list(ServerLogGenerator(seed=7).windows(6, 300))
result = run_stream_join(StreamJoinConfig(m=8, algorithm="AG"), windows)
print(result.repartition_windows)
for metrics in result.per_window:
    print(metrics)
"""


def _run_under(hash_seed: int, code: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout


def _first_difference(first: str, second: str):
    """The first line on which two outputs differ, or None (a compact
    failure report: diffing whole partitionings stalls pytest)."""
    pairs = zip(first.splitlines(), second.splitlines())
    for number, (a, b) in enumerate(pairs):
        if a != b:
            return number, a[:200], b[:200]
    return None


def test_partition_mining_is_independent_of_the_hash_seed():
    """Merger-side consolidation (``n_creators`` > 1) on both streams."""
    first = _run_under(0, MINE)
    assert first.count("\n") == 4
    assert _first_difference(first, _run_under(1, MINE)) is None


def test_topology_run_is_independent_of_the_hash_seed():
    """Per-window metrics and repartition points of a local AG run."""
    first = _run_under(0, TOPOLOGY)
    assert first.count("\n") == 7
    assert _first_difference(first, _run_under(1, TOPOLOGY)) is None
