"""Property-style equivalence over the adversarial workload zoo.

Two layers of randomized equivalence, both driven by seeded zoo
workloads (:mod:`repro.data.zoo`) so every failure reproduces exactly:

* tier-1: every local joiner (FPJ / NLJ / HBJ) produces the brute-force
  join-pair set on every zoo workload across several seeds — heavy
  skew, schema churn, reordering and flash crowds don't break join
  semantics;
* backend matrix (``parallel`` / ``distributed`` markers): the full
  topology produces byte-identical per-window metrics and pair sets on
  local vs parallel+pipe vs parallel+socket, extending the
  seed-dataset matrix of ``test_backend_equivalence.py`` to the zoo.
"""

import pytest

from repro.data.zoo import ZOO_WORKLOADS, make_zoo_generator
from repro.join.base import brute_force_pairs, join_window
from repro.join.fptree_join import FPTreeJoiner
from repro.join.hash_join import HashJoiner
from repro.join.nested_loop import NestedLoopJoiner
from repro.topology.pipeline import StreamJoinConfig, run_stream_join

JOINERS = {
    "FPJ": FPTreeJoiner,
    "NLJ": NestedLoopJoiner,
    "HBJ": HashJoiner,
}

#: the backend matrix, mirroring test_backend_equivalence.py: socket
#: legs need TCP worker subprocesses and run under make test-distributed
MATRIX = [
    pytest.param("parallel", "pipe", id="parallel-pipe"),
    pytest.param(
        "parallel", "socket", id="parallel-socket", marks=pytest.mark.distributed
    ),
]


def _zoo_windows(workload: str, seed: int, n_windows: int = 3, size: int = 60):
    generator = make_zoo_generator(workload, seed=seed)
    return [generator.next_window(size) for _ in range(n_windows)]


@pytest.mark.parametrize("workload", ZOO_WORKLOADS)
@pytest.mark.parametrize("joiner_name", sorted(JOINERS))
@pytest.mark.parametrize("seed", [1, 17, 202])
def test_joiners_match_brute_force_on_zoo_workloads(workload, joiner_name, seed):
    for window in _zoo_windows(workload, seed, n_windows=2, size=50):
        joiner = JOINERS[joiner_name]()
        assert frozenset(join_window(joiner, window)) == brute_force_pairs(window)


@pytest.mark.parametrize("workload", ZOO_WORKLOADS)
@pytest.mark.parametrize("seed", [5, 71])
def test_joiners_agree_pairwise_on_zoo_workloads(workload, seed):
    """All three joiners produce one identical pair set per window."""
    for window in _zoo_windows(workload, seed, n_windows=2, size=50):
        results = {
            name: frozenset(join_window(cls(), window))
            for name, cls in JOINERS.items()
        }
        assert results["FPJ"] == results["NLJ"] == results["HBJ"]


def _run(workload: str, seed: int, backend: str, transport: str = "pipe"):
    config = StreamJoinConfig(
        m=4,
        algorithm="AG",
        n_creators=2,
        n_assigners=3,
        compute_joins=True,
        collect_pairs=True,
        backend=backend,
        transport=transport,
        workers=2 if backend == "parallel" else None,
    )
    return run_stream_join(config, _zoo_windows(workload, seed))


def _comparable_stats(result, expect_transport):
    stats = dict(result.tuple_stats)
    assert stats.pop("transport") == expect_transport
    assert stats.pop("reconnects") == 0
    # load-signal gauges legitimately differ between an inline run
    # (always zero) and a worker-pool run
    stats.pop("inflight_high_water")
    return stats


@pytest.mark.parallel
@pytest.mark.parametrize("backend,transport", MATRIX)
@pytest.mark.parametrize("workload", ZOO_WORKLOADS)
def test_backends_byte_identical_on_zoo_workloads(workload, backend, transport):
    seed = 37
    local = _run(workload, seed, "local")
    other = _run(workload, seed, backend, transport)
    assert other.per_window == local.per_window
    assert other.join_pairs == local.join_pairs
    assert other.repartition_windows == local.repartition_windows
    assert _comparable_stats(other, transport) == _comparable_stats(local, None)
