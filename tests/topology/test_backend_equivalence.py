"""The parallel backend must reproduce the local backend exactly.

The determinism contract (docs/architecture.md, "Execution backends"):
for any configuration, every backend/transport combination produces
byte-identical per-window metrics, join-pair sets and tuple accounting.
These tests pin that contract across partitioners, datasets and the
full backend matrix — (local, parallel+pipe, parallel+socket) × the
three seeded datasets.

All cases here fork real worker processes and run full topologies, so
they carry the ``parallel`` marker; the socket legs of the matrix
additionally carry ``distributed`` and run via ``make test-distributed``.
Tier-1 coverage of the backend lives in
``tests/streaming/test_parallel.py`` and
``tests/streaming/test_transport.py``.
"""

import pytest

from repro.experiments.config import make_generator
from repro.topology.pipeline import StreamJoinConfig, run_stream_join

pytestmark = pytest.mark.parallel

#: the backend matrix; socket legs are deselected from ``make
#: test-parallel`` (they need TCP worker subprocesses) and run under
#: ``make test-distributed`` instead
MATRIX = [
    pytest.param("local", "pipe", id="local"),
    pytest.param("parallel", "pipe", id="parallel-pipe"),
    pytest.param(
        "parallel", "socket", id="parallel-socket", marks=pytest.mark.distributed
    ),
]


def _windows(dataset: str, n_windows: int = 3, size: int = 120):
    generator = make_generator(dataset, seed=23, window_size=size)
    return [generator.next_window(size) for _ in range(n_windows)]


def _run(dataset: str, algorithm: str, backend: str, transport: str = "pipe", **overrides):
    config = StreamJoinConfig(
        m=4,
        algorithm=algorithm,
        n_creators=2,
        n_assigners=3,
        compute_joins=True,
        collect_pairs=True,
        backend=backend,
        transport=transport,
        workers=2 if backend == "parallel" else None,
        **overrides,
    )
    return run_stream_join(config, _windows(dataset))


def _comparable_stats(result, expect_transport):
    """Tuple accounting minus the keys that name the transport itself."""
    stats = dict(result.tuple_stats)
    assert stats.pop("transport") == expect_transport
    assert stats.pop("reconnects") == 0  # clean runs never reconnect
    # load-signal gauges legitimately differ between an inline run
    # (always zero) and a worker-pool run
    stats.pop("inflight_high_water")
    return stats


@pytest.mark.parametrize("algorithm", ["AG", "HASH"])
@pytest.mark.parametrize("dataset", ["rwData", "nbData"])
class TestBackendEquivalence:
    def test_results_are_byte_identical(self, dataset, algorithm):
        local = _run(dataset, algorithm, "local")
        par = _run(dataset, algorithm, "parallel")
        assert par.per_window == local.per_window
        assert par.join_pairs == local.join_pairs
        assert par.repartition_windows == local.repartition_windows
        assert _comparable_stats(par, "pipe") == _comparable_stats(local, None)

    def test_summary_metrics_are_identical(self, dataset, algorithm):
        local = _run(dataset, algorithm, "local").summary()
        par = _run(dataset, algorithm, "parallel").summary()
        assert par.replication == local.replication
        assert par.gini == local.gini
        assert par.max_load == local.max_load
        assert par.repartition_rate == local.repartition_rate
        assert par.join_pairs == local.join_pairs


@pytest.mark.parametrize("dataset", ["rwData", "nbData", "idealData"])
@pytest.mark.parametrize("backend,transport", MATRIX)
class TestTransportMatrix:
    """Every cell of the backend matrix against the local reference."""

    def test_matches_local_reference(self, dataset, backend, transport):
        local = _run(dataset, "AG", "local")
        run = _run(dataset, "AG", backend, transport=transport)
        assert run.per_window == local.per_window
        assert run.join_pairs == local.join_pairs
        assert run.repartition_windows == local.repartition_windows
        expected = transport if backend == "parallel" else None
        assert _comparable_stats(run, expected) == _comparable_stats(local, None)


def test_observability_counters_match_local():
    local = _run("rwData", "AG", "local", observability=True)
    par = _run("rwData", "AG", "parallel", observability=True)
    assert par.observability is not None and local.observability is not None
    # spans and latency histograms carry wall-clock values and legitimately
    # differ; the discrete series (counters) must agree exactly
    assert par.observability.counters == local.observability.counters
    assert set(par.observability.histograms) == set(local.observability.histograms)


def test_session_supports_parallel_backend():
    from repro.topology.session import StreamJoinSession

    windows = _windows("rwData", n_windows=2)
    results = {}
    for backend in ("local", "parallel"):
        session = StreamJoinSession(
            StreamJoinConfig(
                m=4,
                n_assigners=3,
                compute_joins=True,
                collect_pairs=True,
                backend=backend,
                workers=2 if backend == "parallel" else None,
            )
        )
        for window in windows:
            session.push_window(window)
        results[backend] = session.result()
    assert results["parallel"].per_window == results["local"].per_window
    assert results["parallel"].join_pairs == results["local"].join_pairs
    assert _comparable_stats(results["parallel"], "pipe") == _comparable_stats(
        results["local"], None
    )


@pytest.mark.parametrize("dataset", ["rwData", "nbData", "idealData"])
@pytest.mark.parametrize("backend,transport", MATRIX)
def test_every_task_matches_its_isolated_joiner(dataset, backend, transport):
    """Worker-granular fan-out, per task: whatever executor a task's
    documents reached it in — one entry per (document, executor), one
    ``arrive_many`` — its window report (documents, join pairs, pair
    set) is what a private joiner fed one delivery per task produces."""
    from tests.topology.per_task import run_per_task

    def config(backend, transport="pipe"):
        return StreamJoinConfig(
            m=4, n_creators=2, n_assigners=3,
            compute_joins=True, collect_pairs=True,
            backend=backend, transport=transport,
            workers=2 if backend == "parallel" else None,
        )

    windows = _windows(dataset)
    shared, stats = run_per_task(config(backend, transport), windows, isolated=False)
    isolated, isolated_stats = run_per_task(config("local"), windows, isolated=True)
    assert len(shared) == 3 * 4
    assert shared == isolated
    assert stats["joiner"] == isolated_stats["joiner"]  # per assignment


@pytest.mark.parametrize("mode", ["sliding", "binary"])
@pytest.mark.parametrize("dataset", ["rwData", "nbData", "idealData"])
@pytest.mark.parametrize("backend,transport", MATRIX)
def test_every_task_matches_its_isolated_joiner_in_every_mode(
    dataset, mode, backend, transport
):
    """The sliding and two-stream Joiners on the executor's shared
    indexes, per task, on every backend: each task's window reports
    equal a private per-task joiner's on the local backend."""
    from tests.topology.per_task import MODES, mode_windows, run_per_task

    def config(backend, transport="pipe"):
        return StreamJoinConfig(
            m=4, n_creators=2, n_assigners=3,
            compute_joins=True, collect_pairs=True,
            backend=backend, transport=transport,
            workers=2 if backend == "parallel" else None,
            **MODES[mode],
        )

    windows = mode_windows(dataset, mode)
    shared, stats = run_per_task(config(backend, transport), windows, isolated=False)
    isolated, isolated_stats = run_per_task(config("local"), windows, isolated=True)
    assert len(shared) == 3 * 4
    assert shared == isolated
    assert stats["joiner"] == isolated_stats["joiner"]


def test_joiner_dispatches_are_per_executor_while_counters_stay_per_assignment():
    """``executor.processed{joiner}`` counts assignments on every
    backend; the *observations* of ``executor.execute_seconds{joiner}``
    are the physical dispatches: one per (document, executor reached)."""
    documents = 3 * 120
    dispatches = {}
    for backend in ("local", "parallel"):
        snap = _run("rwData", "AG", backend, observability=True).observability
        assignments = snap.counters["assigner.assignments"]
        processed = snap.counters["executor.processed{component=joiner}"]
        control = processed - assignments  # partitions + window-done markers
        assert assignments > 2 * documents and control > 0
        dispatches[backend] = (
            snap.histograms["executor.execute_seconds{component=joiner}"]["count"]
            - control
        )
    assert dispatches["local"] == documents  # one executor
    assert documents <= dispatches["parallel"] <= 2 * documents  # two workers


@pytest.mark.parametrize("backend", ["local", "parallel"])
def test_empty_window_yields_an_empty_record(backend):
    """The batch runner pushes an empty window through like any other:
    the sink finalizes a zero-document record for it."""
    w0, w2 = _windows("rwData", n_windows=2)
    result = run_stream_join(
        StreamJoinConfig(
            m=4, n_assigners=3, compute_joins=True, collect_pairs=True,
            backend=backend, workers=2 if backend == "parallel" else None,
        ),
        [w0, [], w2],
    )
    empty = result.per_window[1]
    assert (empty.window, empty.documents, empty.replication) == (1, 0, 0.0)
    assert [w.documents for w in result.per_window] == [120, 0, 120]
