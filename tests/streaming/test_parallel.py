"""Tests for the process-parallel execution backend.

The small smoke case runs in tier-1; the heavier cases carry the
``parallel`` marker and run via ``make test-parallel`` (or
``pytest -m parallel``).
"""

import os

import pytest

from repro.exceptions import TopologyError, TupleProcessingError
from repro.faults import FaultPlan
from repro.obs.registry import MetricsRegistry
from repro.streaming.component import Bolt, Spout
from repro.streaming.executor import LocalCluster
from repro.streaming.grouping import AllGrouping, FieldsGrouping, GlobalGrouping
from repro.streaming.parallel import ParallelCluster
from repro.streaming.topology import TopologyBuilder


class NumberSpout(Spout):
    def __init__(self, n: int):
        self.n, self._i = n, 0

    def next_tuple(self, collector) -> bool:
        if self._i >= self.n:
            return False
        collector.emit("numbers", (self._i,))
        self._i += 1
        return self._i < self.n


class SquareBolt(Bolt):
    """The remote worker: squares numbers, with optional instrumentation."""

    def prepare(self, context) -> None:
        self._counter = context.metrics.counter(
            "square.seen", task=str(context.task_index)
        )

    def process(self, tup, collector) -> None:
        self._counter.inc()
        collector.emit("squares", (tup.values[0] ** 2,))


class CollectBolt(Bolt):
    """The local sink: accumulates everything it receives."""

    def __init__(self):
        self.values: list[int] = []

    def process(self, tup, collector) -> None:
        self.values.append(tup.values[0])


class ExplodingBolt(Bolt):
    def process(self, tup, collector) -> None:
        raise ValueError(f"cannot process {tup.values[0]}")


class DyingBolt(Bolt):
    """Kills its whole process — simulates a worker crash, not a bug."""

    def process(self, tup, collector) -> None:
        if tup.values[0] == 3:
            os._exit(17)


class UnpicklableError(Exception):
    """Carries state the pickle module refuses to serialize."""

    def __init__(self):
        super().__init__("boom")
        self.payload = lambda: None  # lambdas do not pickle


class UnpicklableBolt(Bolt):
    def process(self, tup, collector) -> None:
        raise UnpicklableError()


def _square_topology(n: int, collector: CollectBolt, worker_cls=SquareBolt):
    builder = TopologyBuilder()
    builder.set_spout("src", lambda: NumberSpout(n))
    builder.set_bolt("square", worker_cls, parallelism=2).subscribe(
        "src", "numbers", FieldsGrouping(key=0)
    )
    builder.set_bolt("collect", lambda: collector).subscribe(
        "square", "squares", GlobalGrouping()
    )
    return builder.build()


class TestParallelSmoke:
    """Tier-1 smoke: the backend works and matches the local executor."""

    def test_results_and_stats_match_local(self):
        n = 20
        local_sink = CollectBolt()
        local = LocalCluster(_square_topology(n, local_sink))
        local.run()

        par_sink = CollectBolt()
        with ParallelCluster(
            _square_topology(n, par_sink),
            remote_components=("square",),
            workers=2,
            batch_size=4,
        ) as cluster:
            cluster.run()
            assert sorted(par_sink.values) == sorted(local_sink.values)
            par_stats = cluster.stats()
            local_stats = local.stats()
            # unified schema: same keys on every backend, only the
            # transport name itself legitimately differs
            assert set(par_stats) == set(local_stats)
            assert par_stats.pop("transport") == "pipe"
            assert local_stats.pop("transport") is None
            # load-signal gauges legitimately differ (the local backend
            # never ships batches, so its peaks stay zero)
            assert par_stats.pop("inflight_high_water") > 0
            local_stats.pop("inflight_high_water")
            # every barrier drained: nothing is left journaled for replay
            assert not any(handle.journal for handle in cluster._workers)
            assert par_stats == local_stats
            assert par_stats["reconnects"] == 0

    def test_remote_tasks_are_not_inspectable(self):
        cluster = ParallelCluster(
            _square_topology(3, CollectBolt()), remote_components=("square",)
        )
        with pytest.raises(TopologyError):
            cluster.tasks("square")
        cluster.close()


@pytest.mark.parallel
class TestParallelBackend:
    def test_barrier_stream_flushes_batches(self):
        # with a huge batch size, only the barrier forces the partial
        # batch out
        sink = CollectBolt()
        with ParallelCluster(
            _square_topology(10, sink),
            remote_components=("square",),
            barrier_streams=("numbers",),
            workers=2,
            batch_size=10_000,
        ) as cluster:
            cluster.run()
        assert sorted(sink.values) == [i**2 for i in range(10)]

    def test_pipeline_depths_agree(self):
        """``pipeline_depth=0`` (the synchronous pre-pipelining plane)
        and overlapped depths must produce identical results — the
        barrier release order is seq-deterministic either way."""
        results = {}
        for depth in (0, 1, 2):
            sink = CollectBolt()
            with ParallelCluster(
                _square_topology(40, sink),
                remote_components=("square",),
                barrier_streams=("numbers",),
                workers=2,
                batch_size=4,
                pipeline_depth=depth,
            ) as cluster:
                cluster.run()
            results[depth] = list(sink.values)
        assert results[0] == results[1] == results[2]

    def test_worker_snapshots_merge_into_parent(self):
        registry = MetricsRegistry()
        with ParallelCluster(
            _square_topology(12, CollectBolt()),
            remote_components=("square",),
            workers=2,
            registry=registry,
        ) as cluster:
            cluster.run()
            snapshot = cluster.snapshot()
        seen = sum(
            value
            for name, value in snapshot.counters.items()
            if name.startswith("square.seen")
        )
        assert seen == 12  # worker-side instruments survive the merge
        assert snapshot.counters["executor.processed{component=square}"] == 12
        hist = snapshot.histograms["executor.execute_seconds{component=square}"]
        assert hist["count"] == 12

    def test_spout_cannot_run_remotely(self):
        with pytest.raises(TopologyError):
            ParallelCluster(
                _square_topology(3, CollectBolt()), remote_components=("src",)
            )

    def test_retry_exhaustion_surfaces_from_worker(self):
        cluster = ParallelCluster(
            _square_topology(5, CollectBolt(), worker_cls=ExplodingBolt),
            remote_components=("square",),
            max_retries=2,
        )
        try:
            with pytest.raises(TupleProcessingError) as excinfo:
                cluster.run()
            assert excinfo.value.component == "square"
            assert excinfo.value.retries == 2
        finally:
            cluster.close()

    def test_worker_crash_raises_instead_of_hanging(self):
        cluster = ParallelCluster(
            _square_topology(8, CollectBolt(), worker_cls=DyingBolt),
            remote_components=("square",),
            workers=2,
            batch_size=1,
        )
        try:
            with pytest.raises(TupleProcessingError) as excinfo:
                cluster.run()
            assert excinfo.value.component == "square"
            assert "died" in str(excinfo.value.__cause__ or excinfo.value)
        finally:
            cluster.close()

    def test_forked_worker_holds_no_parent_end_of_another_link(self):
        """A forked worker closes the parent's ends it inherited: worker
        1 must not hold the parent's socket to worker 0, or worker 0
        would not see EOF once the parent closes that end."""
        with ParallelCluster(
            _square_topology(20, CollectBolt()),
            remote_components=("square",),
            workers=2,
            batch_size=4,
        ) as cluster:
            cluster.run()  # worker 1 served batches: its closes are done
            first, second = (handle.link for handle in cluster._workers)
            parent_end = os.readlink(f"/proc/self/fd/{first._sock.fileno()}")
            fd_dir = f"/proc/{second._process.pid}/fd"
            held = set()
            for entry in os.listdir(fd_dir):
                try:
                    held.add(os.readlink(f"{fd_dir}/{entry}"))
                except OSError:
                    continue
        assert parent_end.startswith("socket:[")
        assert any(target.startswith("socket:[") for target in held)
        assert parent_end not in held

    def test_broadcast_grouping_reaches_remote_tasks(self):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: NumberSpout(4))
        builder.set_bolt("square", SquareBolt, parallelism=3).subscribe(
            "src", "numbers", AllGrouping()
        )
        sink = CollectBolt()
        builder.set_bolt("collect", lambda: sink).subscribe(
            "square", "squares", GlobalGrouping()
        )
        with ParallelCluster(
            builder.build(), remote_components=("square",), workers=2
        ) as cluster:
            cluster.run()
        # every task saw every number
        assert sorted(sink.values) == sorted([i**2 for i in range(4)] * 3)


@pytest.mark.parallel
class TestFailureSurfacing:
    """Worker failures must arrive in the parent with full context and
    without leaking processes or pipes."""

    def test_error_carries_worker_and_batch_context(self):
        cluster = ParallelCluster(
            _square_topology(5, CollectBolt(), worker_cls=ExplodingBolt),
            remote_components=("square",),
            workers=2,
            batch_size=1,
        )
        try:
            with pytest.raises(TupleProcessingError) as excinfo:
                cluster.run()
            err = excinfo.value
            assert err.worker is not None
            assert err.batch_seq is not None
            assert f"worker {err.worker}" in str(err)
            assert f"batch seq {err.batch_seq}" in str(err)
        finally:
            cluster.close()

    def test_unpicklable_cause_preserves_worker_traceback(self):
        cluster = ParallelCluster(
            _square_topology(5, CollectBolt(), worker_cls=UnpicklableBolt),
            remote_components=("square",),
            workers=2,
        )
        try:
            with pytest.raises(TupleProcessingError) as excinfo:
                cluster.run()
            cause = excinfo.value.cause
            assert isinstance(cause, RuntimeError)
            text = str(cause)
            assert "unpicklable worker exception" in text
            assert "worker-side traceback" in text
            # the original raise site survives the process boundary
            assert "UnpicklableError" in text
            assert "in process" in text
        finally:
            cluster.close()

    def test_failed_run_leaves_no_live_workers(self):
        cluster = ParallelCluster(
            _square_topology(5, CollectBolt(), worker_cls=ExplodingBolt),
            remote_components=("square",),
            workers=2,
        )
        with pytest.raises(TupleProcessingError):
            cluster.run()
        # run() closed the cluster on the way out — nothing left running
        assert all(
            h.link is None or not h.link.alive() for h in cluster._workers
        )

    def test_barrier_timeout_raises_topology_error(self):
        cluster = ParallelCluster(
            _square_topology(4, CollectBolt()),
            remote_components=("square",),
            barrier_streams=("numbers",),
            workers=2,
            batch_size=1,
            barrier_timeout_s=0.2,
            fault_plan=FaultPlan().delay_acks(0, seconds=1.0),
        )
        # the error names the stuck phase, the worker owing acks and the
        # lowest batch it owes
        with pytest.raises(
            TopologyError, match=r"barrier wait timed out.*worker 0 .*seq \d+"
        ):
            cluster.run()
        cluster.close()

    def test_close_is_idempotent_after_worker_death(self):
        cluster = ParallelCluster(
            _square_topology(8, CollectBolt(), worker_cls=DyingBolt),
            remote_components=("square",),
            workers=2,
            batch_size=1,
        )
        with pytest.raises(TupleProcessingError):
            cluster.run()
        cluster.close()  # already closed by run(); must not raise
        cluster.close()
        assert all(
            h.link is None or not h.link.alive() for h in cluster._workers
        )
