"""Seeded elasticity chaos suite: scaling must not change results.

Every case drives the elastic worker pool — forced scale-ups and
scale-downs, task moves, destination-worker kills during a move —
through the ``ElasticPolicy.force`` schedule so the
*timing* of every action is exact, then asserts the run's output
against a clean reference.  All cases fork worker processes and carry
the ``elastic`` marker; run them via ``make test-elastic`` (or
``pytest -m elastic``).
"""

from dataclasses import replace

import pytest

from repro.data.serverlogs import ServerLogGenerator
from repro.data.zoo import ZipfSkewGenerator
from repro.faults import FaultPlan
from repro.streaming.component import Bolt, Spout
from repro.streaming.elastic import ElasticPolicy
from repro.streaming.executor import LocalCluster
from repro.streaming.grouping import AllGrouping, FieldsGrouping, GlobalGrouping
from repro.streaming.parallel import DEFAULT_PIPELINE_DEPTH, ParallelCluster
from repro.streaming.recovery import RestartPolicy
from repro.streaming.topology import TopologyBuilder
from repro.topology.pipeline import StreamJoinConfig, run_stream_join

pytestmark = pytest.mark.elastic

FAST_RESTART = RestartPolicy(
    max_restarts_per_window=3, backoff_base_s=0.0, jitter=0.0
)


# ----------------------------------------------------------------------
# Synthetic topology: numbers -> squares across four migratable tasks
# ----------------------------------------------------------------------
class TickingNumberSpout(Spout):
    """Emits 0..n-1 with a barrier tick every ``period`` numbers."""

    def __init__(self, n: int, period: int = 10):
        self.n, self.period, self._i = n, period, 0

    def next_tuple(self, collector) -> bool:
        if self._i >= self.n:
            return False
        collector.emit("numbers", (self._i,))
        self._i += 1
        if self._i % self.period == 0:
            collector.emit("tick", (self._i,))
        return self._i < self.n


class SquareBolt(Bolt):
    def process(self, tup, collector) -> None:
        if tup.stream == "numbers":
            collector.emit("squares", (tup.values[0] ** 2,))


class CollectBolt(Bolt):
    def __init__(self):
        self.values: list[int] = []

    def process(self, tup, collector) -> None:
        self.values.append(tup.values[0])


def _square_topology(collector: CollectBolt, n: int = 50):
    builder = TopologyBuilder()
    builder.set_spout("src", lambda: TickingNumberSpout(n))
    square = builder.set_bolt("square", SquareBolt, parallelism=4)
    square.subscribe("src", "numbers", FieldsGrouping(key=0))
    square.subscribe("src", "tick", AllGrouping())
    builder.set_bolt("collect", lambda: collector).subscribe(
        "square", "squares", GlobalGrouping()
    )
    return builder.build()


def _clean_reference(n: int = 50) -> list[int]:
    collector = CollectBolt()
    with LocalCluster(_square_topology(collector, n)) as cluster:
        cluster.run()
    return sorted(collector.values)


def _parallel(collector: CollectBolt, n: int = 50, workers: int = 2, **kwargs):
    return ParallelCluster(
        _square_topology(collector, n),
        remote_components=("square",),
        barrier_streams=("tick",),
        workers=workers,
        batch_size=4,
        **kwargs,
    )


class TestSyntheticElasticity:
    def test_forced_scale_up_migrates_and_matches(self):
        """One forced scale-up: the hottest task live-migrates onto a
        freshly spawned worker and the output is unchanged."""
        clean = _clean_reference()
        collector = CollectBolt()
        cluster = _parallel(
            collector,
            elastic=ElasticPolicy(max_workers=4, force=((0, "up"),)),
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["scale_ups"] == 1
        assert stats["migrations"] == 1
        assert cluster.worker_count == 3

    def test_scales_two_to_four_workers(self):
        """The acceptance shape: pool grows 2 -> 4 through two live
        migrations, byte-identical output throughout."""
        clean = _clean_reference()
        collector = CollectBolt()
        cluster = _parallel(
            collector,
            elastic=ElasticPolicy(max_workers=4, force=((0, "up"), (1, "up"))),
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["scale_ups"] == 2
        assert stats["migrations"] == 2
        assert cluster.worker_count == 4

    @pytest.mark.parametrize("last_window,scale_ups", [(4, 1), (5, 0)])
    def test_drain_completes_windows_like_the_pump(self, last_window, scale_ups):
        """Delayed acks keep the last windows' barriers open until the
        final drain, which completes them through the same path as the
        pump.  Each of the five windows consults the controller once, as
        it closes, so an action forced at window k fires iff the run has
        more than k windows.  No worker ever holds a whole window, so ``hot_share=1``
        leaves the forced action the only one."""
        clean = _clean_reference()
        collector = CollectBolt()
        cluster = _parallel(
            collector,
            elastic=ElasticPolicy(
                max_workers=4, hot_share=1.0, force=((last_window, "up"),)
            ),
            fault_plan=FaultPlan().delay_acks(0, 0.05).delay_acks(1, 0.05),
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["scale_ups"] == scale_ups
        assert cluster._barriers.completed == 5

    def test_forced_scale_down_retires_into_survivor(self):
        clean = _clean_reference()
        collector = CollectBolt()
        cluster = _parallel(
            collector,
            workers=3,
            elastic=ElasticPolicy(max_workers=4, force=((0, "down"),)),
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["scale_downs"] == 1
        # the controller sees each window's own documents, so what
        # follows is deterministic: window 2 puts 12 of 14 on the
        # survivor holding three tasks — an organic scale-up
        assert stats["scale_ups"] == 1
        assert stats["migrations"] == 2
        assert cluster.worker_count == 3

    def test_up_then_down_round_trip(self):
        clean = _clean_reference()
        collector = CollectBolt()
        cluster = _parallel(
            collector,
            elastic=ElasticPolicy(max_workers=4, force=((0, "up"), (2, "down"))),
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        # no organic action: windows 3 and 4 split 8:6 and 7:7
        assert stats["scale_ups"] == 1
        assert stats["scale_downs"] == 1
        assert stats["migrations"] == 2
        assert cluster.worker_count == 2

    def test_destination_killed_mid_migration_recovers(self):
        """The freshly spawned migration target dies after its first
        batch; the respawn path must rebuild its (merged) journal and
        keep the output byte-identical."""
        clean = _clean_reference()
        collector = CollectBolt()
        cluster = _parallel(
            collector,
            restart_policy=FAST_RESTART,
            elastic=ElasticPolicy(max_workers=4, force=((0, "up"),)),
            fault_plan=FaultPlan().kill_worker(2, after_batches=1),
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["scale_ups"] == 1
        assert stats["worker_restarts"] >= 1

    def test_source_killed_after_migration_recovers(self):
        clean = _clean_reference()
        collector = CollectBolt()
        cluster = _parallel(
            collector,
            restart_policy=FAST_RESTART,
            elastic=ElasticPolicy(max_workers=4, force=((0, "up"),)),
            fault_plan=FaultPlan().kill_worker(0, after_batches=3),
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["scale_ups"] == 1
        assert stats["worker_restarts"] >= 1

    def test_stats_expose_elastic_counters(self):
        collector = CollectBolt()
        cluster = _parallel(
            collector,
            elastic=ElasticPolicy(max_workers=4, force=((0, "up"),)),
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        for key in ("scale_ups", "scale_downs", "migrations"):
            assert key in stats
        assert stats["inflight_high_water"] > 0
        # every barrier drained: nothing is left journaled for replay
        assert not any(handle.journal for handle in cluster._workers)


# ----------------------------------------------------------------------
# End-to-end: the full topology under a viral-skew stream
# ----------------------------------------------------------------------
def _zipf_windows(n_windows: int = 4, size: int = 120):
    generator = ZipfSkewGenerator(seed=31)
    return [generator.next_window(size) for _ in range(n_windows)]


def _config(**overrides) -> StreamJoinConfig:
    return StreamJoinConfig(
        m=4,
        n_creators=2,
        n_assigners=3,
        compute_joins=True,
        collect_pairs=True,
        **overrides,
    )


class TestViralSkewTopology:
    @pytest.mark.parametrize("transport", ["pipe", "socket"])
    def test_elastic_run_matches_clean_local_run(self, transport):
        """The acceptance scenario on both transports: under the viral
        ramp the pool scales 2 -> 4 with live migrations, and per-window
        join results stay byte-identical to the fault-free local run."""
        windows = _zipf_windows()
        clean = run_stream_join(_config(), windows)
        elastic = run_stream_join(
            _config(
                backend="parallel",
                transport=transport,
                workers=2,
                elastic=ElasticPolicy(
                    max_workers=4, force=((0, "up"), (1, "up"))
                ),
            ),
            windows,
        )
        assert [w.join_pairs for w in elastic.per_window] == [
            w.join_pairs for w in clean.per_window
        ]
        assert elastic.join_pairs == clean.join_pairs
        assert elastic.tuple_stats["scale_ups"] == 2
        assert elastic.tuple_stats["migrations"] == 2

    def test_hot_worker_killed_mid_window_still_matches(self):
        """Kill the worker holding the viral partition mid-window while
        the controller migrates under it; recovery and migration compose
        without changing any per-window result."""
        windows = _zipf_windows()
        clean = run_stream_join(_config(), windows)
        faulted = run_stream_join(
            _config(
                backend="parallel",
                workers=2,
                restart_policy=FAST_RESTART,
                elastic=ElasticPolicy(max_workers=4, force=((0, "up"),)),
                fault_plan=FaultPlan().kill_worker(0, after_batches=2),
            ),
            windows,
        )
        assert [w.join_pairs for w in faulted.per_window] == [
            w.join_pairs for w in clean.per_window
        ]
        assert faulted.join_pairs == clean.join_pairs
        assert faulted.tuple_stats["worker_restarts"] >= 1
        assert faulted.tuple_stats["scale_ups"] == 1

    def test_organic_scale_up_under_viral_ramp(self):
        """No forced schedule: the controller must notice the viral
        partition organically once its share crosses ``hot_share``, and
        the run must still match the local reference."""
        windows = _zipf_windows(n_windows=5)
        clean = run_stream_join(_config(), windows)
        elastic = run_stream_join(
            _config(
                backend="parallel",
                workers=2,
                elastic=ElasticPolicy(max_workers=4, hot_share=0.5),
            ),
            windows,
        )
        assert [w.join_pairs for w in elastic.per_window] == [
            w.join_pairs for w in clean.per_window
        ]
        assert elastic.join_pairs == clean.join_pairs


@pytest.mark.parallel
class TestMigratedCounters:
    """Merged worker counters after task moves on forked workers.

    A move waits for the windows in flight to drain, so the destination
    receives only the moved tasks' sticky history and re-runs no batch
    the source already counted: ``joiner.probes`` and
    ``joiner.inserts`` equal the local run's at every pipeline depth —
    also when delayed acks keep later windows in flight as the decision
    fires."""

    @pytest.mark.parametrize(
        "depth,delayed",
        [(0, False), (DEFAULT_PIPELINE_DEPTH, False), (DEFAULT_PIPELINE_DEPTH, True)],
        ids=["depth0", "default_depth", "default_depth_delayed_acks"],
    )
    @pytest.mark.parametrize(
        "force", [((1, "up"),), ((1, "up"), (3, "down"))], ids=["up", "up_down"]
    )
    def test_joiner_counters_match_the_local_run(self, force, depth, delayed):
        generator = ServerLogGenerator(seed=5)
        windows = [generator.next_window(300) for _ in range(8)]
        config = StreamJoinConfig(m=8, compute_joins=True, observability=True)
        local = run_stream_join(config, windows)
        plan = FaultPlan().delay_acks(0, 0.02).delay_acks(1, 0.02) if delayed else None
        elastic = run_stream_join(
            replace(
                config,
                backend="parallel",
                transport="pipe",
                workers=2,
                pipeline_depth=depth,
                elastic=ElasticPolicy(max_workers=4, force=force),
                fault_plan=plan,
            ),
            windows,
        )
        assert elastic.per_window == local.per_window
        assert elastic.tuple_stats["migrations"] == len(force)
        for name in ("joiner.probes{algorithm=FPJ}", "joiner.inserts{algorithm=FPJ}"):
            assert elastic.observability.counters[name] == (
                local.observability.counters[name]
            ), name
