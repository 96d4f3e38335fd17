"""Metric monotonicity across window barriers in long-running sessions.

The long-running-session contract (``docs/soak.md``): a live
:meth:`StreamJoinSession.observability` snapshot may be taken between
any two windows, and across 100+ windows every counter and histogram
total is non-decreasing — window barriers flush batches, they never
reset metrics.  The parallel leg pins the regression where
``ParallelCluster.snapshot()`` memoized its first merged snapshot and
returned frozen values to every later call.
"""

from itertools import combinations

import pytest

from repro.data.serverlogs import ServerLogGenerator
from repro.data.zoo import ZipfSkewGenerator
from repro.faults import FaultPlan
from repro.soak.driver import check_monotonic
from repro.streaming.recovery import RestartPolicy
from repro.topology.pipeline import StreamJoinConfig, run_stream_join
from repro.topology.session import StreamJoinSession


def _drive_session(config, n_windows, window_size=12, sample_every=10):
    """Push ``n_windows`` windows, snapshotting every ``sample_every``."""
    generator = ZipfSkewGenerator(seed=3)
    session = StreamJoinSession(config)
    snapshots = [session.observability()]
    for index in range(n_windows):
        session.push_window(generator.next_window(window_size))
        if (index + 1) % sample_every == 0:
            snapshots.append(session.observability())
            session.compact(retain_windows=16)
    snapshots.append(session.observability())
    session.result()
    return snapshots


def _assert_monotonic(snapshots):
    for previous, current in zip(snapshots, snapshots[1:]):
        assert check_monotonic(previous, current) == []


class TestLocalSessionMonotonicity:
    def test_counters_never_regress_across_120_windows(self):
        config = StreamJoinConfig(m=4, observability=True)
        snapshots = _drive_session(config, n_windows=120)
        _assert_monotonic(snapshots)
        # and the counters actually grew — the check has teeth only if
        # the series move between samples
        first, last = snapshots[1], snapshots[-1]
        grew = [
            name
            for name, value in last.counters.items()
            if value > first.counters.get(name, 0)
        ]
        assert grew

    def test_histogram_totals_accumulate(self):
        config = StreamJoinConfig(m=4, observability=True)
        snapshots = _drive_session(config, n_windows=100, sample_every=25)
        histogram_counts = [
            sum(h["count"] for h in snapshot.histograms.values())
            for snapshot in snapshots[1:]
        ]
        assert histogram_counts == sorted(histogram_counts)
        assert histogram_counts[-1] > histogram_counts[0]

    def test_compact_does_not_disturb_metrics(self):
        config = StreamJoinConfig(m=4, observability=True)
        generator = ZipfSkewGenerator(seed=5)
        session = StreamJoinSession(config)
        for _ in range(30):
            session.push_window(generator.next_window(10))
        before = session.observability()
        session.compact(retain_windows=4)
        after = session.observability()
        assert check_monotonic(before, after) == []
        assert session._sink.windows[-1].window == 29
        session.result()

    def test_observability_requires_the_flag(self):
        session = StreamJoinSession(StreamJoinConfig(m=4))
        with pytest.raises(ValueError, match="without observability"):
            session.observability()


@pytest.mark.parallel
class TestParallelSessionMonotonicity:
    def test_live_snapshots_are_fresh_not_memoized(self):
        """The regression: repeated snapshot() calls must re-collect."""
        config = StreamJoinConfig(
            m=4, backend="parallel", transport="pipe", workers=2,
            observability=True,
        )
        generator = ZipfSkewGenerator(seed=7)
        session = StreamJoinSession(config)
        session.push_window(generator.next_window(20))
        first = session.observability()
        session.push_window(generator.next_window(20))
        second = session.observability()
        assert check_monotonic(first, second) == []
        # the second window moved at least one counter, so a frozen
        # (memoized) snapshot would be caught here
        assert second.counters != first.counters
        session.result()

    def test_counters_never_regress_across_100_windows_over_pipe(self):
        config = StreamJoinConfig(
            m=4, backend="parallel", transport="pipe", workers=2,
            observability=True,
        )
        snapshots = _drive_session(
            config, n_windows=100, window_size=8, sample_every=20
        )
        _assert_monotonic(snapshots)

    @pytest.mark.parametrize("pipeline_depth", [0, 2])
    @pytest.mark.parametrize("degrade", [False, True], ids=["respawn", "degrade"])
    def test_counters_survive_a_respawn(self, degrade, pipeline_depth):
        """A killed worker's last snapshot stays merged: no sample moves
        backward, and with every sample at a completed barrier
        (``pipeline_depth=0``) the Joiner counts equal a clean run's."""
        generator = ServerLogGenerator(seed=7)
        windows = [generator.next_window(200) for _ in range(12)]
        config = StreamJoinConfig(
            m=8, compute_joins=True, observability=True,
            backend="parallel", transport="pipe", workers=2,
            pipeline_depth=pipeline_depth,
            restart_policy=RestartPolicy(
                max_restarts_per_window=0 if degrade else 2,
                backoff_base_s=0.0, jitter=0.0, degrade=degrade,
            ),
            fault_plan=FaultPlan().kill_worker(0, after_batches=8),
        )
        session = StreamJoinSession(config)
        samples = []
        for window in windows:
            session.push_window(window)
            samples.append(session.observability())
        cluster = session._cluster
        session.result()
        assert (cluster.worker_restarts, cluster.degraded_workers) == (
            (0, 1) if degrade else (1, 0)
        )
        for earlier, later in combinations(samples, 2):
            assert check_monotonic(earlier, later) == []
        if pipeline_depth == 0:
            clean = run_stream_join(
                StreamJoinConfig(m=8, compute_joins=True, observability=True),
                windows,
            ).observability
            for name in ("probes", "inserts"):
                name = f"joiner.{name}{{algorithm=FPJ}}"
                assert samples[-1].counters[name] == clean.counters[name], name
