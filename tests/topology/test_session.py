"""Tests for the incremental stream-join session."""

import pytest

from repro.data.serverlogs import ServerLogGenerator
from repro.exceptions import TupleProcessingError, WorkerCrashError
from repro.faults import FaultPlan
from repro.join.base import brute_force_pairs
from repro.streaming.executor import LocalCluster
from repro.topology import messages as msg
from repro.topology.pipeline import StreamJoinConfig, run_stream_join
from repro.topology.session import StreamJoinSession


def _config(**overrides):
    defaults = dict(
        m=3, algorithm="AG", n_creators=2, n_assigners=2,
        compute_joins=True, collect_pairs=True,
    )
    defaults.update(overrides)
    return StreamJoinConfig(**defaults)


class TestStreamJoinSession:
    def test_metrics_available_after_each_push(self):
        generator = ServerLogGenerator(seed=17)
        session = StreamJoinSession(_config())
        first = session.push_window(generator.next_window(120))
        assert first.window == 0
        assert first.replication == pytest.approx(3.0)  # bootstrap broadcast
        second = session.push_window(generator.next_window(120))
        assert second.window == 1
        assert second.replication < 3.0  # partitions installed

    def test_session_equals_batch_run(self):
        """Pushing windows one by one must be indistinguishable from the
        batch runner — same metrics, same join result."""
        generator = ServerLogGenerator(seed=18)
        windows = [generator.next_window(100) for _ in range(4)]

        batch = run_stream_join(_config(), windows)

        session = StreamJoinSession(_config())
        for window in windows:
            session.push_window(window)
        live = session.result()

        assert live.join_pairs == batch.join_pairs
        assert [w.replication for w in live.per_window] == [
            w.replication for w in batch.per_window
        ]
        assert live.repartition_windows == batch.repartition_windows
        assert [w.repartitioned for w in live.per_window] == [
            w.repartitioned for w in batch.per_window
        ]

    def test_join_result_is_exact(self):
        generator = ServerLogGenerator(seed=19)
        windows = [generator.next_window(90) for _ in range(3)]
        session = StreamJoinSession(_config())
        for window in windows:
            session.push_window(window)
        truth = set()
        for window in windows:
            truth |= brute_force_pairs(window)
        assert session.result().join_pairs == frozenset(truth)

    def test_empty_window_rejected(self):
        session = StreamJoinSession(_config())
        with pytest.raises(ValueError, match="empty window"):
            session.push_window([])

    def test_closed_session_rejects_pushes(self):
        generator = ServerLogGenerator(seed=20)
        session = StreamJoinSession(_config())
        session.push_window(generator.next_window(50))
        session.result()
        with pytest.raises(RuntimeError, match="closed"):
            session.push_window(generator.next_window(50))

    def test_binary_config_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            StreamJoinSession(_config(binary=True)).push_window(
                ServerLogGenerator(seed=22).next_window(10)
            )

    def test_windows_processed_counter(self):
        generator = ServerLogGenerator(seed=21)
        session = StreamJoinSession(_config())
        assert session.windows_processed == 0
        session.push_window(generator.next_window(40))
        assert session.windows_processed == 1

    def test_failed_result_closes_the_cluster(self, monkeypatch):
        session = StreamJoinSession(_config())
        session.push_window(ServerLogGenerator(seed=23).next_window(40))
        closed = []

        def failing_drain():
            raise WorkerCrashError(0, 41, restarts=0)

        monkeypatch.setattr(session._cluster, "drain", failing_drain, raising=False)
        monkeypatch.setattr(session._cluster, "close", lambda: closed.append(1))
        with pytest.raises(WorkerCrashError):
            session.result()
        assert closed == [1]


class TestBatchRunners:
    def test_empty_window_yields_an_empty_record(self):
        generator = ServerLogGenerator(seed=24)
        windows = [generator.next_window(60), [], generator.next_window(60)]
        result = run_stream_join(_config(), windows)
        assert [w.window for w in result.per_window] == [0, 1, 2]
        empty = result.per_window[1]
        assert (empty.window, empty.documents, empty.replication) == (1, 0, 0.0)
        assert result.per_window[2].documents == 60

    def test_a_failing_push_closes_the_cluster(self, monkeypatch):
        closed = []
        monkeypatch.setattr(LocalCluster, "close", lambda self: closed.append(1))
        config = _config(fault_plan=FaultPlan().raise_in(msg.MERGER, nth=1))
        windows = [ServerLogGenerator(seed=25).next_window(40)]
        with pytest.raises(TupleProcessingError, match="injected fault"):
            run_stream_join(config, windows)
        assert closed == [1]
