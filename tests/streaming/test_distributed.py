"""Socket-transport acceptance suite (``make test-distributed``).

Everything here runs real ``python -m repro.worker`` subprocesses over
TCP.  The suite covers the distributed acceptance scenario — a worker
killed mid-window, respawned, and its journal replayed over a *fresh
socket connection* with byte-identical results — plus the unified stats
schema, worker-process leak checks on error paths and attach-mode
(``tcp://host:port``) workers.  The per-test leak gate in
``tests/conftest.py`` asserts that no ``repro.worker`` process outlives
the test that started it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data.serverlogs import ServerLogGenerator
from repro.exceptions import WorkerCrashError
from repro.faults import FaultPlan
from repro.streaming.component import Bolt, Spout
from repro.streaming.executor import LocalCluster
from repro.streaming.grouping import AllGrouping, FieldsGrouping, GlobalGrouping
from repro.streaming.parallel import ParallelCluster
from repro.streaming.recovery import RestartPolicy
from repro.streaming.topology import TopologyBuilder
from repro.streaming.transport.framing import parse_banner
from repro.topology.pipeline import StreamJoinConfig, run_stream_join
from tests.conftest import _await_no_workers

pytestmark = pytest.mark.distributed

FAST_RESTART = RestartPolicy(
    max_restarts_per_window=3, backoff_base_s=0.0, jitter=0.0
)

_SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")


# ----------------------------------------------------------------------
# Synthetic topology (mirrors tests/streaming/test_transport.py)
# ----------------------------------------------------------------------
class TickingNumberSpout(Spout):
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
    square = builder.set_bolt("square", SquareBolt, parallelism=2)
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


# ----------------------------------------------------------------------
# Full Fig. 2 topology over TCP
# ----------------------------------------------------------------------
def _windows(n_windows: int = 3, size: int = 120):
    generator = ServerLogGenerator(seed=23)
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


class TestSocketTopology:
    def test_chaos_kill_replays_over_fresh_connection(self):
        """The acceptance scenario: a TCP worker killed mid-window is
        respawned, the journal is replayed over the fresh socket
        connection, and every output matches the fault-free local run."""
        windows = _windows()
        clean = run_stream_join(_config(), windows)
        faulted = run_stream_join(
            _config(
                backend="parallel",
                transport="socket",
                workers=2,
                restart_policy=FAST_RESTART,
                fault_plan=FaultPlan().kill_worker(0, after_batches=1),
            ),
            windows,
        )
        assert faulted.per_window == clean.per_window
        assert faulted.join_pairs == clean.join_pairs
        assert faulted.repartition_windows == clean.repartition_windows
        clean_stats = dict(clean.tuple_stats)
        faulted_stats = dict(faulted.tuple_stats)
        assert faulted_stats.pop("worker_restarts") >= 1
        clean_stats.pop("worker_restarts")
        assert faulted_stats.pop("transport") == "socket"
        assert clean_stats.pop("transport") is None
        # the respawned worker came back over a brand-new connection
        assert faulted_stats.pop("reconnects") >= 1
        clean_stats.pop("reconnects")
        # load-signal gauges depend on shipping, not on results
        faulted_stats.pop("inflight_high_water")
        clean_stats.pop("inflight_high_water")
        assert faulted_stats == clean_stats

    def test_stats_schema_is_unified_across_backends(self):
        windows = _windows(n_windows=2)
        runs = {
            "local": run_stream_join(_config(), windows),
            "pipe": run_stream_join(
                _config(backend="parallel", transport="pipe", workers=2), windows
            ),
            "socket": run_stream_join(
                _config(backend="parallel", transport="socket", workers=2), windows
            ),
        }
        stats = {name: dict(run.tuple_stats) for name, run in runs.items()}
        assert set(stats["local"]) == set(stats["pipe"]) == set(stats["socket"])
        assert stats["local"].pop("transport") is None
        assert stats["pipe"].pop("transport") == "pipe"
        assert stats["socket"].pop("transport") == "socket"
        # load-signal gauges track shipping pressure, which legitimately
        # differs per transport; everything else must be identical
        for backend_stats in stats.values():
            backend_stats.pop("inflight_high_water")
        # clean runs: identical accounting, zero robustness counters
        assert stats["local"] == stats["pipe"] == stats["socket"]
        assert stats["local"]["reconnects"] == 0
        assert stats["local"]["worker_restarts"] == 0
        assert stats["local"]["dead_letters"] == 0


class TestSocketLifecycle:
    def test_failed_run_leaves_no_worker_processes(self):
        """Error paths must reap TCP workers: exhaust the restart budget,
        then verify close() is idempotent and nothing lingers."""
        collector = CollectBolt()
        cluster = ParallelCluster(
            _square_topology(collector),
            remote_components=("square",),
            barrier_streams=("tick",),
            transport="socket",
            workers=2,
            batch_size=4,
            restart_policy=RestartPolicy(
                max_restarts_per_window=0, backoff_base_s=0.0, jitter=0.0
            ),
            fault_plan=FaultPlan().kill_worker(0, after_batches=1),
        )
        with pytest.raises(WorkerCrashError):
            cluster.run()
        cluster.close()
        assert all(handle.link is None for handle in cluster._workers)
        cluster.close()  # idempotent
        assert _await_no_workers() == []

    def test_attach_mode_serves_repeated_clusters(self):
        """A pre-started ``--max-connections 0`` worker addressed as
        ``tcp://host:port`` serves one cluster per connection — each
        connection ships a fresh WorkerInit, so state never leaks."""
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "repro.worker",
                "--listen",
                "127.0.0.1:0",
                "--max-connections",
                "0",
            ],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = parse_banner(proc.stdout.readline())
            assert banner is not None, "worker printed no LISTEN banner"
            host, port = banner
            address = f"tcp://{host}:{port}"
            clean = _clean_reference(n=20)
            for _ in range(2):  # two clusters, two connections, same worker
                collector = CollectBolt()
                with ParallelCluster(
                    _square_topology(collector, n=20),
                    remote_components=("square",),
                    barrier_streams=("tick",),
                    transport="socket",
                    workers=[address],
                    batch_size=4,
                ) as cluster:
                    cluster.run()
                    stats = cluster.stats()
                assert sorted(collector.values) == clean
                assert stats["transport"] == "socket"
            assert proc.poll() is None  # attach-mode worker outlives clusters
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()

