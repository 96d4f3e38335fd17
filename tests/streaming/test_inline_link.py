"""The parallel backend without processes: every worker on an InlineLink.

:class:`~repro.streaming.transport.InlineLink` runs a worker session in
this process, so ``ParallelCluster`` — batching, journals, barriers,
supervision, migration and degrade — can be driven end to end in the
tier-1 suite.  A test transport spawns every worker onto such a link;
its link turns a fault-plan kill into a dead link, the way a worker
process dies, and records every batch frame it is handed.  Each run of
the Fig. 2 topology must match the local run window for window.
"""

from dataclasses import replace

import pytest

from repro.data.serverlogs import ServerLogGenerator
from repro.faults import FaultPlan
from repro.soak.driver import check_monotonic
from repro.streaming import parallel
from repro.streaming.component import Executor
from repro.streaming.elastic import ElasticPolicy
from repro.streaming.recovery import RestartPolicy
from repro.streaming.transport import InlineLink, LinkDown, Transport
from repro.streaming.transport.framing import BufferFrame
from repro.streaming.transport.session import WorkerKilled
from repro.topology import messages as msg
from repro.topology.pipeline import StreamJoinConfig, run_stream_join
from repro.topology.session import StreamJoinSession

RESPAWN = RestartPolicy(max_restarts_per_window=3, backoff_base_s=0.0, jitter=0.0)
DEGRADE = RestartPolicy(
    max_restarts_per_window=0, backoff_base_s=0.0, jitter=0.0, degrade=True
)
#: the slot a forced scale-down at window 3 retires (the colder of the
#: two on this stream): killing it first makes that the degraded slot
DEGRADED = 1
#: merged worker and parent counters that must equal the local run's
COUNTERS = ("assigner.documents", "sink.windows", "joiner.probes{algorithm=FPJ}")


class MortalInlineLink(InlineLink):
    """An inline link whose fault-plan kill leaves it dead, and which
    records each batch frame it is handed as ``(seq, bytes)``."""

    def __init__(self, init, transport):
        super().__init__(init, transport)
        self._shipped = transport.shipped.setdefault(init.worker_index, [])

    def send(self, message) -> None:
        if isinstance(message, BufferFrame):
            self._shipped.append((message.envelope[1], message.to_bytes()))
        if self.exit_code is not None:
            raise LinkDown("worker killed")
        try:
            super().send(message)
        except WorkerKilled as kill:
            self.exit_code = kill.exit_code

    stage = send

    def alive(self) -> bool:
        return self.exit_code is None and super().alive()


class InlineTransport(Transport):
    name = "inline"

    def __init__(self):
        super().__init__()
        #: worker index -> ``(seq, frame bytes)`` of every batch frame
        #: staged or sent to it, every incarnation's, in order
        self.shipped: dict[int, list] = {}

    def spawn(self, init):
        return MortalInlineLink(init, self)


@pytest.fixture
def inline_workers(monkeypatch):
    """Resolve the parallel backend's transport to an InlineTransport."""
    monkeypatch.setattr(
        parallel, "make_transport", lambda name, addresses=None: InlineTransport()
    )


def _windows():
    generator = ServerLogGenerator(seed=7)
    return [generator.next_window(200) for _ in range(6)]


def _config(**overrides) -> StreamJoinConfig:
    return StreamJoinConfig(
        m=8, compute_joins=True, collect_pairs=True, observability=True,
        **overrides,
    )


def _run_parallel(config, windows, monkeypatch):
    """One session on two inline workers, sampling its observability
    after every window; returns its result, its cluster and the
    components the parent's own executor ran."""
    session = StreamJoinSession(replace(config, backend="parallel", workers=2))
    cluster = session._cluster
    parent_ran: set = set()
    execute = Executor.execute

    def spy(executor, component, mask, tup):
        if executor is cluster._executor:
            parent_ran.add(component)
        return execute(executor, component, mask, tup)

    monkeypatch.setattr(Executor, "execute", spy)
    samples = []
    for window in windows:
        session.push_window(window)
        samples.append(session.observability())
    result = session.result()
    for previous, current in zip(samples, [*samples[1:], result.observability]):
        assert check_monotonic(previous, current) == []
    return result, cluster, parent_ran


def _assert_matches_local(result, config, windows):
    """Per-window metrics, join pairs and the merged :data:`COUNTERS`
    equal the local run's."""
    local = run_stream_join(config, windows)
    assert result.per_window == local.per_window
    assert result.join_pairs == local.join_pairs
    assert result.repartition_windows == local.repartition_windows
    for name in COUNTERS:
        assert result.observability.counters[name] == (
            local.observability.counters[name]
        ), name


@pytest.mark.usefixtures("inline_workers")
class TestInlineCluster:
    def test_plain(self, monkeypatch):
        config, windows = _config(), _windows()
        result, cluster, parent_ran = _run_parallel(config, windows, monkeypatch)
        _assert_matches_local(result, config, windows)
        assert msg.JOINER not in parent_ran
        assert result.tuple_stats["transport"] == "inline"

    def test_forced_scale_up_then_down(self, monkeypatch):
        config = _config(
            elastic=ElasticPolicy(max_workers=4, force=((1, "up"), (3, "down")))
        )
        windows = _windows()
        result, cluster, _ = _run_parallel(config, windows, monkeypatch)
        _assert_matches_local(result, config, windows)
        stats = result.tuple_stats
        assert (stats["scale_ups"], stats["scale_downs"]) == (1, 1)
        assert cluster.worker_count == 2

    def test_kill_then_respawn(self, monkeypatch):
        config = _config(
            restart_policy=RESPAWN,
            fault_plan=FaultPlan().kill_worker(0, after_batches=1),
        )
        windows = _windows()
        result, cluster, parent_ran = _run_parallel(config, windows, monkeypatch)
        _assert_matches_local(result, config, windows)
        assert cluster.worker_restarts == 1 and cluster.degraded_workers == 0
        assert msg.JOINER not in parent_ran

    def test_kill_then_degrade(self, monkeypatch):
        """The degraded slot's entries reach its in-process session
        through its link: the parent's own executor runs no Joiner."""
        config = _config(
            restart_policy=DEGRADE,
            fault_plan=FaultPlan().kill_worker(0, after_batches=1),
        )
        windows = _windows()
        result, cluster, parent_ran = _run_parallel(config, windows, monkeypatch)
        _assert_matches_local(result, config, windows)
        assert cluster.degraded_workers == 1 and cluster.worker_restarts == 0
        assert msg.JOINER not in parent_ran
        assert result.observability.counters["executor.degraded_workers"] == 1

    def test_kill_then_degrade_then_scale_down_the_degraded_slot(self, monkeypatch):
        """A degraded slot is one like any other: a scale-down moves its
        tasks out of the parent and retires it."""
        config = _config(
            restart_policy=DEGRADE,
            fault_plan=FaultPlan().kill_worker(DEGRADED, after_batches=1),
            # the cooldown keeps the lone survivor from scaling up again
            elastic=ElasticPolicy(cooldown_windows=6, force=((3, "down"),)),
        )
        windows = _windows()
        result, cluster, parent_ran = _run_parallel(config, windows, monkeypatch)
        _assert_matches_local(result, config, windows)
        assert cluster.degraded_workers == 1
        stats = result.tuple_stats
        assert (stats["scale_ups"], stats["scale_downs"]) == (0, 1)
        degraded = cluster._workers[DEGRADED]
        assert degraded.assigned == [] and degraded.link is None
        assert cluster.worker_count == 1
        assert msg.JOINER not in parent_ran

    def test_shipping_is_a_function_of_the_input(self, monkeypatch):
        """A batch is cut by ``batch_size`` and window barriers only: a
        run whose parent clock moves 6 ms between the documents of one
        window ships every worker the same ``(seq, frame bytes)``
        sequence as an unstalled run."""
        windows = _windows()
        real = parallel.monotonic
        stall = {"offset": 0.0}
        monkeypatch.setattr(parallel, "monotonic", lambda: real() + stall["offset"])

        def stalled(window):
            # the spout pulls one item per emit: each later document
            # arrives 6 ms after the one before
            for position, document in enumerate(window):
                if position:
                    stall["offset"] += 0.006
                yield document, None

        def shipped(stall_window):
            session = StreamJoinSession(
                replace(_config(), backend="parallel", workers=2)
            )
            for index, window in enumerate(windows):
                if index == stall_window:
                    session._push(stalled(window))
                else:
                    session.push_window(window)
            session.result()
            return session._cluster._transport.shipped

        steady = shipped(stall_window=None)
        stalled_run = shipped(stall_window=2)
        assert stall["offset"] >= 0.006 * (len(windows[2]) - 1)
        assert sorted(steady) == [0, 1] and all(steady.values())
        assert stalled_run == steady
