"""Seeded chaos suite: recovery must not change results.

Every case injects deterministic faults through :mod:`repro.faults`
(worker kills, poison tuples, delayed acks) and asserts the recovered
run's output against a clean reference run.  All cases fork worker
processes and carry the ``chaos`` marker; run them via
``make test-chaos`` (or ``pytest -m chaos``).
"""

import pytest

from repro.core.document import Document
from repro.data.serverlogs import ServerLogGenerator
from repro.exceptions import WorkerCrashError
from repro.faults import FaultPlan
from repro.streaming.component import Bolt, Spout
from repro.streaming.executor import LocalCluster
from repro.streaming.grouping import AllGrouping, FieldsGrouping, GlobalGrouping
from repro.streaming.parallel import ParallelCluster
from repro.streaming.recovery import DeadLetterQueue, RestartPolicy
from repro.streaming.topology import TopologyBuilder
from repro.topology import messages as msg
from repro.topology.pipeline import (
    StreamJoinConfig,
    build_topology,
    make_cluster,
    run_stream_join,
)

pytestmark = pytest.mark.chaos

#: zero-backoff policy so restart loops do not slow the suite down
FAST_RESTART = RestartPolicy(
    max_restarts_per_window=3, backoff_base_s=0.0, jitter=0.0
)

#: no restarts: the first death degrades the worker into the parent
DEGRADE = RestartPolicy(
    max_restarts_per_window=0, backoff_base_s=0.0, jitter=0.0, degrade=True
)


# ----------------------------------------------------------------------
# Synthetic topology: numbers -> squares, with a periodic barrier tick
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


def _parallel(collector: CollectBolt, n: int = 50, **kwargs) -> ParallelCluster:
    return ParallelCluster(
        _square_topology(collector, n),
        remote_components=("square",),
        barrier_streams=("tick",),
        workers=2,
        batch_size=4,
        **kwargs,
    )


class TestSyntheticChaos:
    def test_restart_replays_journal_byte_identical(self):
        clean = _clean_reference()
        collector = CollectBolt()
        cluster = _parallel(
            collector,
            restart_policy=FAST_RESTART,
            fault_plan=FaultPlan().kill_worker(0, after_batches=1),
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["worker_restarts"] == 1
        assert stats["dead_letters"] == 0

    def test_repeated_kills_within_budget(self):
        clean = _clean_reference()
        collector = CollectBolt()
        plan = (
            FaultPlan()
            .kill_worker(0, after_batches=1, incarnation=0)
            .kill_worker(0, after_batches=1, incarnation=1)
        )
        cluster = _parallel(collector, restart_policy=FAST_RESTART, fault_plan=plan)
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["worker_restarts"] == 2

    def test_replacement_dies_on_its_sticky_replay(self):
        """The first replacement dies on its first frame — the sticky
        pseudo-batch of its replay, which can then never be acked.  The
        second replay must not leave the next barrier waiting for it.
        Synchronous barriers make the frame counts exact:
        window 1 completes (its tick becomes sticky history) before
        batch 3, the first of window 2, kills the original worker."""
        clean = _clean_reference()
        collector = CollectBolt()
        plan = (
            FaultPlan()
            .kill_worker(0, after_batches=2)
            .kill_worker(0, after_batches=0, incarnation=1)
        )
        cluster = _parallel(
            collector,
            sticky_streams=("tick",),
            pipeline_depth=0,
            barrier_timeout_s=10.0,
            restart_policy=FAST_RESTART,
            fault_plan=plan,
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["worker_restarts"] == 2

    def test_budget_exhaustion_without_degrade_aborts(self):
        collector = CollectBolt()
        cluster = _parallel(
            collector,
            restart_policy=RestartPolicy(
                max_restarts_per_window=0, backoff_base_s=0.0, jitter=0.0
            ),
            fault_plan=FaultPlan().kill_worker(0, after_batches=1),
        )
        with pytest.raises(WorkerCrashError) as err:
            cluster.run()
        assert "restart budget" in str(err.value)
        assert err.value.worker == 0
        cluster.close()

    def test_budget_exhaustion_degrades_to_inline(self):
        clean = _clean_reference()
        collector = CollectBolt()
        cluster = _parallel(
            collector,
            restart_policy=RestartPolicy(
                max_restarts_per_window=0,
                backoff_base_s=0.0,
                jitter=0.0,
                degrade=True,
            ),
            fault_plan=FaultPlan().kill_worker(0, after_batches=1),
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert cluster.degraded_workers == 1
        assert stats["worker_restarts"] == 0

    def test_degraded_replay_never_kills_the_parent(self):
        """Degrade respawns the worker into the parent, so an incarnation-1
        kill rule names the in-parent replacement — it must not fire
        there: the replay finishes and the run completes inline."""
        clean = _clean_reference()
        collector = CollectBolt()
        plan = (
            FaultPlan()
            .kill_worker(0, after_batches=1, incarnation=0)
            .kill_worker(0, after_batches=1, incarnation=1)
        )
        cluster = _parallel(collector, restart_policy=DEGRADE, fault_plan=plan)
        with cluster:
            cluster.run()
        assert sorted(collector.values) == clean
        assert cluster.degraded_workers == 1

    def test_worker_side_quarantine_records_dead_letters(self):
        collector = CollectBolt()
        dlq = DeadLetterQueue()
        cluster = _parallel(
            collector,
            dead_letters=dlq,
            fault_plan=FaultPlan().raise_in("square", nth=5, stream="numbers"),
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        # one poison per worker runtime (each worker counts its own 5th)
        assert stats["dead_letters"] == 2
        assert len(collector.values) == 50 - 2
        for letter in dlq:
            assert letter.component == "square"
            assert letter.worker is not None
            assert letter.batch_seq is not None
            assert "injected fault" in letter.cause

    def test_sticky_poison_survives_retries(self):
        collector = CollectBolt()
        dlq = DeadLetterQueue()
        cluster = _parallel(
            collector,
            max_retries=2,
            dead_letters=dlq,
            fault_plan=FaultPlan().raise_in("square", nth=3, stream="numbers"),
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert stats["dead_letters"] == 2
        for letter in dlq:
            assert letter.attempts == 2  # the full retry budget was spent

    def test_transient_fault_heals_on_retry(self):
        clean = _clean_reference()
        collector = CollectBolt()
        cluster = _parallel(
            collector,
            max_retries=1,
            fault_plan=FaultPlan().raise_in(
                "square", nth=5, stream="numbers", sticky=False
            ),
        )
        with cluster:
            cluster.run()
            stats = cluster.stats()
        assert sorted(collector.values) == clean
        assert stats["dead_letters"] == 0
        # one transient failure per worker runtime, both healed on retry
        assert cluster.failures == 2


# ----------------------------------------------------------------------
# End-to-end: the full Fig. 2 topology under faults
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


#: a document sharing no AV-pair with any generated one: it joins with
#: nothing, so quarantining some replicas and storing others cannot
#: change the join results
POISON = Document({"__chaos_poison__": "boom"}, doc_id=999_983)


class TestTopologyChaos:
    def test_kill_plus_poison_matches_clean_local_run(self):
        """The acceptance scenario: one worker killed mid-window plus one
        poison document, and per-window join results still match the
        fault-free local run byte for byte."""
        windows = _windows()
        clean = run_stream_join(_config(), windows)
        # the poison document leads window 0: during bootstrap every
        # document is broadcast, so it is deterministically the first
        # joiner delivery in every worker and nth=1 selects it
        poisoned = [list(windows[0]), *map(list, windows[1:])]
        poisoned[0].insert(0, POISON)
        plan = (
            FaultPlan()
            .kill_worker(0, after_batches=1)
            .raise_in(msg.JOINER, nth=1, stream=msg.ASSIGNED)
        )
        faulted = run_stream_join(
            _config(
                backend="parallel",
                workers=2,
                max_retries=1,
                dead_letters=True,
                restart_policy=FAST_RESTART,
                fault_plan=plan,
            ),
            poisoned,
        )
        assert [w.join_pairs for w in faulted.per_window] == [
            w.join_pairs for w in clean.per_window
        ]
        assert faulted.join_pairs == clean.join_pairs
        assert faulted.tuple_stats["worker_restarts"] >= 1
        assert faulted.tuple_stats["dead_letters"] >= 1
        assert faulted.dead_letters  # entries surfaced on the result
        assert all(d.component == msg.JOINER for d in faulted.dead_letters)

    @pytest.mark.parametrize("backend", ["local", "parallel"])
    def test_poison_at_one_colocated_task_matches_isolated_joiners(self, backend):
        """A document quarantined at one Joiner task while the tasks
        sharing its window index accept it: the shared index must leave
        every task with exactly what m isolated per-task joiners produce
        under the same plan — the quarantined task never counts the
        document, its neighbours do."""
        from tests.topology.per_task import run_per_task

        windows = _windows()
        # sticky rules fire per process on its nth Joiner delivery: one
        # replica each of two documents (window 0 is all-broadcast and
        # joins plenty), in every process that runs Joiner tasks
        plan = (
            FaultPlan()
            .raise_in(msg.JOINER, nth=150, stream=msg.ASSIGNED)
            .raise_in(msg.JOINER, nth=330, stream=msg.ASSIGNED)
        )
        config = _config(
            backend=backend,
            workers=2 if backend == "parallel" else None,
            max_retries=1,
            dead_letters=True,
            fault_plan=plan,
        )
        shared, shared_stats = run_per_task(config, windows, isolated=False)
        isolated, isolated_stats = run_per_task(config, windows, isolated=True)
        # one owner quarantined per rule and process, its co-located
        # owners accept the document: a dead letter is one (document,
        # task), never a whole fan-out entry
        assert shared_stats["dead_letters"] == isolated_stats["dead_letters"]
        assert shared_stats["dead_letters"] == (2 if backend == "local" else 4)
        assert shared == isolated
        clean, _ = run_per_task(_config(), windows, isolated=False)
        assert shared != clean  # the quarantined replicas did carry joins

    @pytest.mark.parametrize("backend", ["local", "parallel"])
    def test_a_failed_fanout_call_is_redelivered_per_task(self, backend):
        """A real error, no fault rule: a second copy of a document in
        the all-broadcast bootstrap window travels as one entry per
        executor naming all of its tasks.  The shared index rejects the
        call before changing anything; each addressed task then gets its
        own delivery, fails on its own retry budget and quarantines —
        one dead letter per assignment, and every task reports what it
        does without the copy."""
        from tests.topology.per_task import run_per_task

        window = _windows(n_windows=1)[0]
        copy = Document(dict(window[7].pairs), doc_id=window[7].doc_id)
        config = _config(
            backend=backend,
            workers=2 if backend == "parallel" else None,
            max_retries=1,
            dead_letters=True,
        )
        clean, clean_stats = run_per_task(config, [window], isolated=False)
        doubled, stats = run_per_task(config, [[*window, copy]], isolated=False)
        assert doubled == clean
        assert clean_stats["dead_letters"] == 0
        assert stats["dead_letters"] == 4  # m = 4, broadcast
        assert (
            stats[msg.JOINER]["processed"] == clean_stats[msg.JOINER]["processed"]
        )

    def test_kill_and_restart_is_fully_byte_identical(self):
        """Without poison, recovery must preserve *all* outputs — metrics,
        join pairs and tuple accounting (modulo the restart counter)."""
        windows = _windows()
        clean = run_stream_join(_config(), windows)
        faulted = run_stream_join(
            _config(
                backend="parallel",
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
        # transport identity and reconnect count legitimately differ
        # between a local reference and a recovered parallel run
        assert faulted_stats.pop("transport") == "pipe"
        assert clean_stats.pop("transport") is None
        assert faulted_stats.pop("reconnects") >= 1
        clean_stats.pop("reconnects")
        # load-signal gauges differ between inline and worker-pool runs
        assert faulted_stats.pop("inflight_high_water") > 0
        clean_stats.pop("inflight_high_water")
        assert faulted_stats == clean_stats

    def test_a_replacement_does_not_recount_parent_activity(self):
        """A worker spawned mid-run inherits the parent registry; merged
        counters only the parent records must still equal a clean run's."""
        windows = _windows()
        clean = run_stream_join(_config(observability=True), windows)
        faulted = run_stream_join(
            _config(
                observability=True,
                backend="parallel",
                workers=2,
                restart_policy=FAST_RESTART,
                fault_plan=FaultPlan().kill_worker(0, after_batches=1),
            ),
            windows,
        )
        assert faulted.tuple_stats["worker_restarts"] >= 1
        for name in ("assigner.documents", "sink.windows"):
            assert (
                faulted.observability.counters[name]
                == clean.observability.counters[name]
            ), name

    @pytest.mark.parametrize(
        "transport", ["pipe", pytest.param("socket", marks=pytest.mark.distributed)]
    )
    def test_degrade_preserves_results_end_to_end(self, transport):
        windows = _windows(n_windows=2)
        clean = run_stream_join(_config(), windows)
        faulted = run_stream_join(
            _config(
                backend="parallel",
                transport=transport,
                workers=2,
                restart_policy=RestartPolicy(
                    max_restarts_per_window=0,
                    backoff_base_s=0.0,
                    jitter=0.0,
                    degrade=True,
                ),
                fault_plan=FaultPlan().kill_worker(0, after_batches=1),
            ),
            windows,
        )
        assert faulted.per_window == clean.per_window
        assert faulted.join_pairs == clean.join_pairs
        assert faulted.tuple_stats["worker_restarts"] == 0

    def test_degrade_with_poison_matches_a_respawn(self):
        """Degrade is a respawn into the parent: under kill + poison the
        degraded run quarantines, retries and counts exactly what a
        respawned worker does, and its join results are the local run's
        (the poison document joins with nothing)."""
        windows = _windows()
        poisoned = [[POISON, *windows[0]], *map(list, windows[1:])]
        plan = (
            FaultPlan()
            .kill_worker(0, after_batches=1)
            .raise_in(msg.JOINER, nth=1, stream=msg.ASSIGNED)
            # worker 1's slow acks hold window 0's barrier open until
            # the parent has noticed worker 0's death, so the replay
            # always starts at the poison batch: otherwise the replay's
            # first delivery, where the replacement's rule fires, depends
            # on which of the two came first
            .delay_acks(1, seconds=0.3)
        )

        def run(**overrides):
            config = _config(
                max_retries=1, dead_letters=True, fault_plan=plan, **overrides
            )
            cluster = make_cluster(config, build_topology(config, poisoned))
            try:
                cluster.run()
                stats = cluster.stats()
                return {
                    "join_pairs": [
                        w.join_pairs for w in cluster.tasks(msg.SINK)[0].windows
                    ],
                    "dead_letters": stats["dead_letters"],
                    "failures": cluster.failures,
                    "processed": stats[msg.JOINER]["processed"],
                }, cluster
            finally:
                cluster.close()

        parallel = dict(backend="parallel", workers=2)
        degraded, cluster = run(restart_policy=DEGRADE, **parallel)
        assert cluster.degraded_workers == 1
        respawned, cluster = run(restart_policy=FAST_RESTART, **parallel)
        assert cluster.worker_restarts >= 1
        local, _ = run()
        assert degraded == respawned
        assert degraded["dead_letters"] >= 1
        assert degraded["join_pairs"] == local["join_pairs"] == [
            w.join_pairs for w in run_stream_join(_config(), windows).per_window
        ]
