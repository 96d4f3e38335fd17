"""Tests for the executor's guaranteed-delivery retry mechanism and the
dead-letter quarantine that caps it, on the local executor and in a
worker session alike."""

from dataclasses import replace

import pytest

from repro.exceptions import TupleProcessingError
from repro.faults import FaultPlan, InjectedFault
from repro.obs.registry import MetricsRegistry
from repro.streaming.component import Bolt, Spout
from repro.streaming.executor import LocalCluster
from repro.streaming.grouping import DirectGrouping, GlobalGrouping
from repro.streaming.recovery import DeadLetterQueue
from repro.streaming.topology import TopologyBuilder
from repro.streaming.transport import WireCodec, WorkerInit, WorkerSession
from repro.streaming.tuples import StreamTuple, owners_of


class NumberSpout(Spout):
    """Emits 0..n-1; with ``fanout`` each number goes to every task of a
    3-task bolt as one addressed entry."""

    def __init__(self, n: int = 5, fanout: bool = False):
        self.n, self._i, self.fanout = n, 0, fanout

    def next_tuple(self, collector) -> bool:
        if self._i >= self.n:
            return False
        if self.fanout:
            collector.emit_fanout("numbers", (self._i,), (0, 1, 2))
        else:
            collector.emit("numbers", (self._i,))
        self._i += 1
        return self._i < self.n


class FlakyBolt(Bolt):
    """Fails the first ``failures_per_tuple`` deliveries of every tuple."""

    def __init__(self, failures_per_tuple: int = 2):
        self.failures_per_tuple = failures_per_tuple
        self._attempts: dict[int, int] = {}
        self.seen: list[int] = []

    def process(self, tup, collector) -> None:
        value = tup.values[0]
        attempts = self._attempts.get(value, 0)
        self._attempts[value] = attempts + 1
        if attempts < self.failures_per_tuple:
            raise RuntimeError(f"transient failure on {value}")
        self.seen.append(value)


class FanoutBolt(FlakyBolt):
    """One task of a 3-task bolt whose tasks log into one shared list;
    its :meth:`process_fanout` ``mode`` is ``"takes"`` (one call logs
    every owner), ``"declines"`` or ``"raises"``."""

    def __init__(self, mode: str, log: list, failures_per_tuple: int = 0):
        super().__init__(failures_per_tuple)
        self.mode = mode
        self.seen = log

    def prepare(self, context) -> None:
        self.task_index = context.task_index

    def process(self, tup, collector) -> None:
        super().process(tup, collector)
        # tag the value FlakyBolt just logged with the task that took it
        self.seen[-1] = (self.task_index, self.seen[-1])

    def process_fanout(self, tup, mask, tasks, collectors) -> bool:
        if self.mode == "raises":
            raise RuntimeError("fan-out failed")
        if self.mode == "declines":
            return False
        self.seen.extend(("fanout", tup.values[0]) for _ in owners_of(mask))
        return True


def _build(flaky: FlakyBolt, fanout: tuple = ()):
    """``flaky`` behind a 5-number spout — or, given ``fanout`` (three
    tasks), a 3-task bolt fed every number as one fan-out entry."""
    builder = TopologyBuilder()
    builder.set_spout("src", lambda: NumberSpout(5, fanout=bool(fanout)))
    if fanout:
        tasks = iter(fanout)
        builder.set_bolt("flaky", tasks.__next__, parallelism=3).subscribe(
            "src", "numbers", DirectGrouping()
        )
    else:
        builder.set_bolt("flaky", lambda: flaky).subscribe(
            "src", "numbers", GlobalGrouping()
        )
    return builder.build()


def _run_local(flaky, fanout=(), **options) -> LocalCluster:
    """The topology on :class:`LocalCluster`."""
    cluster = LocalCluster(_build(flaky, fanout), **options)
    cluster.run()
    return cluster


def _run_session(flaky, fanout=(), **options) -> LocalCluster:
    """The same tuples as one batch through an in-process
    :class:`WorkerSession` (base codec, no fork), its ack applied to
    the books of an idle :class:`LocalCluster` the way the parallel
    backend applies a worker's ack."""
    cluster = LocalCluster(_build(flaky, fanout), **options)
    tasks = dict(enumerate(cluster.tasks("flaky")))
    codec = WireCodec()
    session = WorkerSession(
        WorkerInit(
            0,
            0,
            {("flaky", index): task for index, task in tasks.items()},
            codec=codec,
            registry=cluster.registry,
            max_retries=options.get("max_retries", 0),
            quarantine=options.get("dead_letters") is not None,
            fault_plan=options.get("fault_plan"),
        )
    )
    mask = 0b111 if fanout else 0b1
    entries = [
        ("flaky", 0, StreamTuple("numbers", (value,), "src", 0), mask)
        for value in range(5)
    ]
    (reply,) = session.handle(codec.encode_batch(1, entries))
    if reply[0] == "error":
        _, worker, seq, component, task_index, retries, cause = reply
        assert (worker, seq) == (0, 1)
        raise TupleProcessingError(component, task_index, retries, cause)
    _, seq, worker, counts, failures, emissions, dead = reply
    assert (seq, worker, emissions) == (1, 0, ())
    cluster._executor.failures += failures
    for component, n in counts:
        cluster._count_processed(component, n)
    for letter in dead:
        assert (letter.worker, letter.batch_seq) == (0, 1)
        cluster._record_dead_letter(replace(letter, worker=None, batch_seq=None))
    return cluster


class TestRetries:
    """On the local executor; :class:`TestRetriesInSession` runs every
    case in a worker session."""

    run = staticmethod(_run_local)

    def test_transient_failures_are_replayed(self):
        flaky = FlakyBolt(failures_per_tuple=2)
        cluster = self.run(flaky, max_retries=3)
        assert flaky.seen == [0, 1, 2, 3, 4]  # every tuple delivered, in order
        assert cluster.failures == 10  # 2 failed attempts per tuple

    def test_retry_budget_exhaustion_raises(self):
        flaky = FlakyBolt(failures_per_tuple=5)
        with pytest.raises(TupleProcessingError) as excinfo:
            self.run(flaky, max_retries=2)
        assert excinfo.value.component == "flaky"
        assert excinfo.value.task_index == 0
        assert excinfo.value.retries == 2

    def test_no_retries_by_default(self):
        flaky = FlakyBolt(failures_per_tuple=1)
        with pytest.raises(TupleProcessingError):
            self.run(flaky)

    def test_successful_processing_counts_once(self):
        flaky = FlakyBolt(failures_per_tuple=1)
        cluster = self.run(flaky, max_retries=1)
        assert cluster.processed == 5  # retries do not inflate the count

    def test_dead_letter_queue_quarantines_instead_of_raising(self):
        flaky = FlakyBolt(failures_per_tuple=5)  # outlasts any retry budget
        dlq = DeadLetterQueue()
        cluster = self.run(flaky, max_retries=2, dead_letters=dlq)
        assert flaky.seen == []  # every tuple kept failing; no raise
        assert cluster.stats()["dead_letters"] == 5
        letter = dlq.entries[0]
        assert letter.component == "flaky"
        assert letter.stream == "numbers"
        assert letter.attempts == 2
        assert "transient failure" in letter.cause
        assert "RuntimeError" in letter.traceback  # full worker traceback
        assert letter.worker is None  # quarantined in the parent process
        assert letter.values_repr == "(0,)"

    def test_dead_letters_skip_only_poisoned_tuples(self):
        flaky = FlakyBolt(failures_per_tuple=1)
        dlq = DeadLetterQueue()
        cluster = self.run(flaky, dead_letters=dlq)  # no retries
        # with zero retries every first delivery fails and is quarantined
        assert cluster.stats()["dead_letters"] == 5
        assert cluster.processed == 0

    def test_dead_letter_limit_bounds_entries_not_total(self):
        flaky = FlakyBolt(failures_per_tuple=99)
        dlq = DeadLetterQueue(limit=2)
        self.run(flaky, dead_letters=dlq)
        assert dlq.total == 5  # the count keeps growing
        assert len(dlq) == 2  # only the newest entries are retained
        assert [letter.values_repr for letter in dlq] == ["(3,)", "(4,)"]

    def test_dead_letters_counter_reaches_registry(self):
        flaky = FlakyBolt(failures_per_tuple=99)
        registry = MetricsRegistry()
        self.run(flaky, dead_letters=DeadLetterQueue(), registry=registry)
        snapshot = registry.snapshot()
        assert snapshot.counters["executor.dead_letters{component=flaky}"] == 5

    def test_a_taken_fanout_is_one_call_for_every_owner(self):
        log: list = []
        cluster = self.run(None, [FanoutBolt("takes", log) for _ in range(3)])
        assert log == [("fanout", value) for value in range(5) for _ in range(3)]
        assert (cluster.processed, cluster.failures) == (15, 0)

    @pytest.mark.parametrize("mode", ["declines", "raises"])
    def test_an_untaken_fanout_is_delivered_per_owner(self, mode):
        log: list = []
        cluster = self.run(None, [FanoutBolt(mode, log, 1) for _ in range(3)],
                           max_retries=1)
        # each owner in turn, ascending, its failed first try retried in
        # place; a raising process_fanout is not a failed delivery
        assert log == [(task, value) for value in range(5) for task in range(3)]
        assert (cluster.processed, cluster.failures) == (15, 15)

    def test_a_failed_fanout_delivery_names_its_owner(self):
        log: list = []
        tasks = [FanoutBolt("raises", log, 0), FanoutBolt("raises", log, 1)]
        tasks.append(FanoutBolt("raises", log, 0))
        with pytest.raises(TupleProcessingError) as excinfo:
            self.run(None, tasks)
        assert (excinfo.value.task_index, excinfo.value.retries) == (1, 0)
        assert log == [(0, 0)]


class TestRetriesInSession(TestRetries):
    run = staticmethod(_run_session)


class FaultInjectionCases:
    """Fault-plan cases for both executors (collected through the
    ``Test*`` subclasses below)."""

    def test_fault_plan_raises_in_local_bolt(self):
        flaky = FlakyBolt(failures_per_tuple=0)
        plan = FaultPlan().raise_in("flaky", nth=2, sticky=False)
        with pytest.raises(TupleProcessingError) as excinfo:
            self.run(flaky, fault_plan=plan)
        assert isinstance(excinfo.value.cause, InjectedFault)
        assert (excinfo.value.task_index, excinfo.value.retries) == (0, 0)
        assert flaky.seen == [0]

    def test_sticky_fault_exhausts_retries_into_quarantine(self):
        flaky = FlakyBolt(failures_per_tuple=0)
        dlq = DeadLetterQueue()
        plan = FaultPlan().raise_in("flaky", nth=2)  # sticky by default
        cluster = self.run(flaky, max_retries=3, dead_letters=dlq, fault_plan=plan)
        assert dlq.total == 1
        assert dlq.entries[0].attempts == 3
        assert flaky.seen == [0, 2, 3, 4]  # only the poison tuple is lost
        assert (cluster.processed, cluster.failures) == (4, 4)

    def test_non_sticky_fault_heals_on_retry(self):
        flaky = FlakyBolt(failures_per_tuple=0)
        plan = FaultPlan().raise_in("flaky", nth=2, sticky=False)
        cluster = self.run(flaky, max_retries=1, fault_plan=plan)
        assert flaky.seen == [0, 1, 2, 3, 4]
        assert cluster.failures == 1

    def test_fault_rule_selects_one_fanout_delivery(self):
        log: list = []
        dlq = DeadLetterQueue()
        plan = FaultPlan().raise_in("flaky", nth=2)  # (value 0, task 1)
        cluster = self.run(
            None, [FanoutBolt("takes", log) for _ in range(3)],
            max_retries=1, dead_letters=dlq, fault_plan=plan,
        )
        # a fault rule is shown every (tuple, task) delivery on its own
        assert log == [
            (task, value) for value in range(5) for task in range(3)
            if (task, value) != (1, 0)
        ]
        assert [(letter.task_index, letter.attempts) for letter in dlq] == [(1, 1)]
        assert (cluster.processed, cluster.failures) == (14, 2)

class TestSessionFaultInjection(FaultInjectionCases):
    run = staticmethod(_run_session)


class TestLocalFaultInjection(FaultInjectionCases):
    run = staticmethod(_run_local)

    def test_stream_join_survives_transient_joiner_failures(self):
        """End-to-end: a Joiner that fails sporadically still yields the
        exact join result under replay (probe-then-insert is idempotent
        per delivery because the failure happens before any mutation)."""
        from repro.data.serverlogs import ServerLogGenerator
        from repro.join.base import brute_force_pairs
        from repro.topology.joiner import JoinerBolt
        from repro.topology.pipeline import StreamJoinConfig, build_topology
        from repro.topology.sink import MetricsSinkBolt
        from repro.topology import messages as msg

        class SometimesFailingJoiner(JoinerBolt):
            _count = 0

            def process(self, tup, collector):
                type(self)._count += 1
                if tup.stream == msg.ASSIGNED and type(self)._count % 13 == 0:
                    type(self)._count += 1  # fail once, succeed on replay
                    raise RuntimeError("injected joiner crash")
                super().process(tup, collector)

        generator = ServerLogGenerator(seed=31)
        windows = [generator.next_window(120) for _ in range(2)]
        config = StreamJoinConfig(
            m=2, algorithm="AG", n_assigners=2,
            compute_joins=True, collect_pairs=True,
        )
        topology = build_topology(config, windows)
        topology.components[msg.JOINER].factory = lambda: SometimesFailingJoiner(
            compute_joins=True, collect_pairs=True
        )
        cluster = LocalCluster(topology, max_retries=2)
        cluster.run()
        assert cluster.failures > 0  # the injection actually fired
        sink = cluster.tasks(msg.SINK)[0]
        assert isinstance(sink, MetricsSinkBolt)
        truth = set()
        for window in windows:
            truth |= brute_force_pairs(window)
        assert sink.join_pairs == truth
