"""Deterministic topology executors.

:class:`ClusterBase` holds everything every execution backend shares:
task instantiation, routing tables with pre-resolved groupings and FIFO
work-queue draining through the one
:class:`~repro.streaming.component.Executor`, which owns the
Storm-style retry budget.  The
single-process :class:`LocalCluster` is the reference backend — it
executes every component inline, in strict FIFO order, so runs are
exactly replayable.  The process-parallel backend
(:class:`repro.streaming.parallel.ParallelCluster`) subclasses the same
base and overrides only tuple *delivery*, shipping selected components'
work to worker processes.

Between two spout emissions the work queue is fully drained, so
downstream effects of a tuple (including punctuation such as
window-end markers) complete before the next source tuple enters the
topology — which gives the windowed components exact, replayable
semantics without distributed coordination.

Simplifications versus Storm, by design: no acking protocol (an
in-process call cannot lose a tuple, so the exactly-once guarantee is
trivial) and spouts are finite.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, Sequence

from repro.exceptions import TopologyError
from repro.faults import FaultPlan
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry, ObservabilitySnapshot
from repro.streaming.component import Bolt, ComponentContext, Executor, Spout
from repro.streaming.recovery import DeadLetter, DeadLetterQueue
from repro.streaming.topology import Topology
from repro.streaming.tuples import StreamTuple

#: one pre-resolved routing edge: (bolt name, grouping.targets, parallelism)
Route = tuple[str, Callable[[StreamTuple, int], Sequence[int]], int]


class _TaskCollector:
    """Collector bound to one producing task.

    Holds the producer's pre-resolved ``stream -> routes`` table so the
    per-emit cost is a single small-dict lookup instead of a tuple-keyed
    lookup against the whole topology's routing table.
    """

    __slots__ = ("_cluster", "_component", "_task_index", "_routes")

    def __init__(
        self,
        cluster: "ClusterBase",
        component: str,
        task_index: int,
        routes: dict[str, tuple[Route, ...]],
    ):
        self._cluster = cluster
        self._component = component
        self._task_index = task_index
        self._routes = routes

    def emit(
        self,
        stream: str,
        values: tuple[Any, ...],
        direct_task: Optional[int] = None,
    ) -> None:
        tup = StreamTuple(
            stream=stream,
            values=values,
            source=self._component,
            source_task=self._task_index,
            direct_task=direct_task,
        )
        self._cluster._route(tup, self._routes.get(stream, ()))

    def emit_fanout(self, stream: str, values: tuple, targets) -> None:
        """Emit one payload to several direct tasks as one addressed entry.

        Equivalent to ``emit(stream, values, direct_task=t)`` per target
        — same accounting totals, same per-task delivery order — but the
        target set travels as data: one tuple, one bitmask, one
        :meth:`ClusterBase._deliver` per subscribed bolt.  This
        is the Assigner's document hot path: one routed document fans
        out to several Joiner tasks.
        """
        cluster = self._cluster
        n = len(targets)
        cluster.emitted += n
        cluster._component_emitted[self._component] += n
        if cluster._obs:
            cluster._emit_counters[self._component].inc(n)
        if cluster.emitted > cluster.max_tuples:
            raise TopologyError(
                f"tuple budget of {cluster.max_tuples} exceeded — "
                "likely a control-message loop in the topology"
            )
        routes = self._routes.get(stream, ())
        if not routes or not n:
            return
        try:
            mask = 0
            for target in targets:
                mask |= 1 << target
        except ValueError:  # a negative target: fails the range test below
            mask = -1
        tup = StreamTuple(stream, values, self._component, self._task_index)
        for bolt_name, _targets_fn, parallelism in routes:
            if mask >> parallelism:
                raise TopologyError(
                    f"direct tasks {tuple(targets)} out of range for "
                    f"{parallelism} tasks"
                )
            cluster._deliver(bolt_name, mask, tup)
        depth = len(cluster._queue)
        if depth > cluster.max_queue_depth:
            cluster.max_queue_depth = depth
            if cluster._obs:
                cluster._queue_gauge.set(depth)


class ClusterBase:
    """Shared machinery of all execution backends.

    Subclass hooks:

    * :meth:`_deliver` — hand one tuple to the tasks of a component
      that a bitmask names (one bit for an ordinary delivery, several
      for a fan-out).  The base enqueues one entry onto the in-process
      FIFO; a distributed backend may ship it to workers instead.
    * :meth:`_on_idle` — called when the FIFO runs empty inside
      :meth:`_drain`; return True if new local work arrived (the drain
      loop continues).  Backends use this to flush batches and collect
      remote results.
    * :meth:`_finish` — called once after the spouts are exhausted, for
      end-of-run barriers.
    """

    def __init__(
        self,
        topology: Topology,
        max_tuples: int = 200_000_000,
        max_retries: int = 0,
        registry: Optional[MetricsRegistry] = None,
        *,
        dead_letters: Optional[DeadLetterQueue] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        """``max_retries`` > 0 enables Storm-style guaranteed delivery: a
        tuple whose processing raises is redelivered to the same task, in
        place, up to that many times (at-least-once semantics — bolts
        observing a redelivered tuple must tolerate their own partial
        effects).
        Exceeding the budget raises :class:`TupleProcessingError` —
        unless ``dead_letters`` is configured, in which case the tuple is
        *quarantined*: recorded on the queue (with component, task,
        attempt count and cause), counted on the ``executor.dead_letters``
        series and in ``stats()["dead_letters"]``, and skipped.

        ``fault_plan`` wires deterministic fault injection
        (:mod:`repro.faults`) into tuple processing — test machinery for
        the recovery paths, inert when None.

        ``registry`` enables observability: the cluster records
        per-component emitted/processed counters, an
        ``executor.queue_depth_max`` gauge and per-component
        ``executor.execute_seconds`` latency histograms, and every task's
        :class:`ComponentContext` exposes the registry as
        ``ctx.metrics``.  The default no-op registry keeps the hot path
        at a single attribute lookup."""
        self.topology = topology
        self.max_tuples = max_tuples
        self.max_retries = max_retries
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._obs = self.registry.enabled
        self.dead_letters = dead_letters
        self._fault_plan = (
            fault_plan if fault_plan is not None and not fault_plan.empty else None
        )
        #: worker process replacements performed (parallel backend only)
        self.worker_restarts = 0
        #: deepest the work queue ever got — a backpressure indicator
        self.max_queue_depth = 0
        #: FIFO of (bolt name, bitmask of the addressed tasks, tuple)
        self._queue: deque[tuple[str, int, StreamTuple]] = deque()
        self._tasks: dict[str, list[Spout | Bolt]] = {}
        #: component -> its tasks' collectors, by task index
        self._collectors: dict[str, list[_TaskCollector]] = {}
        self.emitted = 0
        self.processed = 0
        self._component_emitted: dict[str, int] = {}
        self._component_processed: dict[str, int] = {}
        # (source, stream) -> pre-resolved routes; groupings are resolved
        # to their bound ``targets`` method once, here, not per tuple
        self._routes: dict[tuple[str, str], tuple[Route, ...]] = {}
        grouped: dict[tuple[str, str], list[Route]] = {}
        for bolt in topology.bolts():
            for sub in bolt.subscriptions:
                grouped.setdefault((sub.source, sub.stream), []).append(
                    (bolt.name, sub.grouping.targets, bolt.parallelism)
                )
        self._routes = {key: tuple(routes) for key, routes in grouped.items()}
        # producer component -> {stream -> routes} (collector fast path)
        self._routes_by_source: dict[str, dict[str, tuple[Route, ...]]] = {
            name: {} for name in topology.components
        }
        for (source, stream), routes in self._routes.items():
            self._routes_by_source[source][stream] = routes
        self._build_tasks()
        #: parent-process fault state (worker processes derive their own)
        faults = self._fault_plan.runtime() if self._fault_plan is not None else None
        self._executor = Executor(
            self._tasks,
            self._collectors,
            self._exec_hists if self._obs else {},
            faults,
            max_retries,
            self._record_dead_letter if dead_letters is not None else None,
        )

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _build_tasks(self) -> None:
        parallelism = {
            name: spec.parallelism for name, spec in self.topology.components.items()
        }
        registry = self.registry
        self._emit_counters = {
            name: registry.counter("executor.emitted", component=name)
            for name in self.topology.components
        }
        self._proc_counters = {
            name: registry.counter("executor.processed", component=name)
            for name in self.topology.components
        }
        self._exec_hists = {
            name: registry.histogram("executor.execute_seconds", component=name)
            for name in self.topology.components
        }
        self._queue_gauge = registry.gauge("executor.queue_depth_max")
        for name, spec in self.topology.components.items():
            instances = []
            collectors = self._collectors[name] = []
            for task_index in range(spec.parallelism):
                instance = spec.factory()
                context = ComponentContext(
                    component=name,
                    task_index=task_index,
                    parallelism=spec.parallelism,
                    component_parallelism=parallelism,
                    registry=registry,
                )
                if spec.is_spout:
                    if not isinstance(instance, Spout):
                        raise TopologyError(f"{name!r} factory did not return a Spout")
                    instance.open(context)
                else:
                    if not isinstance(instance, Bolt):
                        raise TopologyError(f"{name!r} factory did not return a Bolt")
                    instance.prepare(context)
                instances.append(instance)
                collectors.append(
                    _TaskCollector(
                        self, name, task_index, self._routes_by_source[name]
                    )
                )
            self._tasks[name] = instances
            self._component_emitted[name] = 0
            self._component_processed[name] = 0

    # ------------------------------------------------------------------
    # Routing and execution
    # ------------------------------------------------------------------
    def _route(self, tup: StreamTuple, routes: Optional[Sequence[Route]] = None) -> None:
        """Account for an emission and deliver it along its routes.

        ``routes`` is the pre-resolved route list for ``(tup.source,
        tup.stream)``; callers without one at hand (e.g. re-injection of
        remotely produced tuples) may pass None to look it up here.
        """
        if routes is None:
            routes = self._routes.get((tup.source, tup.stream), ())
        self.emitted += 1
        self._component_emitted[tup.source] += 1
        if self._obs:
            self._emit_counters[tup.source].inc()
        if self.emitted > self.max_tuples:
            raise TopologyError(
                f"tuple budget of {self.max_tuples} exceeded — "
                "likely a control-message loop in the topology"
            )
        for bolt_name, targets, parallelism in routes:
            for task_index in targets(tup, parallelism):
                self._deliver(bolt_name, 1 << task_index, tup)
        depth = len(self._queue)
        if depth > self.max_queue_depth:
            # high-water mark moved: record it (and mirror to the gauge
            # only then — the gauge is never touched on the fast path)
            self.max_queue_depth = depth
            if self._obs:
                self._queue_gauge.set(depth)

    def _deliver(self, component: str, mask: int, tup: StreamTuple) -> None:
        """Hand one tuple to the tasks of ``component`` in ``mask`` (base:
        one entry on the local FIFO — this process is one executor)."""
        self._queue.append((component, mask, tup))

    def _on_idle(self) -> bool:
        """Hook: the local FIFO ran empty.  Return True if more local
        work arrived (the drain loop continues)."""
        return False

    def _finish(self) -> None:
        """Hook: the spouts are exhausted and the FIFO is drained."""

    def _drain(self) -> None:
        queue = self._queue
        execute = self._executor.execute
        count = self._count_processed
        while True:
            while queue:
                component, mask, tup = queue.popleft()
                n = execute(component, mask, tup)
                if n:
                    count(component, n)
            if not self._on_idle():
                break

    def _count_processed(self, component: str, n: int) -> None:
        """Account ``n`` assignments of ``component`` as processed."""
        self.processed += n
        self._component_processed[component] += n
        if self._obs:
            self._proc_counters[component].inc(n)

    @property
    def failures(self) -> int:
        """Deliveries that raised, retries included — in this process
        and, reported by their acks, in its workers."""
        return self._executor.failures

    def _record_dead_letter(self, letter: DeadLetter) -> None:
        assert self.dead_letters is not None
        self.dead_letters.record(letter)
        if self._obs:
            self.registry.counter(
                "executor.dead_letters", component=letter.component
            ).inc()

    def _spouts(self) -> list[tuple]:
        """Every spout task with its collector, in declaration order."""
        return [
            (spout, self._collectors[spec.name][task_index])
            for spec in self.topology.spouts()
            for task_index, spout in enumerate(self._tasks[spec.name])
        ]

    def pump(self) -> None:
        """Advance every spout until it reports no data, then return.

        Unlike :meth:`run`, a spout returning False is treated as "no
        data *right now*" rather than exhausted — the building block for
        interactive sessions that feed their spout incrementally.
        """
        for spout, collector in self._spouts():
            while spout.next_tuple(collector):
                self._drain()
            self._drain()
        self._finish()

    def run(self) -> None:
        """Pump all spouts to exhaustion, round robin, draining between
        emissions."""
        active = self._spouts()
        while active:
            remaining = []
            for spout, collector in active:
                if spout.next_tuple(collector):
                    remaining.append((spout, collector))
                self._drain()
            active = remaining
        self._finish()

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (base: nothing to release)."""

    def __enter__(self) -> "ClusterBase":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def snapshot(self) -> ObservabilitySnapshot:
        """All observability recorded by this run, across all backends'
        address spaces (the base has only the one registry)."""
        return self.registry.snapshot()

    def tasks(self, component: str) -> list[Spout | Bolt]:
        """The live task instances of a component (for post-run inspection)."""
        return self._tasks[component]

    def stats(self) -> dict[str, object]:
        """Per-component emitted/processed tuple counters, plus the
        run-level robustness counts.

        The schema is uniform across backends so callers never have to
        key-guard: ``dead_letters`` (tuples quarantined after exhausting
        their retry budget), ``worker_restarts`` (worker processes
        replaced by the parallel backend's supervisor), ``transport``
        (the worker transport name, None when tasks run inline) and
        ``reconnects`` (worker links established beyond the first per
        slot).  The gauge ``inflight_high_water`` (peak unacknowledged
        batches on any one worker) and the elasticity counters
        ``scale_ups``/``scale_downs``/``migrations`` share the schema
        too.  On the local backend all of these are zero-valued/None.
        """
        stats: dict[str, object] = {
            name: {
                "emitted": self._component_emitted[name],
                "processed": self._component_processed[name],
            }
            for name in self.topology.components
        }
        stats["dead_letters"] = (
            self.dead_letters.total if self.dead_letters is not None else 0
        )
        stats["worker_restarts"] = self.worker_restarts
        stats["transport"] = None
        stats["reconnects"] = 0
        stats["inflight_high_water"] = 0
        stats["scale_ups"] = 0
        stats["scale_downs"] = 0
        stats["migrations"] = 0
        return stats


class LocalCluster(ClusterBase):
    """Single-process reference backend: every task executes inline.

    No threads (determinism) and strict FIFO ordering; the work queue is
    fully drained between spout emissions, giving exact, replayable
    per-window semantics without any coordination.
    """
