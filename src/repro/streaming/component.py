"""Spout and Bolt base classes, the emit interface and the executor
that delivers tuples to bolts."""

from __future__ import annotations

from abc import ABC, abstractmethod
from time import perf_counter
from typing import Any, Optional, Protocol, Sequence

from repro.exceptions import TupleProcessingError
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracing import Span
from repro.streaming.recovery import (
    DeadLetter,
    format_dead_letter_cause,
    truncated_repr,
)
from repro.streaming.tuples import StreamTuple, lowest_owner, owners_of


class Collector(Protocol):
    """Interface components use to emit tuples downstream."""

    def emit(
        self,
        stream: str,
        values: tuple[Any, ...],
        direct_task: Optional[int] = None,
    ) -> None: ...

    def emit_fanout(
        self,
        stream: str,
        values: tuple[Any, ...],
        targets,
    ) -> None:
        """Emit one payload to several direct tasks.

        Semantically identical to calling :meth:`emit` once per target
        with ``direct_task=target``, in target order; executors override
        it to carry the fan-out as one entry per destination executor
        with the target set as a bitmask (see :meth:`Bolt.process_fanout`).
        """
        for target in targets:
            self.emit(stream, values, direct_task=target)


class ComponentContext:
    """Execution context handed to a task at preparation time.

    Besides the task's coordinates in the topology, the context is the
    instrumentation entry point: ``ctx.metrics`` is the run's
    :class:`~repro.obs.registry.MetricsRegistry` (the no-op
    :data:`~repro.obs.registry.NULL_REGISTRY` unless observability was
    enabled) and ``ctx.trace(name)`` opens a span attributed to this
    component and task.
    """

    def __init__(
        self,
        component: str,
        task_index: int,
        parallelism: int,
        component_parallelism: dict[str, int],
        registry: Optional[MetricsRegistry] = None,
    ):
        self.component = component
        self.task_index = task_index
        self.parallelism = parallelism
        self._component_parallelism = dict(component_parallelism)
        self.metrics: MetricsRegistry = (
            registry if registry is not None else NULL_REGISTRY
        )

    def parallelism_of(self, component: str) -> int:
        """Number of tasks of another component (e.g. count of Joiners)."""
        return self._component_parallelism[component]

    def trace(self, name: str, **attributes) -> Span:
        """Open a span tagged with this task's component and index."""
        return self.metrics.trace(
            name, component=self.component, task=self.task_index, **attributes
        )

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"<Context {self.component}[{self.task_index}/{self.parallelism}]>"


class Spout(ABC):
    """A stream source.

    ``next_tuple`` emits zero or more tuples through the collector and
    returns ``True`` while the source has more data; returning ``False``
    marks the spout exhausted (the local cluster stops once all spouts
    are exhausted and all queues drained — a simplification of Storm's
    unbounded sources that suits finite experiments).
    """

    def open(self, context: ComponentContext) -> None:
        """Called once before the first ``next_tuple``."""

    @abstractmethod
    def next_tuple(self, collector: Collector) -> bool:
        """Emit the next tuple(s); return False when exhausted."""


class Bolt(ABC):
    """A stream processor: consumes tuples, optionally emits new ones."""

    def prepare(self, context: ComponentContext) -> None:
        """Called once before the first ``process``."""

    @abstractmethod
    def process(self, tup: StreamTuple, collector: Collector) -> None:
        """Handle one incoming tuple."""

    def process_fanout(
        self, tup: StreamTuple, mask: int, tasks, collectors
    ) -> bool:
        """Handle one tuple addressed to several tasks of this executor.

        :meth:`Executor.execute` offers it to the lowest addressee, once
        per (tuple, executor), unless a fault rule has to select one
        (tuple, task) delivery: ``mask`` is the bitmask of the addressed
        task indices of this component, ``tasks`` and ``collectors`` are
        indexable by task index.  Return False, having changed nothing,
        to keep the per-task meaning: the executor then delivers the
        tuple to each addressee through :meth:`process`, ascending —
        what the base does, so retry budgets, fault rules and dead
        letters keep addressing one task.  A bolt whose co-located tasks
        share state overrides this to do the shared work once for all of
        them and return True; it must raise before it changes anything,
        because a failed call is delivered per addressee the same way.
        """
        return False

    def join_executor(self, resident: Optional[Bolt], metrics: MetricsRegistry) -> None:
        """This task was adopted (a task move) by an executor: count
        into its ``metrics``, and share whatever co-located tasks share
        with ``resident``, a task of the same component it already runs
        (None: it runs none)."""


class Executor:
    """The one delivery loop of every backend: runs addressed entries
    on one process's tasks (the local FIFO, a worker's batches).

    ``tasks`` and ``collectors`` map a component to its tasks here, by
    task index; ``hists`` to its ``executor.execute_seconds`` histogram
    (every component's, or empty: untimed); ``faults`` is the process's
    :class:`~repro.faults.FaultRuntime` or None; ``sink`` takes dead
    letters (None: raise).  ``failures`` counts raising deliveries.
    """

    __slots__ = (
        "tasks", "collectors", "hists", "faults", "max_retries", "sink", "failures"
    )

    def __init__(self, tasks, collectors, hists, faults, max_retries, sink) -> None:
        self.tasks = tasks
        self.collectors = collectors
        self.hists = hists
        self.faults = faults
        self.max_retries = max_retries
        self.sink = sink
        self.failures = 0

    def execute(self, component: str, mask: int, tup: StreamTuple) -> int:
        """Deliver ``tup`` to the tasks of ``component`` in ``mask``;
        return how many of those assignments were processed.

        A fan-out is offered to :meth:`Bolt.process_fanout` unless a
        fault rule selects deliveries.  Otherwise each owner, ascending,
        gets a delivery, retried in place up to ``max_retries`` times,
        then handed to the sink or raised as
        :class:`~repro.exceptions.TupleProcessingError`.
        """
        tasks = self.tasks[component]
        collectors = self.collectors[component]
        hists = self.hists
        hist = hists[component] if hists else None
        faults = self.faults
        if not mask & (mask - 1):
            owners: Sequence[int] = (mask.bit_length() - 1,)
        else:
            if faults is None or not faults.selects_deliveries:
                try:
                    start = perf_counter() if hist is not None else 0.0
                    handled = tasks[lowest_owner(mask)].process_fanout(
                        tup, mask, tasks, collectors
                    )
                except Exception:  # the per-owner delivery meets it again
                    handled = False
                if handled:
                    if hist is not None:
                        hist.observe(perf_counter() - start)
                    return mask.bit_count()  # accounting stays per assignment
            owners = owners_of(mask)
        processed = 0
        for owner in owners:
            task = tasks[owner]
            collector = collectors[owner]
            attempts = 0
            while True:
                try:
                    if faults is not None:
                        faults.check_raise(component, tup.stream, not attempts)
                    if hist is None:
                        task.process(tup, collector)
                    else:
                        start = perf_counter()
                        task.process(tup, collector)
                        hist.observe(perf_counter() - start)
                    processed += 1
                except Exception as exc:
                    self.failures += 1
                    if attempts < self.max_retries:
                        attempts += 1
                        continue
                    if self.sink is None:
                        raise TupleProcessingError(
                            component, owner, attempts, exc
                        ) from exc
                    cause, traceback_text = format_dead_letter_cause(exc)
                    self.sink(DeadLetter(
                        component, owner, tup.stream, attempts, cause,
                        traceback_text, truncated_repr(tup.values),
                    ))
                break
        return processed


__all__ = [
    "Bolt",
    "Collector",
    "ComponentContext",
    "Executor",
    "Spout",
    "StreamTuple",
]
