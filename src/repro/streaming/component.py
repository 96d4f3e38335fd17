"""Spout and Bolt base classes and the emit interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from time import perf_counter
from typing import Any, Optional, Protocol

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracing import Span
from repro.streaming.tuples import StreamTuple


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

        Offered to the lowest addressee, once per (tuple, executor):
        ``mask`` is the bitmask of the addressed task indices of this
        component, ``tasks`` and ``collectors`` are indexable by task
        index.  Return False, having changed nothing, to keep the
        per-task meaning: the executor then delivers the tuple to each
        addressee through :meth:`process`, ascending — what the base
        does, so retry budgets, fault rules and dead letters keep
        addressing one task.  A bolt whose co-located tasks share state
        overrides this to do the shared work once for all of them and
        return True; it must raise before it changes anything, because a
        failed call is redelivered per addressee the same way.
        """
        return False

    def join_executor(self, resident: "Bolt") -> None:
        """This task was adopted (live migration) by an executor that
        already runs ``resident``, a task of the same component: share
        whatever co-located tasks share."""

    def leave_executor(self) -> None:
        """This task migrated away: release what it holds of the state
        its executor's tasks share."""


def offer_fanout(
    task: Bolt, tup: StreamTuple, mask: int, tasks, collectors, histogram=None
) -> bool:
    """Executor side of :meth:`Bolt.process_fanout`: offer a fan-out
    entry to its lowest addressee ``task`` in one call, timed into
    ``histogram`` when it is taken.

    False means the entry must be delivered per owner instead: the bolt
    keeps the per-task meaning, or the call failed — retry budgets and
    dead letters address one task, and the per-owner delivery meets the
    same error again.
    """
    try:
        if histogram is None:
            return task.process_fanout(tup, mask, tasks, collectors)
        start = perf_counter()
        handled = task.process_fanout(tup, mask, tasks, collectors)
        if handled:
            histogram.observe(perf_counter() - start)
        return handled
    except Exception:
        return False


__all__ = [
    "Bolt",
    "Collector",
    "ComponentContext",
    "Spout",
    "StreamTuple",
    "offer_fanout",
]
