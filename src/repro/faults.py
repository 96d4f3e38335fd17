"""Deterministic fault injection for the execution backends.

A :class:`FaultPlan` is an immutable description of faults to inject
into a run — which worker to kill after how many batches, which bolt
should raise on which delivery, which acknowledgements to delay.  The
plan itself holds no mutable state; each executing process derives a
:class:`FaultRuntime` from it (:meth:`FaultPlan.runtime`) that counts
batches and deliveries locally.  Because both backends deliver tuples in
a deterministic order, a plan reproduces the same fault at the same
tuple on every run — which is what lets the chaos suite assert that a
*recovered* run is byte-identical to a clean one.

Fault kinds
-----------
:class:`KillWorker`
    The targeted worker process exits hard (``os._exit``) upon receiving
    its ``after_batches + 1``-th batch, leaving that batch unacknowledged
    — the parent observes a crash with work in flight.  Scoped to one
    ``incarnation`` (0 = the originally forked process), so a replacement
    worker does not immediately kill itself again.
:class:`RaiseInBolt`
    Processing of the ``nth`` tuple delivered to ``component`` (counted
    per runtime, optionally restricted to one ``stream``) raises
    :class:`InjectedFault` *instead of* running the bolt — the fault
    fires before any state mutation, so a retried or quarantined tuple
    leaves no partial effects.  ``sticky=True`` (a poison tuple) re-fires
    on every retry of the same delivery; ``sticky=False`` models a
    transient failure that succeeds on replay.  Retries run in place, so
    a retry is always of the last delivery a rule checked.
:class:`DelayAcks`
    The targeted worker sleeps before sending every ``every``-th
    acknowledgement — the knob for exercising barrier timeouts and for
    holding a window's barrier open while the parent routes ahead.

Counting is per :class:`FaultRuntime`, i.e. per process incarnation: a
replacement worker replays its window journal in the original delivery
order, so a sticky rule deterministically re-selects the same tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


class InjectedFault(RuntimeError):
    """The exception raised by :class:`RaiseInBolt` rules.

    A plain ``RuntimeError`` subclass (picklable with its single message
    argument) so it crosses the worker->parent link unchanged.
    """


@dataclass(frozen=True)
class KillWorker:
    """Kill worker ``worker`` upon receipt of batch ``after_batches + 1``."""

    worker: int
    after_batches: int
    incarnation: int = 0
    exit_code: int = 41


@dataclass(frozen=True)
class RaiseInBolt:
    """Raise in ``component`` on its ``nth`` delivered tuple (1-based)."""

    component: str
    nth: int
    stream: Optional[str] = None
    sticky: bool = True
    message: str = "injected fault"


@dataclass(frozen=True)
class DelayAcks:
    """Sleep ``seconds`` before every ``every``-th ack of ``worker``."""

    worker: int
    seconds: float
    every: int = 1


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, chainable collection of fault rules.

    Build plans fluently::

        plan = (FaultPlan()
                .kill_worker(0, after_batches=2)
                .raise_in("joiner", nth=7, stream="assigned"))

    and hand the plan to a cluster (``fault_plan=plan``) or a
    :class:`~repro.topology.pipeline.StreamJoinConfig`.  An empty plan is
    inert; executors skip all fault checks when ``plan.empty`` is true.
    """

    kills: tuple[KillWorker, ...] = ()
    raises: tuple[RaiseInBolt, ...] = ()
    delays: tuple[DelayAcks, ...] = ()

    # -- builders ------------------------------------------------------
    def kill_worker(
        self,
        worker: int,
        after_batches: int,
        incarnation: int = 0,
        exit_code: int = 41,
    ) -> "FaultPlan":
        rule = KillWorker(worker, after_batches, incarnation, exit_code)
        return replace(self, kills=self.kills + (rule,))

    def raise_in(
        self,
        component: str,
        nth: int,
        stream: Optional[str] = None,
        sticky: bool = True,
        message: str = "injected fault",
    ) -> "FaultPlan":
        if nth < 1:
            raise ValueError(f"nth is 1-based, got {nth}")
        rule = RaiseInBolt(component, nth, stream, sticky, message)
        return replace(self, raises=self.raises + (rule,))

    def raise_every(
        self,
        component: str,
        every: int,
        count: int,
        start: int = 1,
        stream: Optional[str] = None,
        sticky: bool = True,
        message: str = "injected fault",
    ) -> "FaultPlan":
        """``count`` raise rules at every ``every``-th delivery.

        A *sustained* fault source for soak and chaos runs: rules fire
        at deliveries ``start``, ``start + every``, ... — unlike a
        single :meth:`raise_in`, the pressure on the retry/dead-letter
        machinery never lets up.
        """
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        plan = self
        for k in range(count):
            plan = plan.raise_in(
                component,
                nth=start + k * every,
                stream=stream,
                sticky=sticky,
                message=message,
            )
        return plan

    def delay_acks(
        self, worker: int, seconds: float, every: int = 1
    ) -> "FaultPlan":
        rule = DelayAcks(worker, seconds, every)
        return replace(self, delays=self.delays + (rule,))

    # -- execution -----------------------------------------------------
    @property
    def empty(self) -> bool:
        return not (self.kills or self.raises or self.delays)

    def runtime(
        self, worker_index: Optional[int] = None, incarnation: int = 0
    ) -> "FaultRuntime":
        """Mutable counting state for one executing process.

        ``worker_index=None`` scopes the runtime to the parent process
        (only :class:`RaiseInBolt` rules apply there); a worker passes
        its index and incarnation so kill/delay rules can target it.
        """
        return FaultRuntime(self, worker_index, incarnation)


class _RaiseState:
    """Per-runtime firing state of one :class:`RaiseInBolt` rule."""

    __slots__ = ("rule", "count", "fired", "poisoned")

    def __init__(self, rule: RaiseInBolt):
        self.rule = rule
        self.count = 0
        self.fired = False
        #: a sticky rule fired and no later first attempt matched yet:
        #: retries are of the poison delivery
        self.poisoned = False

    def should_raise(
        self, component: str, stream: str, first_attempt: bool
    ) -> bool:
        rule = self.rule
        if component != rule.component:
            return False
        if rule.stream is not None and stream != rule.stream:
            return False
        if not first_attempt:
            return self.poisoned  # sticky: the poison tuple fails on every retry
        self.poisoned = False
        if self.fired:
            return False
        self.count += 1
        if self.count == rule.nth:
            self.fired = True
            self.poisoned = rule.sticky
            return True
        return False


class FaultRuntime:
    """Counting state derived from a plan, local to one process."""

    def __init__(
        self, plan: FaultPlan, worker_index: Optional[int], incarnation: int
    ):
        self._kill = None
        self._delays: tuple[DelayAcks, ...] = ()
        if worker_index is not None:
            for rule in plan.kills:
                if rule.worker == worker_index and rule.incarnation == incarnation:
                    self._kill = rule
                    break
            self._delays = tuple(
                d for d in plan.delays if d.worker == worker_index
            )
        self._raises = [_RaiseState(rule) for rule in plan.raises]
        self._batches = 0
        self._acks = 0

    @property
    def selects_deliveries(self) -> bool:
        """True when a :class:`RaiseInBolt` rule has to be shown every
        (tuple, task) delivery on its own — executors then deliver a
        fan-out per task instead of once per executor."""
        return bool(self._raises)

    def kill_on_batch(self) -> Optional[int]:
        """Called per received batch; the exit code to die with, or None."""
        self._batches += 1
        kill = self._kill
        if kill is not None and self._batches > kill.after_batches:
            return kill.exit_code
        return None

    def ack_delay(self) -> float:
        """Seconds to sleep before sending the next ack (0 = none)."""
        self._acks += 1
        return sum(
            d.seconds for d in self._delays if self._acks % max(1, d.every) == 0
        )

    def check_raise(
        self, component: str, stream: str, first_attempt: bool
    ) -> None:
        """Raise :class:`InjectedFault` if a rule selects this delivery.

        ``first_attempt`` gates the 1-based ``nth`` counting so retries
        are not double counted; a retry (False) is of the last delivery
        checked, so a sticky rule re-fires on it.
        """
        for state in self._raises:
            if state.should_raise(component, stream, first_attempt):
                raise InjectedFault(
                    f"{state.rule.message} ({component} delivery #{state.rule.nth})"
                )
