"""Elastic worker-pool control: scale/migrate decisions at barriers.

The parallel backend's worker pool is sized once at construction; under
a skewed stream (one viral AV-pair, see ``repro.data.zoo``) a single
worker can drown while the rest idle.  This module is the *decision*
half of the elasticity layer (``docs/elasticity.md``): a pure, seeded,
side-effect-free controller that the cluster consults once per window,
when the window closes.  The *mechanism* half — task moves at a drained
window boundary, worker retirement — lives in
:class:`~repro.streaming.parallel.ParallelCluster`.

Signals: one :class:`WorkerLoad` per live worker, whose ``docs`` /
``task_docs`` count the documents the closing window delivered to the
worker's tasks — the skew signal.  The cluster counts them per window,
so window k's load is exactly window k's documents.

Decisions are deliberately coarse — at most one action per window,
with a cooldown between actions — because a move is not free: every
window still in flight must drain first.  The controller is pure
(``decide`` mutates only its own cooldown state), so its policy
thresholds are unit-testable without any worker processes.

Determinism: a move happens only with no window in flight and
preserves per-task delivery order, so *whatever* the controller
decides, per-window results stay byte-identical to the local backend.
The document counts are a function of the input, so no decision depends
on timing; ``ElasticPolicy.force`` pins exact schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import TopologyError

#: default share of a window's documents that marks a worker "hot"
DEFAULT_HOT_SHARE = 0.6
#: default share below which a worker is a scale-down candidate
DEFAULT_COLD_SHARE = 0.02
#: default barriers to wait between consecutive elastic actions
DEFAULT_COOLDOWN_WINDOWS = 1


@dataclass(frozen=True)
class ElasticPolicy:
    """Immutable knobs of the elastic controller.

    ``min_workers``/``max_workers`` bound the live pool.  A worker whose
    share of the window's documents reaches ``hot_share`` triggers a
    scale-up (its hottest task migrates to a fresh worker); one whose
    share drops to ``cold_share`` is retired into the least-loaded
    survivor.

    ``force`` pins an exact action schedule for tests and drills:
    ``((window_index, "up"), ...)`` fires the named action at that
    barrier regardless of load, bypassing thresholds and cooldown —
    the seeded-chaos suite uses it to make migration timing exact.
    """

    min_workers: int = 1
    max_workers: int = 8
    hot_share: float = DEFAULT_HOT_SHARE
    cold_share: float = DEFAULT_COLD_SHARE
    cooldown_windows: int = DEFAULT_COOLDOWN_WINDOWS
    force: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise TopologyError(
                f"min_workers must be >= 1, got {self.min_workers}"
            )
        if self.max_workers < self.min_workers:
            raise TopologyError(
                f"max_workers ({self.max_workers}) must be >= min_workers "
                f"({self.min_workers})"
            )
        if not 0.0 < self.hot_share <= 1.0:
            raise TopologyError(
                f"hot_share must be in (0, 1], got {self.hot_share}"
            )
        if not 0.0 <= self.cold_share < self.hot_share:
            raise TopologyError(
                f"cold_share must be in [0, hot_share), got {self.cold_share}"
            )
        if self.cooldown_windows < 0:
            raise TopologyError(
                f"cooldown_windows must be >= 0, got {self.cooldown_windows}"
            )
        for entry in self.force:
            if (
                len(entry) != 2
                or not isinstance(entry[0], int)
                or entry[1] not in ("up", "down")
            ):
                raise TopologyError(
                    f"force entries are (window_index, 'up'|'down'), got {entry!r}"
                )


@dataclass(frozen=True)
class WorkerLoad:
    """One worker's load signals over the window that just completed."""

    worker: int
    #: task keys currently placed on this worker
    tasks: tuple[tuple[str, int], ...]
    #: per-task document counts, ``((key, docs), ...)``
    task_docs: tuple[tuple[tuple[str, int], int], ...]
    #: documents routed to this worker during the window
    docs: int


@dataclass(frozen=True)
class Decision:
    """One elastic action: what to move where.

    ``kind="up"``: migrate ``keys`` off worker ``source`` onto a newly
    spawned worker (``target is None``).  ``kind="down"``: migrate all
    of ``source``'s keys onto existing worker ``target`` and retire
    ``source``.
    """

    kind: str
    source: int
    keys: tuple[tuple[str, int], ...]
    target: Optional[int] = None
    reason: str = ""


class ElasticController:
    """Pure decision logic consulted once per closed window.

    State is limited to cooldown tracking; everything else is derived
    from the :class:`WorkerLoad` list passed in, so the controller can
    be unit-tested with synthetic loads.
    """

    def __init__(self, policy: ElasticPolicy) -> None:
        self.policy = policy
        self._forced = dict(policy.force)
        self._last_action_window: Optional[int] = None

    def decide(
        self, window_index: int, loads: list[WorkerLoad]
    ) -> Optional[Decision]:
        """The action to take as window ``window_index`` closes, or None.

        At most one action fires per call; organic (threshold-driven)
        actions additionally respect ``cooldown_windows``.  ``loads``
        holds one entry per *live* worker.
        """
        if not loads:
            return None
        forced = self._forced.pop(window_index, None)
        if forced is not None:
            decision = (
                self._scale_up(loads, forced=True)
                if forced == "up"
                else self._scale_down(loads, forced=True)
            )
            if decision is not None:
                self._last_action_window = window_index
            return decision
        if (
            self._last_action_window is not None
            and window_index - self._last_action_window
            <= self.policy.cooldown_windows
        ):
            return None
        decision = self._scale_up(loads) or self._scale_down(loads)
        if decision is not None:
            self._last_action_window = window_index
        return decision

    def _scale_up(
        self, loads: list[WorkerLoad], forced: bool = False
    ) -> Optional[Decision]:
        if len(loads) >= self.policy.max_workers:
            return None
        total = sum(load.docs for load in loads)
        if total == 0 and not forced:
            return None
        # a single task cannot split across workers, so a forced action
        # picks among the workers that can; hottest first, deterministic
        # tie-break on the lower index
        splittable = [load for load in loads if len(load.tasks) >= 2]
        candidates = splittable if forced else loads
        if not candidates:
            return None
        hot = max(candidates, key=lambda load: (load.docs, -load.worker))
        if len(hot.tasks) < 2:
            return None
        if not forced and hot.docs / total < self.policy.hot_share:
            return None
        hottest_key = max(
            hot.task_docs, key=lambda item: (item[1], item[0])
        )[0] if hot.task_docs else hot.tasks[0]
        share = hot.docs / total if total else 0.0
        return Decision(
            kind="up",
            source=hot.worker,
            keys=(hottest_key,),
            reason=(
                f"forced scale-up at worker {hot.worker}"
                if forced
                else f"worker {hot.worker} holds {share:.0%} of the window"
            ),
        )

    def _scale_down(
        self, loads: list[WorkerLoad], forced: bool = False
    ) -> Optional[Decision]:
        if len(loads) <= self.policy.min_workers or len(loads) < 2:
            return None
        total = sum(load.docs for load in loads)
        cold = min(loads, key=lambda load: (load.docs, load.worker))
        if not forced:
            if total == 0:
                return None
            if cold.docs / total > self.policy.cold_share:
                return None
        survivors = [load for load in loads if load.worker != cold.worker]
        target = min(survivors, key=lambda load: (load.docs, load.worker))
        share = cold.docs / total if total else 0.0
        return Decision(
            kind="down",
            source=cold.worker,
            keys=tuple(cold.tasks),
            target=target.worker,
            reason=(
                f"forced scale-down of worker {cold.worker}"
                if forced
                else f"worker {cold.worker} holds {share:.1%} of the window"
            ),
        )
