"""Process-parallel execution backend.

:class:`ParallelCluster` executes selected components' tasks in worker
processes so an m-machine topology can actually use m cores, while the
remaining components (the control plane: spouts, partition mining,
routing, metrics sinks) stay in the parent and keep the exact FIFO
semantics of :class:`~repro.streaming.executor.LocalCluster`.

The cluster is a composition of :class:`~repro.streaming.executor.ClusterBase`
(the deterministic topology executor) and a
:class:`~repro.streaming.transport.Transport` (how workers are started
and how a worker starts).  Two transports ship: ``"pipe"`` — workers
forked over a ``socketpair``, the single-host default — and
``"socket"`` — ``python -m repro.worker`` subprocesses over TCP,
including attach-mode addressing for workers on other hosts
(``docs/distributed.md``).  After spawn both speak the same
length-prefixed frames through one link class, one reply mux and one
worker loop, so everything below the transport seam is
transport-agnostic.

Design, in terms of the Fig. 2 topology: the Joiners are pure "leaf"
workers — they receive routed documents and punctuation and emit only
per-window statistics — so the parent ships their input tuples to
workers in **size-bounded batches** over their links and merges the
emissions back.  A batch is cut when it reaches ``batch_size`` entries
or at a window barrier, never by the clock, so with no fault and no
elastic action each worker's frames are a function of the input alone.
Three properties keep runs exact and replayable:

* **Per-task FIFO.**  Every delivery to a remote task flows through its
  worker's single ordered link, so a task observes tuples in exactly
  the order the local backend would have delivered them.  A fan-out
  (``emit_fanout``) travels as **one entry per destination worker**
  carrying the bitmask of that worker's addressed tasks; buffering,
  journaling and the wire handle the entry once, while every
  counter keeps counting per assignment (``popcount(mask)``).
* **Two-phase overlapped barrier.**  When a tuple on a configured
  *barrier stream* (the window-end markers) is shipped, the parent
  flushes all pending batches at the next queue-idle point and records
  the barrier's high-water batch seq — but does **not** block: routing
  and encoding of the next window continue while the acks drain
  (phase 1).  A barrier *completes* (phase 2) once no batch at or below
  its seq is unacknowledged; only then are that window's journals
  cleared and its stashed remote emissions released, in global batch
  order — so the parent re-injects them deterministically and
  per-window results stay byte-identical to the local backend.  Every
  barrier completes through one method (``_complete_barriers``), oldest
  first: the end of a pump completes the ones whose acks have drained,
  :meth:`ParallelCluster.drain` waits for each in turn.  At most
  ``pipeline_depth`` barriers may be outstanding before the parent
  blocks on the oldest (``pipeline_depth=0`` reproduces the fully
  synchronous pre-pipelining plane).  A credit-style ack drain runs on
  every flush and idle pass, keeping links full during compute instead
  of only applying backpressure at the blocking ``max_inflight`` limit.
  The protocol state — per-worker journals, the sticky log and the
  barrier tracker — lives in the pure classes of
  :mod:`repro.streaming.protocol`.
* **Failure containment.**  A worker runs every entry through the
  base's :class:`~repro.streaming.component.Executor`; a tuple that
  exhausts its retry budget ships in the ack as a
  :class:`~repro.streaming.recovery.DeadLetter` stamped with the worker
  index and batch sequence, or surfaces as
  :class:`~repro.exceptions.TupleProcessingError` (with both) in the
  parent rather than a hang.

Crash recovery (the upstream-backup story, ``docs/fault_tolerance.md``):
the parent journals every batch shipped to a worker since the last
barrier, as the raw entries it encoded — with tumbling windows, a
worker's state is exactly replayable from that journal (a sliding
extent spans windows, so sliding mode refuses a restart policy and an
elastic pool on this backend), so no
checkpointing is needed, and since encoding is deterministic a replayed
batch re-encodes to the bytes of its first send.  Under a
:class:`~repro.streaming.recovery.RestartPolicy`, a dead worker is
replaced by a fresh spawn over a fresh link (the parent's task copies
are pristine — it never executes remote tasks itself) and its journal
is re-shipped.  Acknowledged batches are replayed for state only: their
re-acks are *suppressed* so emissions and counters are never
double-applied and recovered runs stay byte-identical to clean ones.
Deliveries on configured ``sticky_streams`` (cross-window control
broadcasts such as partition versions) are logged once per cluster past
barriers and replayed first, cut to the tasks the slot runs.  When the
per-window restart budget runs out the run aborts with
:class:`~repro.exceptions.WorkerCrashError` — or, with
``degrade=True``, the dead worker is respawned *into the parent*, onto
an :class:`~repro.streaming.transport.InlineLink`: a worker session in
this process over a copy of the pristine tasks.  It receives the replay
a fresh worker would, and its replies take the ordinary ack path; from
then on the slot is one like any other, fed through its link.  Respawn,
degrade and a task move all ship history through one method
(``_ship_history``), and every blocking ack wait goes through one
bounded wait (``_wait_until``).

Observability: each worker records into its (shipped copy of the) run's
registry, which the worker loop zeroes (``MetricsRegistry.reset``)
before it builds its session — a worker spawned mid-run inherits the
parent's activity so far and must not count it twice;
:meth:`ParallelCluster.snapshot` fetches every worker's snapshot and
merges it with the parent's via :func:`repro.obs.registry.merge_snapshots`.

Elasticity (``docs/elasticity.md``): with an
:class:`~repro.streaming.elastic.ElasticPolicy`, the cluster consults a
pure :class:`~repro.streaming.elastic.ElasticController` once per
window, when the window *closes*, with the documents that window
delivered to each task.  A scale-up spawns a fresh worker and moves
the hot worker's hottest task to it; a scale-down moves a cold worker's
tasks into the least-loaded survivor and retires it.  Like the paper's
repartitioning (§VI-A), tasks move only at a window boundary with no
window in flight: a decision first completes every outstanding barrier,
so no batch journal holds an entry and no first ack is owed.  Routing
(the slots' ``assigned`` and the per-worker task masks) then swaps, the
destination receives an ``("adopt", tasks)`` message followed by the
sticky log's cut for the moved tasks, the source a ``("disown", keys)``,
and the moved tasks take effect from the next window on — so per-task
delivery order is preserved and output and counters stay identical to
the static pool.  Nothing routable is ever dropped: ``max_inflight``
only makes the parent wait.
"""

from __future__ import annotations

import os
import random
from time import monotonic, sleep
from typing import Optional, Sequence, Union

from repro.exceptions import TopologyError, TupleProcessingError, WorkerCrashError
from repro.faults import FaultPlan
from repro.obs.registry import (
    MetricsRegistry,
    ObservabilitySnapshot,
    merge_snapshots,
)
from repro.streaming.elastic import (
    Decision,
    ElasticController,
    ElasticPolicy,
    WorkerLoad,
)
from repro.streaming.executor import ClusterBase
from repro.streaming.protocol import BarrierTracker, Journal, StickyLog
from repro.streaming.recovery import DeadLetterQueue, RestartPolicy
from repro.streaming.topology import Topology
from repro.streaming.transport import (
    InlineLink,
    LinkDown,
    Transport,
    WireCodec,
    WorkerInit,
    WorkerLink,
    make_transport,
)
from repro.streaming.transport.framing import parse_address
from repro.streaming.tuples import StreamTuple, lowest_owner, owners_of, task_masks

#: default number of entries per shipped batch; deep batches amortize
#: per-frame encode/send/ack costs — the window barrier cuts a window's
#: tail
DEFAULT_BATCH_SIZE = 512
#: minimum seconds between opportunistic ack polls on the idle path (an
#: empty poll is still an ``epoll_wait`` syscall plus the selector's
#: Python wrapper, ~1.3 us on a 2-CPU x86 host; the idle path runs at
#: least once per document, while the Fig. 2 topology ships only ~2.1
#: entries per document to the workers on rwData and NoBench, in
#: batches of up to ``batch_size`` — most unthrottled polls would find
#: no ack)
IDLE_POLL_INTERVAL_S = 0.0005
#: default bound on unacknowledged batches per worker before the parent
#: blocks (backpressure; also keeps link buffers from deadlocking).
#: Sized so a full-depth pipeline of large windows stages without
#: tripping backpressure mid-window
DEFAULT_MAX_INFLIGHT = 32
#: how long the parent waits on a barrier before declaring the run stuck
DEFAULT_BARRIER_TIMEOUT_S = 120.0
#: default number of window barriers that may be outstanding before the
#: parent blocks on the oldest (0 = fully synchronous barriers)
DEFAULT_PIPELINE_DEPTH = 2


class _WorkerHandle:
    """Parent-side state of one worker slot (journal, acks, link).

    The slot is live iff it has a link: a scale-down retires it by
    reaping the link for good.
    """

    __slots__ = (
        "index",
        "assigned",
        "link",
        "pending",
        "buffer",
        "snapshots",
        "awaiting_snapshot",
        "journal",
        "restarts_in_window",
        "incarnation",
    )

    def __init__(self, index: int, assigned: list[tuple[str, int]]):
        self.index = index
        #: the one placement record: the (component, task_index) keys
        #: this slot runs
        self.assigned = assigned
        self.link: Optional[Union[WorkerLink, InlineLink]] = None
        self.pending: set[int] = set()
        #: raw (component, task_index, StreamTuple, mask) entries not yet
        #: shipped: one tuple for this worker's tasks in ``mask``
        self.buffer: list = []
        #: incarnation -> its latest registry snapshot; a dead
        #: incarnation's stays, so merged counters never move backward
        self.snapshots: dict[int, dict] = {}
        #: the incarnation a snapshot request went to, None when no
        #: reply is owed
        self.awaiting_snapshot: Optional[int] = None
        #: upstream backup: every batch shipped since the last completed
        #: barrier
        self.journal = Journal()
        self.restarts_in_window = 0
        self.incarnation = 0


class ParallelCluster(ClusterBase):
    """Multi-core backend: remote components execute in worker processes.

    Parameters beyond the base executor's:

    remote_components:
        Component names whose tasks run in worker processes.  Their
        tasks are assigned round-robin over the worker slots.
    barrier_streams:
        Streams acting as flush barriers: after shipping a tuple on one
        of these, the parent synchronizes with all workers at the next
        queue-idle point (see module docstring).  Each completed barrier
        is a *window boundary*: batch journals are cleared and restart
        budgets reset.
    sticky_streams:
        Streams whose tuples carry cross-window control state (e.g.
        partition-set broadcasts).  They are logged past barriers and
        replayed into a replacement worker before its window journal,
        and into the destination of a task move, so a task sees the
        control decisions made in earlier windows wherever it runs.
    restart_policy:
        Enables worker supervision: a dead worker is replaced (bounded
        restarts per window, exponential backoff with seeded jitter) and
        its journal replayed over a fresh link.  On budget exhaustion
        the run aborts with
        :class:`~repro.exceptions.WorkerCrashError`, or — with
        ``degrade=True`` — the worker is respawned onto an in-process
        link and its slot then serves like any other.  Without a
        policy, any worker death raises
        :class:`~repro.exceptions.TupleProcessingError` (the pre-existing
        fail-fast behavior).
    transport:
        How workers run: ``"pipe"`` (forked processes, the default) or
        ``"socket"`` (``python -m repro.worker`` subprocesses over TCP);
        a :class:`~repro.streaming.transport.Transport` instance is also
        accepted for custom substrates.
    workers:
        Worker count, or — socket transport only — a list of
        ``host:port`` addresses, one worker per entry (``tcp://host:port``
        attaches to an already-running worker instead of spawning one).
        Defaults to ``min(#remote tasks, os.cpu_count())``.
    batch_size:
        Entries per shipped batch; a window barrier ships a partial one.
    max_inflight:
        Per-worker cap on unacknowledged batches: flow control — the
        parent waits for acks, it never drops an entry.
    pipeline_depth:
        How many window barriers may be outstanding before the parent
        blocks on the oldest.  0 restores the fully synchronous
        pre-pipelining barrier (flush + block at every window end);
        the default of :data:`DEFAULT_PIPELINE_DEPTH` lets the parent
        route and encode the next window while the previous window's
        acks drain.  Emission release order is seq-deterministic at
        every depth, so results are byte-identical across settings.
    codec:
        The :class:`~repro.streaming.transport.WireCodec` that frames
        every parent->worker batch and encodes emissions back (e.g.
        :func:`repro.topology.messages.wire_codec`); defaults to the
        base codec, which pickles every entry into the frame's
        envelope.  One stateless instance serves every link and every
        incarnation.
    dead_letters / fault_plan:
        As on :class:`~repro.streaming.executor.ClusterBase`; both are
        honored inside worker processes (quarantined tuples travel back
        with the batch ack, fault rules run in the worker loop).
    elastic:
        An :class:`~repro.streaming.elastic.ElasticPolicy` arming the
        elastic worker pool: scale-up/down decided when a window closes
        and carried out as task moves at a drained window boundary.
        The initial pool keeps its configured size; the policy's
        ``min_workers``/``max_workers`` bound how far the controller may
        move it.
    """

    def __init__(
        self,
        topology: Topology,
        max_tuples: int = 200_000_000,
        max_retries: int = 0,
        registry: Optional[MetricsRegistry] = None,
        *,
        remote_components: Sequence[str] = (),
        barrier_streams: Sequence[str] = (),
        sticky_streams: Sequence[str] = (),
        restart_policy: Optional[RestartPolicy] = None,
        transport: Union[str, Transport] = "pipe",
        workers: Optional[Union[int, Sequence[str]]] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
        barrier_timeout_s: float = DEFAULT_BARRIER_TIMEOUT_S,
        codec=None,
        dead_letters: Optional[DeadLetterQueue] = None,
        fault_plan: Optional[FaultPlan] = None,
        elastic: Optional[ElasticPolicy] = None,
    ):
        super().__init__(
            topology,
            max_tuples,
            max_retries,
            registry,
            dead_letters=dead_letters,
            fault_plan=fault_plan,
        )
        if batch_size < 1:
            raise TopologyError(f"batch_size must be >= 1, got {batch_size}")
        if max_inflight < 1:
            raise TopologyError(f"max_inflight must be >= 1, got {max_inflight}")
        if pipeline_depth < 0:
            raise TopologyError(
                f"pipeline_depth must be >= 0, got {pipeline_depth}"
            )
        addresses: Optional[tuple[str, ...]] = None
        if workers is not None and not isinstance(workers, int):
            addresses = tuple(workers)
            if not addresses:
                raise TopologyError("workers address list must not be empty")
            for address in addresses:
                try:
                    parse_address(address)
                except ValueError as exc:
                    raise TopologyError(str(exc)) from None
            workers = len(addresses)
        if isinstance(transport, str):
            self._transport = make_transport(transport, addresses=addresses)
        else:
            if addresses is not None:
                raise TopologyError(
                    "worker addresses require a transport name, not an "
                    "already-built Transport instance"
                )
            self._transport = transport
        self._remote_components = tuple(remote_components)
        self._barrier_streams = frozenset(barrier_streams)
        self._sticky_streams = frozenset(sticky_streams)
        self._restart_policy = restart_policy
        self._rng = random.Random(restart_policy.seed if restart_policy else 0)
        self._batch_size = batch_size
        self._max_inflight = max_inflight
        self._pipeline_depth = pipeline_depth
        self._barrier_timeout_s = barrier_timeout_s
        self._codec = codec if codec is not None else WireCodec()
        self._elastic = (
            ElasticController(elastic) if elastic is not None else None
        )
        #: elastic action counters, surfaced through stats()
        self.scale_ups = 0
        self.scale_downs = 0
        self.migrations = 0
        #: peak simultaneous unacknowledged batches across all workers
        self.inflight_high_water = 0
        #: dead workers respawned onto an in-process link
        self.degraded_workers = 0
        remote_tasks: list[tuple[str, int]] = []
        for name in self._remote_components:
            spec = topology.components.get(name)
            if spec is None:
                raise TopologyError(f"unknown remote component {name!r}")
            if spec.is_spout:
                raise TopologyError(
                    f"spout {name!r} cannot run remotely — spouts drive the run"
                )
            remote_tasks.extend((name, i) for i in range(spec.parallelism))
        if workers is None:
            workers = min(len(remote_tasks), os.cpu_count() or 1)
        n = max(1, min(workers, len(remote_tasks))) if remote_tasks else 0
        self._workers: list[_WorkerHandle] = [
            _WorkerHandle(i, remote_tasks[i::n]) for i in range(n)
        ]
        #: component -> [(worker, bitmask of its tasks of the component)],
        #: derived from the slots' ``assigned``; how a fan-out is cut per
        #: worker
        self._worker_masks: dict[str, list[tuple[_WorkerHandle, int]]] = {}
        self._rebuild_worker_masks()
        self._batch_seq = 0
        self._barrier_pending = False
        self._last_idle_poll = 0.0
        #: outstanding window barriers and their stashed emissions
        self._barriers = BarrierTracker()
        #: every delivery on a sticky stream to a remote component
        self._sticky = StickyLog()
        #: the open window's entries per ``(component, mask)`` — the
        #: elastic controller's load signal
        self._docs: dict[tuple[str, int], int] = {}
        self._pumping = False
        self._started = False
        self._closed = False

    @property
    def worker_count(self) -> int:
        """Worker slots that hold tasks (scale-downs retire theirs)."""
        return sum(bool(handle.assigned) for handle in self._workers)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, handle: _WorkerHandle, inline: bool = False) -> None:
        """Start ``handle``'s next incarnation over a fresh link, from the
        parent's pristine copies of its tasks — on an :class:`InlineLink`
        in this process if ``inline``, where only the plan's raise rules
        reach it: no kill or delay rule can fire in the parent."""
        plan = self._fault_plan
        if inline and plan is not None:
            plan = FaultPlan(raises=plan.raises)
        init = WorkerInit(
            worker_index=handle.index,
            incarnation=handle.incarnation,
            tasks={key: self._tasks[key[0]][key[1]] for key in handle.assigned},
            codec=self._codec,
            registry=self.registry,
            max_retries=self.max_retries,
            quarantine=self.dead_letters is not None,
            fault_plan=plan,
        )
        if inline:
            handle.link = InlineLink(init, self._transport)
        else:
            handle.link = self._transport.spawn(init)

    def _ensure_started(self) -> None:
        if self._started or not self._workers:
            return
        if self._closed:
            raise TopologyError("cluster is closed")
        self._transport.start()
        for handle in self._workers:
            self._spawn(handle)
        self._started = True

    def run(self) -> None:
        self._ensure_started()
        try:
            super().run()
            self.drain()
        except Exception:
            # a mid-run failure must not leak worker processes or
            # sockets — only context-manager users would otherwise
            # clean up
            self.close()
            raise

    def pump(self) -> None:
        self._ensure_started()
        try:
            super().pump()
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Delivery / batching
    # ------------------------------------------------------------------
    def _rebuild_worker_masks(self) -> None:
        """Placement changed (construction, a task move)."""
        masks: dict[str, list[tuple[_WorkerHandle, int]]] = {}
        for handle in self._workers:
            for component, mask in task_masks(handle.assigned).items():
                masks.setdefault(component, []).append((handle, mask))
        self._worker_masks = masks

    def _deliver(self, component: str, mask: int, tup: StreamTuple) -> None:
        if tup.stream in self._sticky_streams and component in self._worker_masks:
            # the lowest seq its batch can ship under (see StickyLog)
            self._sticky.record(self._batch_seq + 1, component, mask, tup)
        for handle, worker_mask in self._worker_masks.get(component, ()):
            owners = mask & worker_mask
            if owners:
                self._buffer(handle, component, tup, owners)
                mask ^= owners
        if mask:  # tasks of non-remote components
            super()._deliver(component, mask, tup)

    def _buffer(
        self, handle: _WorkerHandle, component: str, tup: StreamTuple, mask: int
    ) -> None:
        """Queue one entry — ``tup`` for ``handle``'s tasks in ``mask`` —
        for the worker's next batch."""
        if self._elastic is not None:
            docs = self._docs
            key = (component, mask)
            docs[key] = docs.get(key, 0) + 1
        # buffered raw: the journal keeps raw entries, every send encodes
        handle.buffer.append((component, lowest_owner(mask), tup, mask))
        if tup.stream in self._barrier_streams:
            self._barrier_pending = True
        if len(handle.buffer) >= self._batch_size:
            self._flush(handle)

    def _flush(self, handle: _WorkerHandle) -> None:
        if not handle.buffer:
            return
        if not self._started:
            raise TopologyError(
                "remote tuples can only flow inside run()/pump()"
            )
        self._batch_seq += 1
        seq = self._batch_seq
        raw = handle.buffer
        handle.buffer = []
        message = self._codec.encode_batch(seq, raw)
        handle.journal.batches[seq] = raw
        handle.pending.add(seq)
        if len(handle.pending) > self.inflight_high_water:
            self.inflight_high_water = len(handle.pending)
        try:
            # stage, don't write: the window's bytes hit the wire in one
            # burst at the barrier (see _pump_links), so worker wakeups
            # stay out of the parent's routing path
            handle.link.stage(message)
        except LinkDown:
            # the worker died while idle; recovery replays the journal,
            # which already holds this batch
            self._on_worker_failure(handle)
        # credit loop: every send opportunistically drains whatever acks
        # have arrived, so links stay full during compute and the hard
        # blocking limit below is the exception, not the steady state
        self._poll_results(timeout=0.0)
        if len(handle.pending) >= self._max_inflight:
            self._wait_until(
                lambda: len(handle.pending) < self._max_inflight, "backpressure"
            )

    def _close_window(self) -> None:
        """Phase 1: flush every buffer and, if a barrier tuple was
        shipped, record its barrier over every batch shipped so far.
        Routing and encoding of the next window continue while the acks
        drain.

        The window's per-task document counts are final here, so this
        is where the elastic controller is consulted, once per window.
        A decision costs one drain: every outstanding barrier completes
        before the move (:meth:`_complete_barriers`)."""
        for handle in self._workers:
            self._flush(handle)
        if self._barrier_pending:
            self._barrier_pending = False
            index = self._barriers.record(self._batch_seq)
            if self._elastic is not None:
                docs, self._docs = self._docs, {}
                decision = self._elastic.decide(index, self._worker_loads(docs))
                if decision is not None:
                    self._complete_barriers(0, decision)

    def _on_idle(self) -> bool:
        if not self._started:
            return False
        barriers = self._barriers
        if self._barrier_pending:
            self._close_window()
            # uncork: release the window's staged bytes in one burst
            self._pump_links()
            # a barrier formed: drain whatever acks arrived right away so
            # completion latency stays low at window ends
            self._last_idle_poll = 0.0
        # opportunistic, non-blocking ack collection keeps the links
        # drained; emissions stay stashed until their barrier completes
        # so the re-injection order stays deterministic.  Throttled:
        # _on_idle runs once per delivered tuple, and an empty-queue poll
        # is not free
        if (barriers.open or self._any_pending()) and (
            monotonic() - self._last_idle_poll >= IDLE_POLL_INTERVAL_S
        ):
            self._last_idle_poll = monotonic()
            self._poll_results(timeout=0.0)
            self._complete_barriers(self._pipeline_depth)
        elif len(barriers.open) > self._pipeline_depth:
            self._complete_barriers(self._pipeline_depth)
        # completed barriers (an elastic drain's too) released their
        # emissions into the local FIFO
        return bool(self._queue)

    def _finish(self) -> None:
        """End-of-pump hook: close the window, but only complete the
        barriers whose acks have already drained (plus the oldest while
        more than ``pipeline_depth`` are outstanding).  :meth:`drain` is
        the blocking variant that runs the pipeline dry."""
        self._settle(block=False)

    def drain(self) -> None:
        """Run the pipeline dry: complete every outstanding barrier and
        release every stashed emission.  Called at the end of
        :meth:`run` and by session owners before reading final results;
        a no-op when nothing is outstanding."""
        self._settle(block=True)

    def _settle(self, block: bool) -> None:
        """Close the window and complete barriers, then run released
        emissions through the local FIFO, until nothing is queued or
        buffered.  ``block`` completes every barrier — waiting on each —
        and, once no ack is owed, releases the emissions of the batches
        after the last barrier too."""
        if not self._started:
            return
        while True:
            self._close_window()
            self._pump_links()
            self._poll_results(timeout=0.0)
            self._complete_barriers(0 if block else self._pipeline_depth)
            if block:
                self._wait_until(lambda: not self._any_pending(), "drain")
                # the run is over: trailing batches are history too
                self._clear_through(self._batch_seq)
                self._reinject(self._barriers.release_rest())
            if self._queue:
                self._drain()
            elif not any(h.buffer for h in self._workers):
                break

    def _oldest_barrier_ready(self) -> bool:
        return self._barriers.ready(handle.pending for handle in self._workers)

    def _complete_barriers(
        self, keep: int, decision: Optional[Decision] = None
    ) -> None:
        """Phase 2, the one path every barrier completes through: oldest
        first, every barrier whose acks have drained, then — blocking on
        each in turn — as many as it takes to leave at most ``keep``
        outstanding (the depth cap bounds stash and journal growth to
        ``keep + 1`` windows).  Each completion clears the journals
        through its seq.

        With nothing outstanding any more, ``decision`` (``keep`` is 0)
        moves tasks at a drained window boundary: every journal is
        empty and no first ack is owed.  Only then are the completed
        windows' stashed emissions routed, in batch order, so whatever
        they address follows the new placement."""
        emissions: list = []
        while self._barriers.open:
            if not self._oldest_barrier_ready():
                if len(self._barriers.open) <= keep:
                    break
                self._wait_until(self._oldest_barrier_ready, "barrier")
            window = self._barriers.complete()
            self._clear_through(window.seq)
            emissions += window.emissions
        if decision is not None:
            self._apply_decision(decision)
        self._reinject(emissions)

    def _clear_through(self, seq: int) -> None:
        """Batches at or below ``seq`` are acknowledged history: drop
        them from every journal, count the sticky deliveries they
        carried as history and reset the restart budgets."""
        self._sticky.through = seq
        for handle in self._workers:
            handle.journal.clear_through(seq)
            handle.restarts_in_window = 0
        if self._obs:
            self.registry.gauge("executor.inflight_high_water").set_max(
                self.inflight_high_water
            )

    def _reinject(self, emissions: list) -> None:
        """Route released remote emissions, in the order given."""
        for component, task_index, stream, direct, values in emissions:
            self._route(
                StreamTuple(
                    stream=stream,
                    values=self._codec.decode(stream, values),
                    source=component,
                    source_task=task_index,
                    direct_task=direct,
                )
            )

    # ------------------------------------------------------------------
    # Result collection
    # ------------------------------------------------------------------
    def _any_pending(self) -> bool:
        return any(handle.pending for handle in self._workers)

    def _wait_until(self, done, phase: str) -> None:
        """Poll acks and supervise workers until ``done()`` holds.

        The parent's one blocking wait — ``phase`` is ``"barrier"``,
        ``"backpressure"``, ``"drain"``, ``"snapshot"`` or ``"retire"``.
        Past ``barrier_timeout_s`` it raises a :class:`TopologyError`
        naming the phase and every worker still owing acks or a
        snapshot.
        """
        deadline = monotonic() + self._barrier_timeout_s
        while not done():
            if monotonic() > deadline:
                stuck = ", ".join(
                    f"worker {h.index} ({len(h.pending)} batch(es), lowest "
                    f"seq {min(h.pending)})"
                    if h.pending
                    else f"worker {h.index} (snapshot)"
                    for h in self._workers
                    if h.pending or h.awaiting_snapshot is not None
                )
                raise TopologyError(
                    f"parallel {phase} wait timed out after "
                    f"{self._barrier_timeout_s:g}s; unacked: {stuck or 'none'}"
                )
            self._poll_results(timeout=0.05)
            self._supervise()

    def _pump_links(self) -> None:
        """Finish buffered non-blocking sends on every live link.

        Guarded against reentry: ``_on_worker_failure`` polls results,
        which pumps, which may detect another failure."""
        if self._pumping:
            return
        self._pumping = True
        try:
            for handle in self._workers:
                link = handle.link
                if link is None:
                    continue
                try:
                    link.pump()
                except LinkDown:
                    self._on_worker_failure(handle)
        finally:
            self._pumping = False

    def _poll_results(self, timeout: float) -> int:
        """Handle every currently available worker message.

        Blocking polls (timeout > 0) are the waits — barrier drains,
        backpressure, snapshots — so they also pump the links; the
        zero-timeout credit drains inside the routing hot path leave
        staged bytes corked until their barrier.
        """
        if timeout > 0:
            self._pump_links()
        handled = 0
        while True:
            message = self._transport.recv(
                timeout if handled == 0 else 0.0
            )
            if message is None:
                return handled
            self._handle_message(message)
            handled += 1

    def _handle_message(self, message: tuple) -> None:
        kind = message[0]
        if kind == "ack":
            _, seq, worker_index, counts, failures, emissions, dead = message
            handle = self._workers[worker_index]
            handle.pending.discard(seq)
            if handle.journal.suppressed(seq):
                # a replayed batch that was already acknowledged by the
                # dead incarnation: it rebuilt worker state, but its
                # effects (emissions, counters, dead letters) were
                # applied with the original ack — drop them
                return
            self._executor.failures += failures
            for component, n in counts:
                self._count_processed(component, n)
            self._barriers.stash(seq, emissions)
            for letter in dead:
                self._record_dead_letter(letter)
        elif kind == "error":
            _, worker_index, seq, component, task_index, retries, cause = message
            # the batch died with the tuple — it will never be acked
            self._workers[worker_index].pending.discard(seq)
            raise TupleProcessingError(
                component,
                task_index,
                retries,
                cause,
                worker=worker_index,
                batch_seq=seq,
            )
        elif kind == "snapshot":
            _, worker_index, data = message
            handle = self._workers[worker_index]
            handle.snapshots[handle.incarnation] = data
            handle.awaiting_snapshot = None

    def _supervise(self) -> None:
        """Recover (or fail on) every live worker that died; a stop is
        always reaped before the next supervision pass."""
        for handle in self._workers:
            if handle.link is None or handle.link.alive():
                continue
            if handle.pending or self._restart_policy is not None:
                self._on_worker_failure(handle)

    # ------------------------------------------------------------------
    # Supervision and recovery
    # ------------------------------------------------------------------
    def _on_worker_failure(self, handle: _WorkerHandle) -> None:
        """A worker died: respawn and replay — onto an in-process link
        once the restart budget is spent, under ``degrade`` — or abort."""
        # collect whatever the worker managed to say before dying — any
        # ack drained here shrinks the replay's pending set
        self._poll_results(timeout=0.0)
        exit_code = handle.link.exit_code
        policy = self._restart_policy
        if policy is None:
            component, task_index = handle.assigned[0]
            raise TupleProcessingError(
                component,
                task_index,
                0,
                RuntimeError(
                    f"worker {handle.index} died with exit code {exit_code} "
                    f"and {len(handle.pending)} batch(es) in flight"
                ),
                worker=handle.index,
            )
        while True:
            exhausted = handle.restarts_in_window >= policy.max_restarts_per_window
            if exhausted and not policy.degrade:
                raise WorkerCrashError(
                    handle.index, exit_code, handle.restarts_in_window
                )
            self._reap(handle)
            handle.journal.link_lost(handle.pending)
            handle.incarnation += 1
            if exhausted:
                self.degraded_workers += 1
                if self._obs:
                    self.registry.counter("executor.degraded_workers").inc()
            else:
                attempt = handle.restarts_in_window
                handle.restarts_in_window += 1
                self.worker_restarts += 1
                if self._obs:
                    self.registry.counter("executor.worker_restarts").inc()
                delay = policy.delay(attempt, self._rng)
                if delay > 0:
                    sleep(delay)
            self._spawn(handle, inline=exhausted)
            try:
                self._ship_history(
                    handle, handle.assigned, list(handle.journal.batches.items())
                )
                return
            except LinkDown:  # the replacement died mid-replay
                exit_code = handle.link.exit_code

    def _reap(self, handle: _WorkerHandle, timeout: float = 1.0) -> None:
        if handle.link is not None:
            handle.link.reap(timeout)
            handle.link = None

    def _ship_history(self, handle: _WorkerHandle, keys, shipments=()) -> None:
        """Ship what ``handle``'s link must run before anything new for
        the tasks ``keys``: the sticky log's cut for them, then the
        journaled ``shipments`` (``(seq, entries)``, in seq order).

        The one replay path: a respawn or degrade passes every task of
        the slot and its journal, a task move the moved tasks and no
        batch.  The cut goes first as one pseudo-batch under a fresh
        seq, then every journaled batch under its original seq, so the
        bookkeeping (pending set, stash) lines up; encoding is
        deterministic, so a journaled batch goes out bit-identical to
        its first send.  A re-shipped seq whose effects were already
        applied — the cut always — is suppressed
        (:meth:`Journal.reship`): its re-ack only rebuilds executor
        state.  The books are updated before each send, so a
        :class:`LinkDown` from the link simply propagates.
        """
        sticky = self._sticky.replay(task_masks(keys))
        if sticky:
            self._batch_seq += 1
            shipments = [(self._batch_seq, sticky), *shipments]
        for seq, entries in shipments:
            handle.journal.reship(seq, handle.pending)
            handle.link.send(self._codec.encode_batch(seq, entries))

    # ------------------------------------------------------------------
    # Elasticity: scale-up/down by task moves
    # ------------------------------------------------------------------
    def _worker_loads(self, docs: dict) -> list[WorkerLoad]:
        """One load record per live worker for a closing window's
        delivered-entry counts, attributed to each task's current
        worker."""
        task_docs: dict[tuple[str, int], int] = {}
        for (component, mask), count in docs.items():
            for task_index in owners_of(mask):
                key = (component, task_index)
                task_docs[key] = task_docs.get(key, 0) + count
        loads = []
        for handle in self._workers:
            if handle.link is None:
                continue
            mine = sorted(
                (key, task_docs[key]) for key in handle.assigned if key in task_docs
            )
            loads.append(
                WorkerLoad(
                    worker=handle.index,
                    tasks=tuple(handle.assigned),
                    task_docs=tuple(mine),
                    docs=sum(count for _key, count in mine),
                )
            )
        return loads

    def _apply_decision(self, decision: Decision) -> None:
        """Carry out one controller decision.  It names live workers only
        (:meth:`_worker_loads` reports no other); a scale-up moves some
        of the source's tasks, a scale-down all of them."""
        src = self._workers[decision.source]
        if decision.kind == "up":
            self._migrate_tasks(src, self._add_worker(), decision.keys)
            self.scale_ups += 1
            if self._obs:
                self.registry.counter("executor.scale_ups").inc()
        else:
            self._migrate_tasks(src, self._workers[decision.target], decision.keys)
            self._retire(src)
            self.scale_downs += 1
            if self._obs:
                self.registry.counter("executor.scale_downs").inc()

    def _add_worker(self) -> _WorkerHandle:
        """Grow the pool by one (initially taskless) worker slot.

        Handles are positional (worker indices appear in acks), so the
        new slot appends; it receives tasks through a move's
        ``adopt`` path rather than through its ``WorkerInit``.
        """
        handle = _WorkerHandle(len(self._workers), [])
        self._workers.append(handle)
        self._spawn(handle)
        return handle

    def _migrate_tasks(
        self,
        src: _WorkerHandle,
        dst: _WorkerHandle,
        keys: tuple[tuple[str, int], ...],
    ) -> None:
        """Move ``keys`` src → dst at a drained window boundary (the
        ``docs/elasticity.md`` timeline): no journal holds an entry and
        no first ack is owed, so the only state the tasks carry is their
        sticky history.

        Placement swaps first, so the next window routes to ``dst``.
        The destination link receives an ``("adopt", tasks)`` message
        carrying the parent's pristine task instances, then the sticky
        log's cut for the moved tasks through :meth:`_ship_history`,
        suppressed; the source is told to ``("disown", keys)``.  If the
        destination dies on the way, the ordinary failure path respawns
        it with every task it now holds and replays their cut.
        """
        for key in keys:
            src.assigned.remove(key)
            dst.assigned.append(key)
        self._rebuild_worker_masks()
        try:
            dst.link.send(
                ("adopt", {key: self._tasks[key[0]][key[1]] for key in keys})
            )
            self._ship_history(dst, keys)
        except LinkDown:
            self._on_worker_failure(dst)
        try:
            src.link.send(("disown", keys))
        except LinkDown:
            pass  # a respawned source starts from what is assigned to it
        self.migrations += 1
        if self._obs:
            self.registry.counter("executor.migrations").inc()

    def _retire(self, handle: _WorkerHandle) -> None:
        """Stop a (task-less) worker and reap its link for good.

        The handle stays in ``self._workers`` — indices are positional —
        with its snapshots retained so the merged :meth:`snapshot` stays
        monotonic after the worker is gone.
        """
        if self.registry.enabled:
            self._await_snapshots([handle], "retire")
        try:
            handle.link.send(("stop",))
        except LinkDown:
            pass
        self._reap(handle)

    def _await_snapshots(self, handles: list, phase: str) -> None:
        """Ask each of ``handles`` for its registry snapshot and wait for
        the replies through :meth:`_wait_until`.

        With pipelined barriers a request can queue behind in-flight
        batches, and a worker dying on one of them never replies: a
        worker holding tasks is recovered like any dead worker and its
        replacement asked again; a taskless, retiring one is let go.
        """
        for handle in handles:
            handle.awaiting_snapshot = -1  # no incarnation was asked yet

        def replied() -> bool:
            waiting = False
            for handle in handles:
                asked = handle.awaiting_snapshot
                if asked is None:
                    continue
                if asked != handle.incarnation:  # not asked, or respawned
                    handle.awaiting_snapshot = handle.incarnation
                    try:
                        handle.link.send(("snapshot",))
                    except LinkDown:
                        handle.awaiting_snapshot = None
                elif not handle.link.alive():
                    if handle.assigned:  # recovered: asked again next pass
                        self._on_worker_failure(handle)
                    else:
                        handle.awaiting_snapshot = None
                waiting |= handle.awaiting_snapshot is not None
            return not waiting

        self._wait_until(replied, phase)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def tasks(self, component: str):
        if component in self._remote_components:
            raise TopologyError(
                f"{component!r} tasks live in worker processes; observe "
                "them through their emitted streams or stats()"
            )
        return super().tasks(component)

    def stats(self) -> dict[str, object]:
        stats = super().stats()
        stats.update(self._transport.stats())
        stats["inflight_high_water"] = self.inflight_high_water
        stats["scale_ups"] = self.scale_ups
        stats["scale_downs"] = self.scale_downs
        stats["migrations"] = self.migrations
        return stats

    def snapshot(self) -> ObservabilitySnapshot:
        """Parent registry merged with every worker's registry.

        Safe to call repeatedly mid-run (long-running sessions sample it
        every few windows): each live call performs a fresh worker
        round-trip, so successive snapshots are monotonic — counters and
        histogram totals never move backward, and window barriers never
        reset them: every incarnation's latest snapshot stays merged, a
        dead or scaled-down one's too.  Once the cluster is closed it
        merges the last snapshots it holds.
        """
        if not self.registry.enabled or not self._started:
            return self.registry.snapshot()
        self._await_snapshots(
            [h for h in self._workers if h.link is not None and h.link.alive()],
            "snapshot",
        )
        return merge_snapshots(
            self.registry.snapshot(),
            *(
                ObservabilitySnapshot.from_dict(data)
                for handle in self._workers
                for data in handle.snapshots.values()
            ),
        )

    def close(self) -> None:
        """Stop all workers and release transport resources (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if not self._started:
            self._transport.close()
            return
        for handle in self._workers:
            if handle.link is not None and handle.link.alive():
                try:
                    handle.link.send(("stop",))
                except LinkDown:
                    pass
        for handle in self._workers:
            self._reap(handle, timeout=5.0)
        self._transport.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

