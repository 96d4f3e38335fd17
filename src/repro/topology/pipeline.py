"""Wiring of the Fig. 2 topology and the high-level run facade.

The batch runners (:func:`run_stream_join`, :func:`run_binary_stream_join`
and :func:`run`) have no driver of their own: they push their windows
one at a time through a :class:`~repro.topology.session.StreamJoinSession`,
whose ``result()`` is the one place a :class:`StreamJoinResult` is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.core.document import Document
from repro.exceptions import PartitioningError
from repro.faults import FaultPlan
from repro.join.base import JoinPair
from repro.join.binary import interleave
from repro.metrics.report import ExperimentSummary, WindowMetrics, aggregate_metrics
from repro.obs.registry import MetricsRegistry, ObservabilitySnapshot
from repro.partitioning.association import AssociationGroupPartitioner
from repro.partitioning.base import Partitioner
from repro.partitioning.disjoint import DisjointSetPartitioner
from repro.partitioning.graph import KernighanLinPartitioner
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.setcover import SetCoverPartitioner
from repro.streaming.elastic import ElasticPolicy
from repro.streaming.executor import ClusterBase, LocalCluster
from repro.streaming.parallel import ParallelCluster
from repro.streaming.recovery import (
    DEFAULT_DEAD_LETTER_LIMIT,
    DeadLetter,
    DeadLetterQueue,
    RestartPolicy,
)
from repro.streaming.grouping import (
    AllGrouping,
    DirectGrouping,
    GlobalGrouping,
    ShuffleGrouping,
)
from repro.streaming.topology import Topology, TopologyBuilder
from repro.streaming.transport import available_transports
from repro.streaming.transport.framing import parse_address
from repro.topology import messages as msg
from repro.topology.messages import wire_codec
from repro.topology.assigner import AssignerBolt
from repro.topology.joiner import JoinerBolt, JoinerGroup
from repro.topology.json_reader import DocumentSpout, Window
from repro.topology.merger import MergerBolt
from repro.topology.partition_creator import PartitionCreatorBolt
from repro.topology.sink import MetricsSinkBolt

#: algorithm name -> partitioner factory
PARTITIONERS: dict[str, Callable[[], Partitioner]] = {
    "AG": AssociationGroupPartitioner,
    "SC": SetCoverPartitioner,
    "DS": DisjointSetPartitioner,
    "HASH": HashPartitioner,
    "KL": KernighanLinPartitioner,
}

#: recognized execution backends (see :func:`make_cluster`)
BACKENDS = ("local", "parallel")


@dataclass(frozen=True)
class StreamJoinConfig:
    """Configuration of one stream-join topology run.

    Mirrors the paper's configuration parameters (Section VII-D):
    ``m`` partitions/Joiners, repartitioning threshold ``theta``, update
    threshold ``delta``, plus the component parallelism of Fig. 2.
    """

    m: int = 8
    algorithm: str = "AG"
    theta: float = 0.2
    delta: int = 3
    n_creators: int = 2
    n_assigners: int = 6
    expansion: str = "auto"
    expansion_coverage: float = 1.0
    compute_joins: bool = False
    collect_pairs: bool = False
    #: None -> tumbling windows (the paper); an int N -> sliding extent of
    #: the N most recent documents per Joiner (the Section V-A extension)
    sliding_size: Optional[int] = None
    #: True -> two-stream (R x S) join: documents arrive tagged with a
    #: stream side and only cross-stream pairs are produced
    binary: bool = False
    #: True -> run with a live :class:`~repro.obs.MetricsRegistry`; the
    #: result then carries an :class:`~repro.obs.ObservabilitySnapshot`.
    #: Off by default: the hot path pays one attribute lookup only.
    observability: bool = False
    #: execution backend: ``"local"`` runs every task inline in one
    #: process (the deterministic reference); ``"parallel"`` runs the
    #: Joiner tasks in worker processes (same per-window results,
    #: see :mod:`repro.streaming.parallel`)
    backend: str = "local"
    #: worker transport for the parallel backend: ``"pipe"`` forks
    #: workers over a ``socketpair`` (single host), ``"socket"`` runs
    #: ``python -m repro.worker`` subprocesses over TCP and supports
    #: per-worker addressing (``docs/distributed.md``)
    transport: str = "pipe"
    #: worker count for the parallel backend (None -> one per core,
    #: capped at the Joiner task count), or — socket transport only — a
    #: list of ``host:port`` worker addresses; ``tcp://host:port``
    #: entries attach to pre-started workers instead of spawning them
    workers: Optional[Union[int, tuple[str, ...], list[str]]] = None
    #: elastic worker pool for the parallel backend: scale-up/down and
    #: live partition migration at window barriers
    #: (``docs/elasticity.md``).  Ignored on the local backend (there is
    #: no pool to resize).
    elastic: Optional[ElasticPolicy] = None
    #: tuples per shipped worker batch on the parallel backend (None ->
    #: the cluster default); larger batches amortize per-frame framing
    #: and ack costs at the price of coarser backpressure
    batch_size: Optional[int] = None
    #: window barriers that may overlap on the parallel backend before
    #: the parent blocks on the oldest (None -> the cluster default;
    #: 0 -> fully synchronous barriers).  Results are byte-identical at
    #: every depth — emission release order is seq-deterministic.
    pipeline_depth: Optional[int] = None
    #: redeliveries of a failing tuple before it is considered poisoned
    max_retries: int = 0
    #: True -> quarantine poisoned tuples on a
    #: :class:`~repro.streaming.recovery.DeadLetterQueue` (recorded on the
    #: result) instead of aborting the run
    dead_letters: bool = False
    #: retained-entry bound of the dead-letter queue (the count in
    #: ``tuple_stats["dead_letters"]`` is never truncated)
    dead_letter_limit: Optional[int] = DEFAULT_DEAD_LETTER_LIMIT
    #: worker supervision for the parallel backend: replace dead Joiner
    #: workers and replay the window journal (``docs/fault_tolerance.md``)
    restart_policy: Optional[RestartPolicy] = None
    #: deterministic fault injection (testing/chaos only); rules run
    #: inside the executors, see :mod:`repro.faults`
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.algorithm not in PARTITIONERS:
            raise PartitioningError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {sorted(PARTITIONERS)}"
            )
        if self.m < 1:
            raise PartitioningError(f"m must be >= 1, got {self.m}")
        if self.backend not in BACKENDS:
            raise PartitioningError(
                f"unknown backend {self.backend!r}; choose from {sorted(BACKENDS)}"
            )
        if self.transport not in available_transports():
            raise PartitioningError(
                f"unknown transport {self.transport!r}; "
                f"choose from {sorted(available_transports())}"
            )
        if self.max_retries < 0:
            raise PartitioningError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        replays = [n for n in ("restart_policy", "elastic") if getattr(self, n)]
        if self.sliding_size is not None and self.backend == "parallel" and replays:
            raise PartitioningError(
                f"sliding_size cannot be combined with {replays[0]} on the parallel "
                "backend: a replay re-ships one window, a sliding extent spans several"
            )
        workers = self.workers
        if isinstance(workers, list):
            # normalize so frozen configs stay hashable (experiment caches
            # key on them)
            workers = tuple(workers)
            object.__setattr__(self, "workers", workers)
        if isinstance(workers, int) and workers < 1:
            raise PartitioningError(f"workers must be >= 1, got {workers}")
        if isinstance(workers, tuple):
            if self.transport == "pipe":
                raise PartitioningError(
                    "worker addresses require transport='socket'; the pipe "
                    "transport takes a count"
                )
            for address in workers:
                try:
                    parse_address(address)
                except ValueError as exc:
                    raise PartitioningError(str(exc)) from None


@dataclass
class StreamJoinResult:
    """Everything a topology run produced."""

    config: StreamJoinConfig
    per_window: list[WindowMetrics]
    repartition_windows: list[int]
    join_pairs: frozenset[JoinPair] = field(default_factory=frozenset)
    tuple_stats: dict[str, object] = field(default_factory=dict)
    #: populated iff the run had ``config.observability`` on
    observability: Optional[ObservabilitySnapshot] = None
    #: quarantined tuples, iff the run had ``config.dead_letters`` on
    #: (bounded by ``config.dead_letter_limit``; the full count is in
    #: ``tuple_stats["dead_letters"]``)
    dead_letters: tuple[DeadLetter, ...] = ()

    def summary(self, include_bootstrap: bool = False) -> ExperimentSummary:
        """Average metrics, excluding the bootstrap window by default.

        During the bootstrap window no partitions exist yet and every
        document is broadcast; including it would measure the cold start
        instead of the partitioning algorithm.
        """
        windows = self.per_window
        if not include_bootstrap and len(windows) > 1:
            windows = windows[1:]
        return aggregate_metrics(windows, observability=self.observability)


def build_topology(
    config: StreamJoinConfig, windows: Sequence[Sequence[Document]]
) -> Topology:
    """Declare the Fig. 2 topology for ``windows`` under ``config``."""
    distributed_mining = config.algorithm == "AG"
    builder = TopologyBuilder()
    builder.set_spout(msg.READER, lambda: DocumentSpout(windows), parallelism=1)

    creator = builder.set_bolt(
        msg.CREATOR,
        lambda: PartitionCreatorBolt(distributed_mining=distributed_mining),
        parallelism=config.n_creators,
    )
    creator.subscribe(msg.READER, msg.DOCS, ShuffleGrouping())
    creator.subscribe(msg.READER, msg.WINDOW_END, AllGrouping())
    creator.subscribe(msg.MERGER, msg.MINING_REQUEST, AllGrouping())
    creator.subscribe(msg.ASSIGNER, msg.CONTROL, AllGrouping())

    merger = builder.set_bolt(
        msg.MERGER,
        lambda: MergerBolt(
            partitioner=PARTITIONERS[config.algorithm](),
            expansion=config.expansion,
            expansion_coverage=config.expansion_coverage,
        ),
        parallelism=1,
    )
    merger.subscribe(msg.CREATOR, msg.SAMPLE_STATS, GlobalGrouping())
    merger.subscribe(msg.CREATOR, msg.LOCAL_GROUPS, GlobalGrouping())
    merger.subscribe(msg.ASSIGNER, msg.CONTROL, GlobalGrouping())

    assigner = builder.set_bolt(
        msg.ASSIGNER,
        lambda: AssignerBolt(theta=config.theta, delta=config.delta),
        parallelism=config.n_assigners,
    )
    assigner.subscribe(msg.READER, msg.DOCS, ShuffleGrouping())
    assigner.subscribe(msg.READER, msg.WINDOW_END, AllGrouping())
    assigner.subscribe(msg.MERGER, msg.PARTITIONS, AllGrouping())
    assigner.subscribe(msg.MERGER, msg.PARTITION_UPDATE, AllGrouping())

    # one window index per executor: every Joiner task of this topology
    # that lands in the same process shares the group (and so the tree)
    group = JoinerGroup()
    joiner = builder.set_bolt(
        msg.JOINER,
        lambda: JoinerBolt(
            compute_joins=config.compute_joins,
            collect_pairs=config.collect_pairs,
            sliding_size=config.sliding_size,
            binary=config.binary,
            group=group,
        ),
        parallelism=config.m,
    )
    joiner.subscribe(msg.ASSIGNER, msg.ASSIGNED, DirectGrouping())
    joiner.subscribe(msg.ASSIGNER, msg.WINDOW_DONE, AllGrouping())
    joiner.subscribe(msg.MERGER, msg.PARTITIONS, AllGrouping())

    sink = builder.set_bolt(msg.SINK, MetricsSinkBolt, parallelism=1)
    sink.subscribe(msg.ASSIGNER, msg.ASSIGNER_STATS, GlobalGrouping())
    sink.subscribe(msg.JOINER, msg.JOIN_STATS, GlobalGrouping())
    sink.subscribe(msg.MERGER, msg.REPARTITION_EVENT, GlobalGrouping())

    return builder.build()


def run_binary_stream_join(
    config: StreamJoinConfig,
    left_windows: Sequence[Sequence[Document]],
    right_windows: Sequence[Sequence[Document]],
) -> StreamJoinResult:
    """Run the two-stream (R x S) topology over aligned windows.

    Both streams are partitioned and routed with the same content-aware
    machinery — any R document and S document sharing an AV-pair without
    conflicts are co-located — but Joiners only report *cross-stream*
    pairs.  Document ids must be unique across the two streams.
    """
    if len(left_windows) != len(right_windows):
        raise ValueError("both streams need the same number of windows")
    if not config.binary:
        config = replace(config, binary=True)
    return _run_session(config, map(interleave, left_windows, right_windows))


def run_stream_join(
    config: StreamJoinConfig, windows: Sequence[Sequence[Document]]
) -> StreamJoinResult:
    """Run the full topology over pre-windowed documents."""
    return _run_session(
        config, ([(document, None) for document in window] for window in windows)
    )


def run(
    config: Optional[StreamJoinConfig] = None,
    windows: Sequence[Sequence[Document]] = (),
    **overrides,
) -> StreamJoinResult:
    """Top-level facade: run a stream-join topology over ``windows``.

    ``run(windows=w, m=4, observability=True)`` is shorthand for
    ``run_stream_join(StreamJoinConfig(m=4, observability=True), w)``;
    keyword overrides are applied on top of ``config`` when both are
    given.
    """
    if config is None:
        config = StreamJoinConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    return run_stream_join(config, windows)


def make_cluster(
    config: StreamJoinConfig,
    topology: Topology,
    registry: Optional[MetricsRegistry] = None,
) -> ClusterBase:
    """Instantiate the execution backend ``config.backend`` names.

    ``"local"`` gives the single-process reference executor;
    ``"parallel"`` places the Joiner tasks (the only CPU-heavy leaf of
    Fig. 2) in worker processes — forked or socket-connected, per
    ``config.transport`` — with window-end punctuation as the flush
    barrier so per-window results match the local backend byte for
    byte.
    """
    dlq = (
        DeadLetterQueue(limit=config.dead_letter_limit)
        if config.dead_letters
        else None
    )
    if config.backend == "parallel":
        tuning: dict = {}
        if config.batch_size is not None:
            tuning["batch_size"] = config.batch_size
        if config.pipeline_depth is not None:
            tuning["pipeline_depth"] = config.pipeline_depth
        return ParallelCluster(
            topology,
            max_retries=config.max_retries,
            registry=registry,
            **tuning,
            remote_components=(msg.JOINER,),
            barrier_streams=(msg.WINDOW_DONE,),
            # partition broadcasts carry cross-window control state (the
            # attribute order Joiners key their trees on) — a replacement
            # worker must see them before the window journal
            sticky_streams=(msg.PARTITIONS,),
            restart_policy=config.restart_policy,
            transport=config.transport,
            workers=config.workers,
            elastic=config.elastic,
            codec=wire_codec(),
            dead_letters=dlq,
            fault_plan=config.fault_plan,
        )
    return LocalCluster(
        topology,
        max_retries=config.max_retries,
        registry=registry,
        dead_letters=dlq,
        fault_plan=config.fault_plan,
    )


def _run_session(
    config: StreamJoinConfig, windows: Iterable[Window]
) -> StreamJoinResult:
    """The batch driver: every window of ``(document, side)`` items,
    empty ones included, through one
    :class:`~repro.topology.session.StreamJoinSession`."""
    from repro.topology.session import StreamJoinSession  # imports this module

    session = StreamJoinSession(config)
    try:
        for window in windows:
            session._push(window)
    except BaseException:
        session._cluster.close()
        raise
    return session.result()
