"""The soak driver: rate-ramped, long-running stream-join sessions.

:func:`run_soak` keeps one :class:`~repro.topology.session.StreamJoinSession`
alive over an unbounded window stream and measures the three things a
finite experiment cannot show:

* **Sustained throughput** — an open-loop ramp
  (:class:`~repro.soak.stream.RateController`) grows the offered
  docs/sec until the topology stops keeping up; the best achieved rate
  is the sustained throughput, and end-to-end latency quantiles (p50 /
  p99) come from a driver-owned ``soak.e2e_seconds`` histogram.  A
  document's end-to-end latency is its in-window accumulation wait under
  the offered arrival rate plus the wall-clock time the topology took to
  process its window.
* **Bounded memory** — a :class:`~repro.soak.memory.MemoryMonitor`
  samples driver RSS every epoch and asserts the windows-forever runs
  don't grow without bound (``session.compact`` trims per-window
  history so the session itself stays O(retained windows)).
* **Metric monotonicity** — every epoch the driver takes a live
  :class:`~repro.obs.ObservabilitySnapshot` and verifies counters and
  histogram totals never move backward across window barriers.

The driver is orthogonal to backends: the same
:class:`SoakConfig` runs against the inline local cluster or the
parallel backend over pipe or socket transports, and accepts the fault
and dead-letter knobs of :class:`~repro.topology.pipeline.StreamJoinConfig`
so chaos soaks can hold a fault plan against the topology for the whole
run.  Results serialize via :meth:`SoakReport.as_dict` and feed both
``repro soak`` (CLI) and ``benchmarks/test_throughput.py``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence, Union

from repro.data.base import DatasetGenerator
from repro.data.zoo import ZOO_WORKLOADS, make_zoo_generator
from repro.faults import FaultPlan
from repro.obs.registry import (
    MetricsRegistry,
    ObservabilitySnapshot,
    histogram_quantile,
)
from repro.soak.memory import MemoryCheck, MemoryMonitor
from repro.soak.stream import RateController, endless_windows
from repro.streaming.elastic import ElasticPolicy
from repro.streaming.recovery import DEFAULT_DEAD_LETTER_LIMIT, RestartPolicy
from repro.topology.pipeline import StreamJoinConfig
from repro.topology.session import StreamJoinSession

#: histogram buckets for end-to-end latency (seconds): sub-millisecond
#: through a minute, log-ish spacing
E2E_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


@dataclass(frozen=True)
class SoakConfig:
    """Everything one soak run needs, JSON-round-trippable."""

    #: workload name: a zoo workload (``zipf`` / ``drift`` / ``late`` /
    #: ``burst``) resolved via :func:`~repro.data.zoo.make_zoo_generator`,
    #: ignored when a generator is passed to :func:`run_soak` directly
    workload: str = "zipf"
    seed: int = 0
    # -- topology ------------------------------------------------------
    m: int = 8
    algorithm: str = "AG"
    backend: str = "local"
    transport: str = "pipe"
    workers: Optional[Union[int, tuple[str, ...], list[str]]] = None
    #: elastic worker pool (parallel backend): scale/migrate at window
    #: barriers — ``docs/elasticity.md``
    elastic: Optional[ElasticPolicy] = None
    # -- load ramp -----------------------------------------------------
    #: offered docs/sec of the first epoch
    initial_rate: float = 500.0
    #: multiplier applied to the offered rate after each kept-up epoch
    ramp_factor: float = 2.0
    #: an epoch achieving less than this fraction of its offered rate
    #: marks saturation
    saturation_threshold: float = 0.9
    #: optional ceiling on the offered rate
    max_rate: Optional[float] = None
    #: simulated wall-clock span of one window; the window size in
    #: documents is ``offered_rate * window_seconds``
    window_seconds: float = 0.5
    #: windows per epoch (one epoch = one rung of the ramp = one
    #: RSS/observability sample)
    epoch_windows: int = 4
    #: unmeasured windows pushed before the ramp starts: the first
    #: window pays one-time costs (worker spawn — seconds on the socket
    #: transport — codec dictionaries, allocator warmup) that would
    #: otherwise saturate the ramp on its first epoch
    warmup_windows: int = 1
    #: hard cap on generated window size regardless of the offered rate
    max_window_size: int = 20_000
    # -- stop conditions -----------------------------------------------
    max_seconds: Optional[float] = None
    max_windows: Optional[int] = None
    max_epochs: Optional[int] = None
    #: stop as soon as the ramp saturates (set False to hold the final
    #: offered rate until another stop condition fires)
    stop_at_saturation: bool = True
    # -- bounded memory ------------------------------------------------
    retain_windows: int = 64
    growth_tolerance: float = 0.25
    memory_limit_bytes: Optional[int] = None
    # -- robustness knobs (forwarded to StreamJoinConfig) --------------
    max_retries: int = 0
    dead_letters: bool = False
    dead_letter_limit: Optional[int] = DEFAULT_DEAD_LETTER_LIMIT
    restart_policy: Optional[RestartPolicy] = None
    fault_plan: Optional[FaultPlan] = None

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "m": self.m,
            "algorithm": self.algorithm,
            "backend": self.backend,
            "transport": self.transport,
            "workers": (
                list(self.workers)
                if isinstance(self.workers, (tuple, list))
                else self.workers
            ),
            "elastic": asdict(self.elastic) if self.elastic else None,
            "initial_rate": self.initial_rate,
            "ramp_factor": self.ramp_factor,
            "saturation_threshold": self.saturation_threshold,
            "max_rate": self.max_rate,
            "window_seconds": self.window_seconds,
            "epoch_windows": self.epoch_windows,
            "warmup_windows": self.warmup_windows,
            "max_window_size": self.max_window_size,
            "max_seconds": self.max_seconds,
            "max_windows": self.max_windows,
            "max_epochs": self.max_epochs,
            "stop_at_saturation": self.stop_at_saturation,
            "retain_windows": self.retain_windows,
            "growth_tolerance": self.growth_tolerance,
            "memory_limit_bytes": self.memory_limit_bytes,
            "max_retries": self.max_retries,
            "dead_letters": self.dead_letters,
            "dead_letter_limit": self.dead_letter_limit,
        }


@dataclass
class SoakReport:
    """What one soak run measured."""

    config: SoakConfig
    windows: int = 0
    documents: int = 0
    epochs: int = 0
    elapsed_seconds: float = 0.0
    #: best achieved docs/sec over the ramp (the headline number)
    sustained_docs_per_sec: float = 0.0
    #: offered docs/sec when the run stopped
    final_offered_rate: float = 0.0
    saturated: bool = False
    #: end-to-end latency quantiles in seconds (None before any window)
    p50_s: Optional[float] = None
    p99_s: Optional[float] = None
    mean_s: Optional[float] = None
    memory: Optional[MemoryCheck] = None
    obs_monotonic: bool = True
    obs_violations: list[str] = field(default_factory=list)
    dead_letters: int = 0
    #: quarantined entries still retained at close (bounded by the
    #: configured ``dead_letter_limit`` even when ``dead_letters`` grows)
    dead_letters_retained: int = 0
    worker_restarts: int = 0
    degraded_workers: int = 0
    # -- elasticity (zero without an ElasticPolicy) --------------------
    scale_ups: int = 0
    scale_downs: int = 0
    migrations: int = 0
    #: (offered, achieved) docs/sec per epoch
    ramp: list[tuple[float, float]] = field(default_factory=list)
    stop_reason: str = ""

    @property
    def memory_ok(self) -> bool:
        return self.memory is None or self.memory.ok

    @property
    def healthy(self) -> bool:
        """Did the run uphold every long-running-session invariant?"""
        return self.memory_ok and self.obs_monotonic

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "windows": self.windows,
            "documents": self.documents,
            "epochs": self.epochs,
            "elapsed_seconds": self.elapsed_seconds,
            "sustained_docs_per_sec": self.sustained_docs_per_sec,
            "final_offered_rate": self.final_offered_rate,
            "saturated": self.saturated,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
            "mean_s": self.mean_s,
            "memory": self.memory.as_dict() if self.memory else None,
            "memory_ok": self.memory_ok,
            "obs_monotonic": self.obs_monotonic,
            "obs_violations": list(self.obs_violations),
            "dead_letters": self.dead_letters,
            "dead_letters_retained": self.dead_letters_retained,
            "worker_restarts": self.worker_restarts,
            "degraded_workers": self.degraded_workers,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "migrations": self.migrations,
            "ramp": [
                {"offered": offered, "achieved": achieved}
                for offered, achieved in self.ramp
            ],
            "stop_reason": self.stop_reason,
            "healthy": self.healthy,
        }


def check_monotonic(
    previous: Optional[ObservabilitySnapshot],
    current: ObservabilitySnapshot,
) -> list[str]:
    """Violations of counter/histogram monotonicity between snapshots.

    Counters may only grow; histogram ``count``/``sum`` may only grow; a
    series present in ``previous`` must still exist in ``current``.
    Returns human-readable violation strings (empty = monotonic).
    """
    if previous is None:
        return []
    violations: list[str] = []
    for name, before in previous.counters.items():
        after = current.counters.get(name)
        if after is None:
            violations.append(f"counter {name} disappeared")
        elif after < before:
            violations.append(f"counter {name} went backward: {before} -> {after}")
    for name, before in previous.histograms.items():
        after = current.histograms.get(name)
        if after is None:
            violations.append(f"histogram {name} disappeared")
            continue
        if after.get("count", 0) < before.get("count", 0):
            violations.append(
                f"histogram {name} count went backward: "
                f"{before.get('count')} -> {after.get('count')}"
            )
        elif after.get("sum", 0.0) < before.get("sum", 0.0) - 1e-9:
            violations.append(
                f"histogram {name} sum went backward: "
                f"{before.get('sum')} -> {after.get('sum')}"
            )
    return violations


def _resolve_generator(config: SoakConfig) -> DatasetGenerator:
    if config.workload in ZOO_WORKLOADS:
        return make_zoo_generator(config.workload, seed=config.seed)
    raise ValueError(
        f"unknown workload {config.workload!r}; expected one of "
        f"{ZOO_WORKLOADS} (or pass a generator to run_soak directly)"
    )


def run_soak(
    config: SoakConfig,
    generator: Optional[DatasetGenerator] = None,
) -> SoakReport:
    """Run one soak session to a stop condition and report.

    The loop is epoch-structured: each epoch offers ``epoch_windows``
    windows sized to the controller's current rate, measures the wall
    clock the topology took, feeds the achieved docs/sec back into the
    ramp, then samples RSS, takes a live observability snapshot and
    compacts the session.  Stop conditions — wall-clock cap, window cap,
    epoch cap, saturation — are checked between windows so the cap is
    honored even inside a long epoch.
    """
    if config.epoch_windows < 1:
        raise ValueError(
            f"epoch_windows must be >= 1, got {config.epoch_windows}"
        )
    if generator is None:
        generator = _resolve_generator(config)
    join_config = StreamJoinConfig(
        m=config.m,
        algorithm=config.algorithm,
        backend=config.backend,
        transport=config.transport,
        workers=config.workers,
        elastic=config.elastic,
        max_retries=config.max_retries,
        dead_letters=config.dead_letters,
        dead_letter_limit=config.dead_letter_limit,
        restart_policy=config.restart_policy,
        fault_plan=config.fault_plan,
        observability=True,
    )
    session = StreamJoinSession(join_config)
    controller = RateController(
        initial_rate=config.initial_rate,
        ramp_factor=config.ramp_factor,
        saturation_threshold=config.saturation_threshold,
        max_rate=config.max_rate,
    )
    monitor = MemoryMonitor(
        growth_tolerance=config.growth_tolerance,
        limit_bytes=config.memory_limit_bytes,
    )
    latency_registry = MetricsRegistry()
    e2e = latency_registry.histogram("soak.e2e_seconds", buckets=E2E_BUCKETS)
    report = SoakReport(config=config)
    started = time.monotonic()
    previous_snapshot: Optional[ObservabilitySnapshot] = None
    # unmeasured warmup: pay one-time costs (worker spawn, codec and
    # allocator warmup) outside the ramp so the first epoch's achieved
    # rate reflects steady-state throughput, not startup latency
    warmup_size = max(
        1, min(config.max_window_size, int(config.initial_rate * config.window_seconds))
    )
    for _ in range(config.warmup_windows):
        session.push_window(generator.next_window(warmup_size))
    monitor.sample()  # warmup sample before the first measured window

    def stop_reason() -> str:
        if (
            config.max_seconds is not None
            and time.monotonic() - started >= config.max_seconds
        ):
            return "max_seconds"
        if config.max_windows is not None and report.windows >= config.max_windows:
            return "max_windows"
        if config.max_epochs is not None and report.epochs >= config.max_epochs:
            return "max_epochs"
        if config.stop_at_saturation and controller.saturated:
            return "saturated"
        return ""

    reason = ""
    while not reason:
        rate = controller.offered_rate()
        window_size = max(1, min(
            config.max_window_size, int(rate * config.window_seconds)
        ))
        windows = endless_windows(generator, window_size)
        epoch_docs = 0
        epoch_wall = 0.0
        for _ in range(config.epoch_windows):
            window = next(windows)
            before = time.monotonic()
            session.push_window(window)
            push_wall = time.monotonic() - before
            epoch_docs += len(window)
            epoch_wall += push_wall
            report.windows += 1
            report.documents += len(window)
            # end-to-end latency of document i under the offered arrival
            # model: it waits (n - i)/rate for its window to close, then
            # rides the window through the topology
            n = len(window)
            for i in range(n):
                e2e.observe((n - i) / rate + push_wall)
            reason = stop_reason()
            if reason:
                break
        # epoch bookkeeping: memory, metric monotonicity, compaction
        monitor.sample()
        current = session.observability()
        achieved = epoch_docs / epoch_wall if epoch_wall > 0 else float(rate)
        controller.record_epoch(achieved)
        report.epochs += 1
        violations = check_monotonic(previous_snapshot, current)
        if violations:
            report.obs_monotonic = False
            report.obs_violations.extend(violations)
        previous_snapshot = current
        session.compact(retain_windows=config.retain_windows)
        if not reason:
            reason = stop_reason()

    report.stop_reason = reason
    report.elapsed_seconds = time.monotonic() - started
    report.sustained_docs_per_sec = controller.sustained
    report.final_offered_rate = controller.offered_rate()
    report.saturated = controller.saturated
    report.ramp = list(controller.history)
    hist = e2e.as_dict()
    if hist["count"]:
        report.p50_s = histogram_quantile(hist, 0.50)
        report.p99_s = histogram_quantile(hist, 0.99)
        report.mean_s = hist["mean"]
    final_snapshot = session.observability()
    violations = check_monotonic(previous_snapshot, final_snapshot)
    if violations:
        report.obs_monotonic = False
        report.obs_violations.extend(violations)
    report.degraded_workers = int(
        final_snapshot.counters.get("executor.degraded_workers", 0)
    )
    result = session.result()
    stats = result.tuple_stats
    report.dead_letters = int(stats.get("dead_letters", 0))
    report.dead_letters_retained = len(result.dead_letters)
    report.worker_restarts = int(stats.get("worker_restarts", 0))
    report.scale_ups = int(stats.get("scale_ups", 0))
    report.scale_downs = int(stats.get("scale_downs", 0))
    report.migrations = int(stats.get("migrations", 0))
    monitor.sample()
    report.memory = monitor.check()
    return report


def run_soak_matrix(
    configs: Sequence[SoakConfig],
) -> list[SoakReport]:
    """Run several soak configurations back to back (benchmark helper)."""
    return [run_soak(config) for config in configs]
