"""One workload, measured in this interpreter (``run.py`` starts one per run).

An end-to-end run (``--trace 0``) makes ``CAPACITY_PASSES`` *capacity
passes* over the same windows.  A pass is one session: set-up (construct
+ warm-up windows), then the frozen number of windows pushed back to
back by one caller that waits for each ``push_window`` (closed loop),
then ``result()``.  The host this runs on changes speed by some 15 % for
seconds at a time, so nothing is measured in one short stretch:
throughput is the median over the segments of all passes, CPU per
document is taken over all of them, ``setup_s`` is the median of their
set-ups.

A traced run (``--trace 1``) makes one short capacity pass with every
push wrapped in a span, then the *paced session* — same config with
``pipeline_depth=0`` on parallel workloads, same warm-up, then windows
on an open-loop schedule: window *k* is due at ``t0 + k*T`` and its lag
is push-return minus due time, so a stall is charged to the windows
queued behind it — then an ``observability=True`` session over the
capacity windows and the staged replay of ``replay.py``, and reports the
per-layer metrics instead of the end-to-end ones.

Both kinds of run end with the output checks of ``check.py``.

Every session gets freshly generated documents: ``Document`` objects
cache their encodings, so a reused input would hand the second session
work the first one already paid for.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter

from repro import StreamJoinConfig, StreamJoinSession
from repro.data.nobench import NoBenchGenerator
from repro.data.serverlogs import ServerLogGenerator

import check
import procstat
from replay import replay
from spans import Tracer
from workloads import (
    ALGORITHM,
    CAPACITY_PASSES,
    CHECK_WINDOWS,
    LATE_START_S,
    M,
    SAMPLE_WINDOWS,
    PASS_SEGMENTS,
    WARMUP_WINDOWS,
    WORKLOADS,
    Workload,
    sizes_for,
)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
COMPONENTS = (
    "reader",
    "partition_creator",
    "merger",
    "assigner",
    "joiner",
    "metrics_sink",
)


def make_windows(workload: Workload, seed: int, count: int):
    """``count`` fresh windows of the workload's stream, and the time it took."""
    generator_cls = ServerLogGenerator if workload.data == "rw" else NoBenchGenerator
    start = perf_counter()
    generator = generator_cls(seed=seed)
    windows = [generator.next_window(workload.window_docs) for _ in range(count)]
    elapsed = perf_counter() - start
    # The input is the harness's, not the program's: keep the collector
    # from re-scanning it on every full collection, or the program's
    # measured cost would grow with the number of windows held ready.
    gc.collect()
    gc.freeze()
    return windows, elapsed


def session_config(workload: Workload, **overrides) -> StreamJoinConfig:
    return StreamJoinConfig(
        m=M, algorithm=ALGORITHM, **{**workload.session, **overrides}
    )


def wait_until(due: float) -> None:
    """Sleep until ``due``; no spinning, the phase's CPU is accounted."""
    while True:
        remaining = due - perf_counter()
        if remaining <= 0:
            return
        time.sleep(remaining)


@dataclass
class SessionRun:
    setup_s: float = 0.0
    first_push_s: float = 0.0
    #: per measured window: due time (paced only), push start, push end
    due: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    t_end: float = 0.0
    drain_s: float = 0.0
    cpu_setup: dict = field(default_factory=dict)
    cpu_last_push: dict = field(default_factory=dict)
    cpu_end: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    obs_setup: dict = field(default_factory=dict)
    result: object = None
    pushed: int = 0
    #: window index -> reason
    failed: dict = field(default_factory=dict)


def run_session(
    config: StreamJoinConfig,
    windows: list,
    period: float | None = None,
    tracer: Tracer | None = None,
    lane: str = "",
) -> SessionRun:
    """Set up a session, push ``windows[WARMUP_WINDOWS:]`` and close it.

    ``period`` switches from the closed loop to the open-loop schedule.
    A push that raises fails its window and ends the phase: the windows
    behind it are not attempted.
    """
    run = SessionRun()
    begin = perf_counter()
    session = StreamJoinSession(config)

    def push(index: int) -> bool:
        run.pushed += 1
        try:
            if tracer is not None:
                with tracer.span("session.push", index, lane):
                    session.push_window(windows[index])
            else:
                session.push_window(windows[index])
        except Exception as exc:  # the run goes on to report the failure
            run.failed[index] = f"push raised {exc!r}"
            return False
        return True

    alive = True
    for index in range(min(WARMUP_WINDOWS, len(windows))):
        alive = alive and push(index)
        if index == 0:
            run.first_push_s = perf_counter() - begin
    run.setup_s = perf_counter() - begin
    if alive and config.observability:
        run.obs_setup = session.observability().as_dict()
    run.cpu_setup = procstat.cpu_snapshot()

    t0 = perf_counter()
    for k, index in enumerate(range(WARMUP_WINDOWS, len(windows))):
        if not alive:
            break
        if period is not None:
            due = t0 + k * period
            run.due.append(due)
            wait_until(due)
        run.starts.append(perf_counter())
        alive = push(index)
        run.ends.append(perf_counter())

    # workers are gone after result(): read what only they can tell first
    run.cpu_last_push = procstat.cpu_snapshot()
    run.peak_rss_mb = procstat.peak_rss_mb()
    drain_start = perf_counter()
    try:
        run.result = session.result()
    except Exception as exc:
        run.failed.setdefault(len(windows) - 1, f"result() raised {exc!r}")
    run.t_end = perf_counter()
    run.drain_s = run.t_end - drain_start
    run.cpu_end = procstat.cpu_snapshot()
    return run


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: of 110 samples, p90 leaves 11 beyond."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measured_cpu(run: SessionRun) -> tuple[float, float]:
    """(parent + workers, parent alone) CPU seconds of the measured pushes."""
    total = procstat.total_cpu(run.cpu_end) - procstat.total_cpu(run.cpu_setup)
    return total, run.cpu_end["own"] - run.cpu_setup["own"]


def cpu_us_per_doc(run: SessionRun, docs: int) -> float:
    return measured_cpu(run)[0] / docs * 1e6


def check_windows(run: SessionRun, windows: list) -> None:
    """Every pushed window must be finalized with its document count."""
    if run.result is None:
        return
    per_window = run.result.per_window
    for index in range(run.pushed):
        if index in run.failed:
            continue
        if index >= len(per_window):
            run.failed[index] = "window never finalized"
        elif per_window[index].documents != len(windows[index]):
            run.failed[index] = (
                f"{per_window[index].documents} documents reported, "
                f"{len(windows[index])} pushed"
            )
    stats = run.result.tuple_stats
    lost = stats.get("dead_letters", 0) + stats.get("shed_tuples", 0)
    if lost:
        run.failed.setdefault(run.pushed - 1, f"{lost} documents dead-lettered or shed")


def digests_of(run: SessionRun) -> list:
    return check.window_digests(run.result.per_window) if run.result else []


def verify(
    workload: Workload, seed: int, capacity: SessionRun, others: dict[str, SessionRun]
) -> list[str]:
    """The cross-session checks; failures land on the sessions that differ."""
    problems = []
    cap_digests = digests_of(capacity)
    for label, run in others.items():
        for index in check.digest_mismatches(cap_digests, digests_of(run)):
            run.failed.setdefault(index, "digest differs from the first capacity pass")
            problems.append(f"window {index}: {label} and the first capacity pass disagree")

    windows, _ = make_windows(workload, seed, CHECK_WINDOWS)
    if workload.parallel:
        reference = run_session(session_config(workload, backend="local"), windows)
        for index in check.digest_mismatches(cap_digests, digests_of(reference)):
            capacity.failed.setdefault(index, "digest differs from the local backend")
            problems.append(f"window {index}: differs from the local backend")
        if reference.result is None:
            problems.append(f"local reference session failed: {reference.failed}")
    if workload.joins:
        windows, _ = make_windows(workload, seed, CHECK_WINDOWS)
        collecting = run_session(session_config(workload, collect_pairs=True), windows)
        if collecting.result is None:
            problems.append(f"pair-collecting session failed: {collecting.failed}")
        else:
            sampled = check.sample_windows(seed, len(windows), SAMPLE_WINDOWS)
            for index, problem in check.pair_mismatches(
                windows, collecting.result.join_pairs, sampled
            ):
                capacity.failed.setdefault(index, "join pairs differ from brute force")
                problems.append(problem)
            for index in check.digest_mismatches(cap_digests, digests_of(collecting)):
                capacity.failed.setdefault(index, "digest differs with collect_pairs")
                problems.append(f"window {index}: differs with collect_pairs on")
    return problems


def segment_rates(workload: Workload, run: SessionRun) -> list[float]:
    """docs/s of each equal segment of a capacity pass, drain in the last."""
    per_segment = len(run.starts) // PASS_SEGMENTS
    bounds = [run.starts[i * per_segment] for i in range(PASS_SEGMENTS)]
    bounds.append(run.t_end)
    return [
        per_segment * workload.window_docs / (bounds[i + 1] - bounds[i])
        for i in range(PASS_SEGMENTS)
    ]


def end_to_end(workload: Workload, passes: list[SessionRun]) -> dict[str, float]:
    docs = sum(len(run.starts) for run in passes) * workload.window_docs
    total = sum(measured_cpu(run)[0] for run in passes)
    own = sum(measured_cpu(run)[1] for run in passes)
    measured = passes[0].result.per_window[WARMUP_WINDOWS:]
    return {
        "setup_s": statistics.median(run.setup_s for run in passes),
        "docs_per_sec": statistics.median(
            rate for run in passes for rate in segment_rates(workload, run)
        ),
        "cpu_us_per_doc": total / docs * 1e6,
        "parent_cpu_us_per_doc": own / docs * 1e6,
        # before later passes' inputs are allocated: the first pass's reading
        "peak_rss_mb": passes[0].peak_rss_mb,
        "replication": statistics.fmean(w.replication for w in measured),
        "max_load": statistics.fmean(w.max_load for w in measured),
    }


def lags_ms(workload: Workload, paced: SessionRun) -> list[float]:
    """Lag per paced window; a failed window misses the limit T at least."""
    limit = workload.window_seconds
    lags = []
    for k, (due, end) in enumerate(zip(paced.due, paced.ends)):
        lag = end - due
        if WARMUP_WINDOWS + k in paced.failed:
            lag = max(lag, limit)
        lags.append(lag * 1e3)
    return lags


def histogram_sums(snapshot: dict, name: str) -> dict[str, float]:
    """``{component: sum}`` of a component-labelled histogram."""
    prefix = name + "{component="
    return {
        key[len(prefix):-1]: value["sum"]
        for key, value in snapshot.get("histograms", {}).items()
        if key.startswith(prefix)
    }


def counter_total(snapshot: dict, name: str) -> float:
    return sum(
        value
        for key, value in snapshot.get("counters", {}).items()
        if key.startswith(name + "{")
    )


def per_layer(
    workload: Workload,
    seed: int,
    sizes,
    gen_us_per_doc: float,
    capacity: SessionRun,
    paced: SessionRun,
    tracer: Tracer,
) -> dict[str, float]:
    n = len(capacity.starts)
    docs = n * workload.window_docs
    traced_cpu = cpu_us_per_doc(capacity, docs)

    windows, _ = make_windows(workload, seed, WARMUP_WINDOWS + sizes.trace_session)
    observed = run_session(
        session_config(workload, observability=True), windows, tracer=tracer, lane="observed"
    )
    del windows
    wall = observed.t_end - observed.starts[0]
    end_snapshot = observed.result.observability.as_dict()
    busy_end = histogram_sums(end_snapshot, "executor.execute_seconds")
    busy_setup = histogram_sums(observed.obs_setup, "executor.execute_seconds")
    processed = counter_total(end_snapshot, "executor.processed") - counter_total(
        observed.obs_setup, "executor.processed"
    )

    measured = capacity.result.per_window[WARMUP_WINDOWS:]
    repartitions = sum(1 for w in measured if w.repartitioned)
    windows, _ = make_windows(workload, seed, WARMUP_WINDOWS + sizes.replay)
    metrics = replay(
        workload, windows[WARMUP_WINDOWS - 1:], tracer, repartitions / len(measured)
    )
    del windows

    total, own = measured_cpu(capacity)
    # per-worker CPU has to be read while the workers live, so it covers
    # the pushes but not the drain
    per_worker = [
        cpu - capacity.cpu_setup["workers"].get(pid, 0.0)
        for pid, cpu in capacity.cpu_last_push["workers"].items()
    ]
    stats = capacity.result.tuple_stats
    push_ms = [(end - start) * 1e3 for start, end in zip(paced.starts, paced.ends)]
    lags = lags_ms(workload, paced)
    late = sum(
        1 for due, start in zip(paced.due, paced.starts) if start - due > LATE_START_S
    )
    limit_ms = workload.window_seconds * 1e3

    metrics.update(
        {
            "data.gen_us_per_doc": gen_us_per_doc,
            "partitioning.repartitions": repartitions,
            "transport.first_push_s": capacity.first_push_s,
            "executor.tuples_per_doc": processed / docs,
            "parallel.worker_cpu_share": (total - own) / total,
            "parallel.worker_cpu_skew": (
                max(per_worker) / statistics.fmean(per_worker)
                if per_worker and sum(per_worker) > 0
                else 0.0
            ),
            "parallel.inflight_high_water": stats.get("inflight_high_water", 0),
            "parallel.journal_bytes": stats.get("journal_bytes", 0),
            "parallel.restarts": stats.get("worker_restarts", 0),
            "session.push_ms_p50": statistics.median(push_ms),
            "session.push_ms_p90": percentile(push_ms, 0.9),
            "session.drain_ms": capacity.drain_s * 1e3,
            "driver.lag_ms_p50": statistics.median(lags),
            "driver.lag_ms_p90": percentile(lags, 0.9),
            "driver.late_start_share": late / len(lags),
            "driver.lag_limit_miss_share": sum(1 for lag in lags if lag > limit_ms)
            / len(lags),
            "obs.overhead_ratio": cpu_us_per_doc(observed, docs) / traced_cpu,
            "trace.cpu_us_per_doc": traced_cpu,
            "budget.coverage": metrics["budget.sum_us_per_doc"] / traced_cpu,
        }
    )
    for component in COMPONENTS:
        busy = busy_end.get(component, 0.0) - busy_setup.get(component, 0.0)
        metrics[f"executor.busy_share.{component}"] = busy / wall
    return metrics


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    started = perf_counter()
    sizes = sizes_for(workload, seconds)
    tracer = Tracer() if trace else None
    n_capacity = sizes.trace_session if trace else sizes.capacity

    sessions: dict[str, SessionRun] = {}
    expected: dict[str, int] = {}
    gen_us_per_doc = []

    def fresh_session(label: str, n_windows: int, config, **kwargs) -> SessionRun:
        windows, gen_s = make_windows(workload, seed, WARMUP_WINDOWS + n_windows)
        gen_us_per_doc.append(gen_s / (len(windows) * workload.window_docs) * 1e6)
        run = sessions[label] = run_session(config, windows, **kwargs)
        check_windows(run, windows)
        expected[label] = n_windows
        return run

    capacity = fresh_session(
        "capacity 1", n_capacity, session_config(workload), tracer=tracer, lane="capacity"
    )
    if trace:
        depth = {"pipeline_depth": 0} if workload.parallel else {}
        paced = fresh_session(
            "paced",
            sizes.paced,
            session_config(workload, **depth),
            period=workload.window_seconds,
        )
    else:
        for number in range(2, CAPACITY_PASSES + 1):
            fresh_session(f"capacity {number}", n_capacity, session_config(workload))

    others = {label: run for label, run in sessions.items() if run is not capacity}
    problems = verify(workload, seed, capacity, others)
    for label, run in sessions.items():
        problems.extend(f"{label} window {i}: {why}" for i, why in sorted(run.failed.items()))
    payload = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": sum(run.pushed for run in sessions.values()),
        "failed": sum(len(run.failed) for run in sessions.values()),
        "problems": problems,
        "digests": digests_of(capacity),
        "digest": check.digest_hash(digests_of(capacity)),
        "sizes": dataclasses.asdict(sizes),
        "wall": {
            f"{label} s": run.t_end - run.starts[0] if run.starts else 0.0
            for label, run in sessions.items()
        },
        "metrics": {},
    }
    complete = all(
        run.result is not None and len(run.ends) == expected[label]
        for label, run in sessions.items()
    )
    if not complete:
        return payload
    payload["wall"]["checked after s"] = perf_counter() - started
    if trace:
        payload["metrics"] = per_layer(
            workload, seed, sizes, gen_us_per_doc[0], capacity, paced, tracer
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
            {"workload": workload.name, "seed": seed, "seconds": seconds},
        )
    else:
        payload["metrics"] = end_to_end(workload, list(sessions.values()))
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    args = parser.parse_args()
    payload = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    with open(args.result, "w") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
