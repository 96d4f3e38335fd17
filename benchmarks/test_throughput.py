"""Sustained-throughput benchmark: soak-driven saturation per backend.

For every (backend x zoo workload) cell this benchmark runs a short
rate-ramped soak (:func:`repro.soak.run_soak`): offered load doubles
each epoch until the topology stops keeping up, and the cell reports

* ``{backend}.{workload}.docs_per_sec`` — the best achieved docs/sec
  over the ramp (sustained throughput; **higher is better**),
* ``{backend}.{workload}.p50_ms`` / ``p99_ms`` — end-to-end latency
  quantiles from the driver's ``soak.e2e_seconds`` histogram in
  milliseconds (**lower is better**),
* ``{backend}.{workload}.local_speedup`` — the parallel backend's
  sustained throughput over the local inline backend's, same pass
  (**higher is better**; ``>= 1`` means scaling out pays on this host),
* ``{backend}.zipf_viral.docs_per_sec`` / ``hold_ratio`` — the skew-hold
  cell: a fixed offered rate through the zipf viral ramp, reporting the
  viral-phase achieved rate over the pre-viral one (**higher is
  better**; parallel cells run with an elastic 2:4 worker pool, see
  ``docs/elasticity.md``),

for the ``local`` inline backend and the parallel backend over the
``pipe`` and ``socket`` transports, across the adversarial workload zoo
(``zipf`` skew, ``drift`` schema churn, ``late`` out-of-order arrivals,
``burst`` flash crowds — :mod:`repro.data.zoo`).

Runs are min/max-merged direction-aware across passes
(:func:`merge_best`): throughput keeps the max, latency the min —
contention on a shared host only ever makes both worse.  ``make
bench-throughput`` regenerates ``BENCH_throughput.json``; ``make
bench-check-throughput`` (``scripts/check_bench.py --suite
throughput``) fails on regressions in either metric direction.  Every
cell also asserts the long-running-session invariants (bounded memory,
monotonic metrics): an unhealthy soak poisons the report rather than
silently shipping numbers from a leaking run.

The pytest entry points are smoke tests over a scaled-down local-only
grid; the full measurement runs via ``python
benchmarks/test_throughput.py``.  See ``docs/soak.md``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from repro.data.zoo import ZOO_WORKLOADS, ZipfSkewGenerator
from repro.soak import SoakConfig, SoakReport, run_soak
from repro.streaming.elastic import ElasticPolicy

SEED = 7
M = 8
RUNS = 2

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

#: label -> (backend, transport); the label keys the metric family
BACKENDS = {
    "local": ("local", "pipe"),
    "pipe": ("parallel", "pipe"),
    "socket": ("parallel", "socket"),
}
WORKLOADS = ZOO_WORKLOADS

#: per-cell wall-clock cap (seconds); the ramp usually saturates sooner
MAX_SECONDS = {"local": 8.0, "pipe": 10.0, "socket": 12.0}
#: docs/sec offered in the first epoch; the parallel backends start
#: higher so windows are large enough to amortize the per-window barrier
INITIAL_RATE = {"local": 500.0, "pipe": 1000.0, "socket": 1000.0}


def cell_config(
    label: str,
    workload: str,
    max_seconds: float | None = None,
    initial_rate: float | None = None,
    epoch_windows: int = 3,
) -> SoakConfig:
    """The soak configuration of one benchmark cell."""
    backend, transport = BACKENDS[label]
    return SoakConfig(
        workload=workload,
        seed=SEED,
        m=M,
        backend=backend,
        transport=transport,
        workers=2 if backend == "parallel" else None,
        initial_rate=(
            INITIAL_RATE[label] if initial_rate is None else initial_rate
        ),
        window_seconds=0.25,
        epoch_windows=epoch_windows,
        max_seconds=MAX_SECONDS[label] if max_seconds is None else max_seconds,
        max_window_size=10_000,
    )


#: window index at which the viral-hold cell's hot pair starts ramping;
#: with ``warmup_windows=1`` and ``epoch_windows=2`` the warmup window
#: plus epoch 0 (windows 1-2) are fully pre-viral, epochs 1+ are viral
VIRAL_START_WINDOW = 3
#: measured epochs of the viral-hold cell: one pre-viral, three viral
VIRAL_EPOCHS = 4
#: fixed offered docs/sec of the viral-hold cell — deliberately above
#: this host's capacity so achieved == capacity in both phases and the
#: hold ratio measures skew degradation, not an arbitrary rate choice
VIRAL_OFFERED_RATE = 4000.0
#: per-cell wall-clock cap (seconds) of the viral-hold cell
VIRAL_MAX_SECONDS = {"local": 12.0, "pipe": 18.0, "socket": 24.0}


def viral_cell_config(label: str, max_seconds: float | None = None) -> SoakConfig:
    """The ``zipf_viral`` skew-hold cell: fixed offered rate, one
    pre-viral epoch, then the viral ramp — parallel backends run with an
    elastic worker pool so live migration can spread the hot partition."""
    backend, transport = BACKENDS[label]
    return SoakConfig(
        workload="zipf",
        seed=SEED,
        m=M,
        backend=backend,
        transport=transport,
        workers=2 if backend == "parallel" else None,
        elastic=(
            ElasticPolicy(min_workers=2, max_workers=4)
            if backend == "parallel"
            else None
        ),
        # the offered rate is pinned: the ramp would double it, but the
        # ceiling equals the initial rate, so every epoch offers the same
        # load and the hold ratio compares like against like
        initial_rate=VIRAL_OFFERED_RATE,
        max_rate=VIRAL_OFFERED_RATE,
        stop_at_saturation=False,
        window_seconds=0.25,
        epoch_windows=2,
        max_epochs=VIRAL_EPOCHS,
        max_seconds=(
            VIRAL_MAX_SECONDS[label] if max_seconds is None else max_seconds
        ),
        max_window_size=10_000,
    )


def viral_hold_metrics(label: str, report: SoakReport) -> dict[str, float]:
    """``{label}.zipf_viral`` rows: viral-phase throughput and hold ratio.

    ``hold_ratio`` is the mean achieved docs/sec of the viral epochs
    over the pre-viral epoch's — 1.0 means the topology fully held its
    pre-viral rate through the skew ramp (**higher is better**).  Both
    phases run in the same pass at the same offered rate, so host
    contention cancels out of the ratio.
    """
    prefix = f"{label}.zipf_viral"
    metrics = {
        prefix + ".docs_per_sec": round(report.sustained_docs_per_sec, 1)
    }
    achieved = [rate for _offered, rate in report.ramp]
    if len(achieved) >= 2 and achieved[0] > 0:
        viral = achieved[1:]
        metrics[prefix + ".hold_ratio"] = round(
            (sum(viral) / len(viral)) / achieved[0], 3
        )
    return metrics


def run_viral_cell(
    label: str, max_seconds: float | None = None
) -> tuple[dict[str, float], SoakReport]:
    generator = ZipfSkewGenerator(
        seed=SEED, viral_start_window=VIRAL_START_WINDOW
    )
    report = run_soak(viral_cell_config(label, max_seconds), generator)
    return viral_hold_metrics(label, report), report


def cell_metrics(label: str, workload: str, report: SoakReport) -> dict[str, float]:
    """Flatten one soak report into the benchmark's metric family."""
    prefix = f"{label}.{workload}"
    metrics = {prefix + ".docs_per_sec": round(report.sustained_docs_per_sec, 1)}
    if report.p50_s is not None:
        metrics[prefix + ".p50_ms"] = round(report.p50_s * 1000.0, 3)
    if report.p99_s is not None:
        metrics[prefix + ".p99_ms"] = round(report.p99_s * 1000.0, 3)
    return metrics


def add_speedups(metrics: dict[str, float]) -> dict[str, float]:
    """Derive ``{label}.{workload}.local_speedup`` ratios in place.

    A parallel cell's sustained throughput divided by the local inline
    backend's on the same workload (same pass, so host contention hits
    both sides alike).  Keyed ``*_speedup`` — the direction-aware gate
    (:mod:`scripts.check_bench`) treats the ratio as higher-is-better,
    so a change that speeds local but slows shipping still fails even
    when every absolute number looks fine.
    """
    for label in BACKENDS:
        if label == "local":
            continue
        for workload in WORKLOADS:
            base = metrics.get(f"local.{workload}.docs_per_sec")
            parallel = metrics.get(f"{label}.{workload}.docs_per_sec")
            if base and parallel:
                metrics[f"{label}.{workload}.local_speedup"] = round(
                    parallel / base, 3
                )
    return metrics


def collect_metrics(
    labels=tuple(BACKENDS),
    workloads=WORKLOADS,
    max_seconds: float | None = None,
) -> tuple[dict[str, float], dict[str, bool]]:
    """One pass over the grid: (metrics, per-cell health flags)."""
    metrics: dict[str, float] = {}
    health: dict[str, bool] = {}
    for label in labels:
        for workload in workloads:
            report = run_soak(cell_config(label, workload, max_seconds))
            metrics.update(cell_metrics(label, workload, report))
            health[f"{label}.{workload}"] = report.healthy
            if not report.healthy:
                print(
                    f"UNHEALTHY soak {label}.{workload}: "
                    f"memory_ok={report.memory_ok} "
                    f"obs_monotonic={report.obs_monotonic}",
                    file=sys.stderr,
                )
        # the skew-hold cell rides the zipf workload selection
        if "zipf" in workloads:
            cell, report = run_viral_cell(label, max_seconds)
            metrics.update(cell)
            health[f"{label}.zipf_viral"] = report.healthy
            if not report.healthy:
                print(
                    f"UNHEALTHY soak {label}.zipf_viral: "
                    f"memory_ok={report.memory_ok} "
                    f"obs_monotonic={report.obs_monotonic}",
                    file=sys.stderr,
                )
    return add_speedups(metrics), health


def merge_best(*runs: dict[str, float]) -> dict[str, float]:
    """Direction-aware merge: throughput keeps max, latency keeps min."""
    merged: dict[str, float] = {}
    for run in runs:
        for key, value in run.items():
            if key not in merged:
                merged[key] = value
            elif (
                key.endswith("_per_sec")
                or key.endswith("_speedup")
                or key.endswith("_ratio")
            ):
                merged[key] = max(merged[key], value)
            else:
                merged[key] = min(merged[key], value)
    return merged


def write_report(
    metrics: dict[str, float],
    health: dict[str, bool],
    path: Path = BENCH_FILE,
) -> dict:
    """Write ``BENCH_throughput.json`` and return the report dict."""
    report = {
        "workload": {
            "seed": SEED,
            "machines": M,
            "runs": RUNS,
            "backends": {k: list(v) for k, v in BACKENDS.items()},
            "workloads": list(WORKLOADS),
            "max_seconds": MAX_SECONDS,
            "initial_rate": INITIAL_RATE,
            "cpu_count": os.cpu_count(),
            "unit": (
                "docs_per_sec: sustained docs/sec, max over runs (higher "
                "is better); p50_ms/p99_ms: end-to-end latency quantiles, "
                "min over runs (lower is better); local_speedup: parallel "
                "docs_per_sec / local docs_per_sec, same pass, max over "
                "runs (higher is better); zipf_viral.hold_ratio: viral-"
                "phase achieved rate / pre-viral achieved rate at a fixed "
                "offered rate, max over runs (higher is better; parallel "
                "cells run with an elastic 2:4 worker pool)"
            ),
        },
        "healthy": health,
        "metrics": metrics,
        "notes": {
            "sustained": (
                "best achieved docs/sec over an offered-load ramp that "
                "doubles each epoch until achieved < 90% of offered "
                "(repro.soak.RateController)"
            ),
            "latency": (
                "a document's e2e latency = its in-window accumulation "
                "wait under the offered arrival rate + the wall-clock "
                "push time of its window; quantiles interpolated from "
                "the soak.e2e_seconds histogram"
            ),
            "gating": (
                "scripts/check_bench.py --suite throughput compares "
                "direction-aware: *_per_sec drops and *_ms rises both "
                "fail past the threshold"
            ),
        },
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


# ----------------------------------------------------------------------
# pytest smoke entry points (scaled down, local backend only)
# ----------------------------------------------------------------------

def test_local_cells_produce_sane_metrics():
    metrics, health = collect_metrics(
        labels=("local",), workloads=("zipf", "burst"), max_seconds=3.0
    )
    for workload in ("zipf", "burst"):
        key = f"local.{workload}.docs_per_sec"
        assert metrics[key] > 0
        assert metrics[f"local.{workload}.p50_ms"] > 0
        assert (
            metrics[f"local.{workload}.p99_ms"]
            >= metrics[f"local.{workload}.p50_ms"]
        )
        assert health[f"local.{workload}"]
    # the zipf selection brings the skew-hold cell along
    assert metrics["local.zipf_viral.docs_per_sec"] > 0
    assert health["local.zipf_viral"]


def test_merge_best_is_direction_aware():
    a = {
        "x.docs_per_sec": 100.0,
        "x.p99_ms": 50.0,
        "x.local_speedup": 0.8,
        "x.hold_ratio": 0.7,
    }
    b = {
        "x.docs_per_sec": 120.0,
        "x.p99_ms": 80.0,
        "x.local_speedup": 0.9,
        "x.hold_ratio": 0.95,
    }
    merged = merge_best(a, b)
    assert merged["x.docs_per_sec"] == 120.0
    assert merged["x.p99_ms"] == 50.0
    assert merged["x.local_speedup"] == 0.9
    assert merged["x.hold_ratio"] == 0.95


def test_viral_hold_metrics_derive_the_ratio():
    report = SoakReport(config=viral_cell_config("local", max_seconds=1.0))
    report.sustained_docs_per_sec = 900.0
    report.ramp = [(1000.0, 900.0), (1000.0, 810.0), (1000.0, 720.0)]
    metrics = viral_hold_metrics("local", report)
    assert metrics["local.zipf_viral.docs_per_sec"] == 900.0
    assert metrics["local.zipf_viral.hold_ratio"] == 0.85

    # a run too short for a viral phase reports no ratio at all rather
    # than a fabricated one
    report.ramp = [(1000.0, 900.0)]
    assert "local.zipf_viral.hold_ratio" not in viral_hold_metrics(
        "local", report
    )


def test_add_speedups_derives_parallel_over_local_ratios():
    metrics = {
        "local.zipf.docs_per_sec": 100.0,
        "pipe.zipf.docs_per_sec": 80.0,
        "socket.zipf.docs_per_sec": 50.0,
        # no local.burst -> no burst ratios
        "pipe.burst.docs_per_sec": 70.0,
    }
    add_speedups(metrics)
    assert metrics["pipe.zipf.local_speedup"] == 0.8
    assert metrics["socket.zipf.local_speedup"] == 0.5
    assert not any(k.endswith("burst.local_speedup") for k in metrics)


def test_report_shape_roundtrips(tmp_path):
    metrics, health = collect_metrics(
        labels=("local",), workloads=("drift",), max_seconds=2.0
    )
    report = write_report(metrics, health, path=tmp_path / "bench.json")
    loaded = json.loads((tmp_path / "bench.json").read_text())
    assert loaded["metrics"] == report["metrics"]
    assert set(loaded["healthy"]) == {"local.drift"}
    assert "local.drift.docs_per_sec" in loaded["metrics"]


def main() -> int:
    passes = []
    health: dict[str, bool] = {}
    for i in range(RUNS):
        metrics, pass_health = collect_metrics()
        passes.append(metrics)
        # a cell is healthy only if every pass was
        for key, ok in pass_health.items():
            health[key] = health.get(key, True) and ok
        print(f"pass {i + 1}/{RUNS} done", file=sys.stderr)
    report = write_report(merge_best(*passes), health)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if all(health.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
