#!/usr/bin/env python
"""Guard the committed benchmarks against regressions.

Two suites share one gate:

``--suite hotpath`` (default)
    Re-runs ``benchmarks/test_micro_hotpath.py``'s workload and compares
    every metric against the committed ``BENCH_hotpath.json``.  All
    metrics are latencies: more than ``--threshold`` (default 25%)
    *slower* than the committed value fails.

``--suite throughput``
    Re-runs ``benchmarks/test_throughput.py``'s soak grid against
    ``BENCH_throughput.json``.  The comparison is direction-aware:
    ``*_per_sec`` metrics fail when they *drop* past the threshold,
    latency metrics (``*_ms``) when they *rise* — both drift directions
    gate.  Saturation soaks are noisier than microbenchmarks, so the
    default threshold is 50%.

Improvements never fail — refresh the committed file with ``make
bench-hotpath`` / ``make bench-throughput`` when they should become the
new bar.  Metric-set drift fails in both directions for both suites.

Absolute numbers only compare on the host that measured them: like
``bench/compare.py``, the gate refuses (exit 2) when the committed
file's ``workload.cpu_count`` is missing or differs from this host's
``os.cpu_count()``.

Usage::

    PYTHONPATH=src python scripts/check_bench.py            # run + compare
    PYTHONPATH=src python scripts/check_bench.py --suite throughput
    PYTHONPATH=src python scripts/check_bench.py --current results/fresh.json

``--current`` skips the measurement and compares a previously written
report instead (useful when iterating on the threshold or in CI jobs
that split measuring from checking).  Wired as ``make bench-check`` and
``make bench-check-throughput``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "src"))


def load_metrics(path: Path) -> dict[str, float]:
    return report_metrics(json.loads(path.read_text()), path)


def report_metrics(report: dict, path: Path) -> dict[str, float]:
    metrics = report.get("metrics", report)
    if not isinstance(metrics, dict) or not metrics:
        raise SystemExit(f"{path}: no metrics found")
    return metrics


def host_mismatch(report: dict, cpu_count: Optional[int]) -> Optional[str]:
    """Why ``report`` cannot be compared on a host with ``cpu_count``
    CPUs, or None when its recorded ``workload.cpu_count`` matches."""
    recorded = report.get("workload", {}).get("cpu_count")
    if recorded is not None and recorded == cpu_count:
        return None
    return (
        f"refusing to compare across hosts: the committed baseline records "
        f"workload.cpu_count={recorded}, this host has os.cpu_count()="
        f"{cpu_count}"
    )


def higher_is_better(key: str) -> bool:
    """Metric direction by naming convention: rates, parallel-over-local
    speedups and viral-hold ratios up, latencies down."""
    return (
        key.endswith("_per_sec")
        or key.endswith("_speedup")
        or key.endswith("_ratio")
    )


def compare(
    committed: dict[str, float],
    current: dict[str, float],
    threshold: float,
) -> list[str]:
    """Human-readable failure lines, empty when the check passes.

    Each metric is compared in its own direction
    (:func:`higher_is_better`): latency-style metrics fail when they
    rise past the threshold, rate-style metrics when they drop.
    Metric-set drift fails in *both* directions: a committed metric the
    current run no longer measures means the guard went blind to it, and
    a measured metric absent from the committed file means the baseline
    is stale — either way the matching ``make bench-*`` target must
    regenerate it.
    """
    failures = []
    for key, base in sorted(committed.items()):
        now = current.get(key)
        if now is None:
            failures.append(f"{key}: committed but missing from current run")
            continue
        if base <= 0:
            continue
        if higher_is_better(key):
            if now < base * (1.0 - threshold):
                failures.append(
                    f"{key}: {now:.1f} vs committed {base:.1f} "
                    f"({(now / base - 1.0) * 100.0:.0f}%, "
                    f"limit -{threshold * 100.0:.0f}%)"
                )
        elif now > base * (1.0 + threshold):
            failures.append(
                f"{key}: {now:.1f} vs committed {base:.1f} "
                f"(+{(now / base - 1.0) * 100.0:.0f}%, "
                f"limit +{threshold * 100.0:.0f}%)"
            )
    for key in sorted(set(current) - set(committed)):
        failures.append(f"{key}: measured but missing from committed baseline")
    return failures


SUITES = {
    "hotpath": {
        "baseline": "BENCH_hotpath.json",
        "regenerate": "make bench-hotpath",
        "threshold": 0.25,
    },
    "throughput": {
        "baseline": "BENCH_throughput.json",
        "regenerate": "make bench-throughput",
        "threshold": 0.50,
    },
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=tuple(SUITES),
        default="hotpath",
        help="which benchmark family to guard (default: hotpath)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed benchmark report to compare against "
             "(default: the suite's BENCH_*.json)",
    )
    parser.add_argument(
        "--current",
        type=Path,
        default=None,
        help="pre-measured report; omitted -> run the benchmark now",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="allowed fractional regression per metric "
             "(default: 0.25 hotpath, 0.50 throughput)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=2,
        help="collection passes to min-merge when measuring (default 2)",
    )
    args = parser.parse_args(argv)
    suite = SUITES[args.suite]
    baseline = args.baseline or REPO_ROOT / suite["baseline"]
    threshold = suite["threshold"] if args.threshold is None else args.threshold

    if not baseline.exists():
        print(f"no committed baseline at {baseline}; run `{suite['regenerate']}`")
        return 2
    report = json.loads(baseline.read_text())
    mismatch = host_mismatch(report, os.cpu_count())
    if mismatch is not None:
        print(f"{mismatch}; regenerate it on this host with `{suite['regenerate']}`")
        return 2
    committed = report_metrics(report, baseline)

    if args.current is not None:
        current = load_metrics(args.current)
    elif args.suite == "throughput":
        from test_throughput import collect_metrics, merge_best

        print("measuring sustained throughput (soak grid, a few minutes)...")
        passes = []
        for _ in range(args.runs):
            metrics, health = collect_metrics()
            passes.append(metrics)
            for cell, ok in health.items():
                if not ok:
                    print(f"bench-check FAILED: soak cell {cell} unhealthy")
                    return 1
        current = merge_best(*passes)
    else:
        from test_micro_hotpath import collect_metrics, merge_min

        print("measuring hot-path metrics (this takes a few minutes)...")
        current = merge_min(*(collect_metrics() for _ in range(args.runs)))

    failures = compare(committed, current, threshold)
    if failures:
        print(f"bench-check FAILED: {len(failures)} metric(s) regressed")
        for line in failures:
            print(f"  {line}")
        print(
            f"If the regression is intended, regenerate the baseline with "
            f"`{suite['regenerate']}` and commit {suite['baseline']}."
        )
        return 1
    print(f"bench-check OK: {len(committed)} metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
