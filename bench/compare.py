"""Compare two result files: ``python3 bench/compare.py A.json B.json``.

Both files come from ``run.py --repeats N --out FILE``.  For every
(workload, metric) the medians of A and B are compared in the metric's
own direction under the bound ``BENCHMARK.json`` fixes for it.  The
spread of a side is the distance between the first and third quartile
of its runs as a share of their median; when A's own spread is wider
than the bound, a difference of that size is what two runs of A show
anyway, so the row reads ``unresolved`` rather than ``unchanged``.
Per-layer metrics have no bound and get no verdict.  Files measured on
hosts with different CPU counts are refused: worker processes share
cores differently and none of the numbers carry over.
"""

from __future__ import annotations

import json
import os
import statistics
import sys


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def by_workload_metric(results: dict) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for run in results["runs"]:
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def spread(values: list[float]) -> float | None:
    """Interquartile range over the median; None for a single run."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], spec: dict) -> tuple[float, str]:
    """Signed worsening of B against A (positive = worse), and what it means."""
    base = statistics.median(a)
    change = (statistics.median(b) - base) / abs(base) if base else 0.0
    worse = change if spec["better"] == "lower" else -change
    bound = spec.get("bound")
    if bound is None:
        return worse, "-"
    a_spread = spread(a)
    if a_spread is not None and a_spread > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "REGRESSED"
    if worse < -bound:
        return worse, "improved"
    return worse, "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    a, b = load(argv[1]), load(argv[2])
    if a["provenance"]["cpu_count"] != b["provenance"]["cpu_count"]:
        print(
            f"refusing to compare: A ran on {a['provenance']['cpu_count']} CPUs, "
            f"B on {b['provenance']['cpu_count']}",
            file=sys.stderr,
        )
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    manifest = load(os.path.join(root, "BENCHMARK.json"))
    specs = {m["name"]: m for m in manifest["end_to_end"] + manifest["per_layer"]}
    a_values, b_values = by_workload_metric(a), by_workload_metric(b)

    print(f"A: {argv[1]}  commit {a['provenance']['commit']}")
    print(f"B: {argv[2]}  commit {b['provenance']['commit']}")
    header = f"{'workload':<16}{'metric':<40}{'A median':>12}{'B median':>12}{'worse by':>10}{'A spread':>10}{'B spread':>10}{'bound':>7}  verdict"
    print(header)
    regressed = False
    for key in sorted(set(a_values) & set(b_values), key=lambda k: (k[0], list(specs).index(k[1]))):
        workload, metric = key
        spec = specs[metric]
        worse, word = verdict(a_values[key], b_values[key], spec)
        regressed = regressed or word == "REGRESSED"
        spreads = [
            "n/a" if s is None else f"{s:.1%}"
            for s in (spread(a_values[key]), spread(b_values[key]))
        ]
        bound = f"{spec['bound']:.0%}" if "bound" in spec else "-"
        print(
            f"{workload:<16}{metric:<40}{statistics.median(a_values[key]):>12.5g}"
            f"{statistics.median(b_values[key]):>12.5g}{worse:>+10.1%}"
            f"{spreads[0]:>10}{spreads[1]:>10}{bound:>7}  {word}"
        )
    for key in sorted(set(a_values) ^ set(b_values)):
        print(f"{key[0]:<16}{key[1]:<40} only in {'A' if key in a_values else 'B'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
