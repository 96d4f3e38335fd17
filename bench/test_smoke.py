"""Smoke test of the benchmark itself: ``pytest bench/`` (not tier-1).

A one-second-sized run (8 capacity windows, 10 paced) of every workload,
end-to-end and traced, through the same command line the driver uses.
It checks the contract, not the numbers: the result object's shape, and
that the emitted workload and metric names are exactly the ones
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    MANIFEST = json.load(_handle)


def test_manifest_names_the_workloads_defined_here():
    sys.path.insert(0, BENCH_DIR)
    try:
        from workloads import RUN_SECONDS, WORKLOADS
    finally:
        sys.path.remove(BENCH_DIR)
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert MANIFEST["run_seconds"] == RUN_SECONDS
    assert MANIFEST["paths"] == ["bench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_workload_emits_exactly_the_declared_metrics(workload, trace):
    completed = subprocess.run(
        MANIFEST["command"]
        + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = MANIFEST["per_layer"] if trace else MANIFEST["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for spec in declared:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    if trace:
        with open(os.path.join(BENCH_DIR, "out", f"trace-{workload}.json")) as handle:
            events = json.load(handle)["traceEvents"]
        assert any(event["name"] == "session.push" for event in events)
        assert any(event["name"] == "join.probe" for event in events)
