"""The repo benchmark: ``python3 bench/run.py [--workload NAME] [--seed N] [--trace]``.

Runs each workload of ``BENCHMARK.json`` in a fresh interpreter
(``measure.py``), prints every metric by name with its unit, checks the
outputs and exits non-zero on any correctness failure.  With
``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics.

The fresh interpreter is started with ``PYTHONHASHSEED=0``: partition
mining iterates over sets, so replication, max load and the per-window
digests depend on string hashing and only repeat under a pinned hash
seed.  Workers inherit it.  The interpreter runs in a session of its
own, under a hard timeout; whatever is still alive in that session when
it ends, and every new ``/dev/shm`` segment, is a leak that fails the
run (``leaked_workers`` / ``leaked_shm``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

import check
import procstat
from workloads import DEFAULT_SEED, RUN_SECONDS, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
#: the contract allows a run 180 s; leave room to reap and report
TIMEOUT_S = 170.0


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def provenance() -> dict:
    """Stamped on every result file: numbers compare only on like hosts."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # a checkout without git history
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One measured run in a fresh interpreter; None if it produced nothing."""
    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(OUT_DIR, f"last-{name}-{'trace' if trace else 'e2e'}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    shm_before = procstat.shm_segments()
    child = subprocess.Popen(
        [
            sys.executable,
            os.path.join(BENCH_DIR, "measure.py"),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--result", result_path,
        ],
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    timed_out = False
    try:
        code = child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(child.pid, signal.SIGKILL)
        code = child.wait()
    leaked_workers = procstat.reap_session(child.pid)
    leaked_shm = len(procstat.shm_segments() - shm_before)
    if timed_out:
        print(f"{name}: killed after the {TIMEOUT_S:.0f} s timeout", file=sys.stderr)
        return None
    if code != 0 or not os.path.exists(result_path):
        print(f"{name}: measure.py exited with code {code}", file=sys.stderr)
        return None
    with open(result_path) as handle:
        payload = json.load(handle)
    payload["leaked_workers"] = leaked_workers
    payload["leaked_shm"] = leaked_shm
    if leaked_workers:
        payload["problems"].append(f"{leaked_workers} processes outlived the run")
    if leaked_shm:
        payload["problems"].append(f"{leaked_shm} /dev/shm segments left behind")
    return payload


def report(payload: dict, expected: list[dict]) -> dict:
    """Print one run and return its contract result object.

    The metric names must be exactly those ``BENCHMARK.json`` declares
    for this kind of run; anything else is a broken benchmark, not a
    measurement, and fails the run.
    """
    name = payload["workload"]
    metrics = payload["metrics"]
    declared = [m["name"] for m in expected]
    problems = list(payload["problems"])
    if sorted(metrics) != sorted(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        problems.append(f"metric names differ: missing {missing}, undeclared {extra}")
    correct = not problems and payload["failed"] == 0
    print(f"== {name}  seed {payload['seed']}  trace {payload['trace']}  digest {payload['digest']}")
    for spec in expected:
        if spec["name"] in metrics:
            print(f"{name}  {spec['name']:<40} {metrics[spec['name']]:>14.6g} {spec['unit']}")
    wall = "  ".join(f"{key} {value:.1f}" for key, value in payload["wall"].items())
    print(f"{name}  (wall: {wall}; sizes: {payload['sizes']})")
    print(f"{name}  {'windows_attempted':<40} {payload['attempted']:>14d} count")
    print(f"{name}  {'windows_failed':<40} {payload['failed']:>14d} count")
    print(f"{name}  {'leaked_workers':<40} {payload['leaked_workers']:>14d} count")
    print(f"{name}  {'leaked_shm':<40} {payload['leaked_shm']:>14d} count")
    for problem in problems:
        print(f"{name}  PROBLEM: {problem}")
    return {
        "correct": correct,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {
            spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
            for spec in expected
            if spec["name"] in metrics
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="report the per-layer metrics and write bench/out/trace-<workload>.json",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="runs per workload, on seeds SEED, SEED+1, ...",
    )
    parser.add_argument("--out", help="write every run to this result file (for compare.py)")
    args = parser.parse_args()

    manifest = load_manifest()
    declared = [w["name"] for w in manifest["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        print(f"BENCHMARK.json workloads {declared} differ from bench/workloads.py", file=sys.stderr)
        return 2
    expected = manifest["per_layer"] if args.trace else manifest["end_to_end"]
    names = [args.workload] if args.workload else declared

    runs = []
    last = None
    produced = True
    for repeat in range(args.repeats):
        by_name = {}
        for name in names:
            payload = run_workload(name, args.seed + repeat, args.seconds, args.trace)
            if payload is None:
                produced = False
                continue
            last = report(payload, expected)
            by_name[name] = payload
            runs.append({**last, **{k: payload[k] for k in ("workload", "seed", "trace", "digest")}})
        # the scale-out run must reproduce the single-process run window by window
        if "rw_local" in by_name and "rw_pipe2" in by_name:
            differing = check.digest_mismatches(
                by_name["rw_local"]["digests"], by_name["rw_pipe2"]["digests"]
            )
            if differing:
                produced = False
                print(f"PROBLEM: rw_local and rw_pipe2 digests differ at windows {differing}")

    stamp = provenance()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"provenance": stamp, "seconds": args.seconds, "runs": runs}, handle, indent=1)
    ok = produced and all(run["correct"] for run in runs)
    if args.workload and args.repeats == 1:
        # the driver's form: the run's own result object, or nothing at
        # all when the run produced none
        if last is not None:
            print(json.dumps(last))
    else:
        print(json.dumps({"correct": ok, "runs": len(runs), **stamp}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
