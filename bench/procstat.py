"""Process accounting read from ``/proc``: CPU, peak memory, children, leaks.

A live worker's CPU is only readable from ``/proc/<pid>/stat`` (utime +
stime, 10 ms clock ticks), forked or spawned alike.  Once a worker has
been reaped it has no ``/proc`` entry any more and its time shows up in
the parent's children-rusage instead, which is why :func:`cpu_snapshot`
keeps the three parts (own, reaped children, live workers) apart and
:func:`total_cpu` adds them — the sum only ever grows, whenever the
workers happen to exit.  The own and reaped parts come from the clocks
the kernel keeps at full resolution.
"""

from __future__ import annotations

import os
import resource
import signal
import time

_TICK = 1.0 / os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` after the ``(comm)`` field, or None if gone.

    Index 0 is the state; 1 ppid, 3 session, 11/12 utime/stime and
    13/14 cutime/cstime (``man 5 proc`` numbers them from 3).
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    return raw[raw.rindex(")") + 2:].split()


def _pids() -> list[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def worker_children(pid: int) -> list[int]:
    """Live children of ``pid`` that do join work.

    ``multiprocessing``'s resource tracker is a child too (it owns the
    shared-memory bookkeeping of the pipe transport) but does no work a
    document pays for, so it is left out of per-worker figures.
    """
    children = []
    for candidate in _pids():
        fields = _stat_fields(candidate)
        if fields is None or int(fields[1]) != pid:
            continue
        if "resource_tracker" in _cmdline(candidate):
            continue
        children.append(candidate)
    return sorted(children)


def cpu_snapshot() -> dict:
    """CPU seconds so far: ``own``, ``reaped`` children, live ``workers``."""
    pid = os.getpid()
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    workers = {}
    for child in worker_children(pid):
        child_fields = _stat_fields(child)
        if child_fields is not None:
            workers[child] = sum(int(child_fields[i]) for i in (11, 12, 13, 14)) * _TICK
    return {
        "own": time.process_time(),
        "reaped": reaped.ru_utime + reaped.ru_stime,
        "workers": workers,
    }


def total_cpu(snapshot: dict) -> float:
    return snapshot["own"] + snapshot["reaped"] + sum(snapshot["workers"].values())


def peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over this process and its live worker children."""
    pid = os.getpid()
    total_kb = _status_kb(pid, "VmHWM")
    for child in worker_children(pid):
        total_kb += _status_kb(child, "VmHWM")
    return total_kb / 1024.0


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def session_survivors(session_id: int) -> list[int]:
    """Processes still alive in the session a workload ran in."""
    survivors = []
    for candidate in _pids():
        fields = _stat_fields(candidate)
        if fields is None or int(fields[3]) != session_id:
            continue
        if fields[0] != "Z":
            survivors.append(candidate)
    return survivors


def reap_session(session_id: int, grace: float = 2.0) -> int:
    """Count what a finished workload left running, then stop it.

    Helpers that exit on their own right after their parent (the
    resource tracker) get ``grace`` seconds; whatever is left after that
    is a leak: it is counted, killed and waited for, so the benchmark
    never leaves a process behind even when the program does.
    """
    deadline = time.monotonic() + grace
    survivors = session_survivors(session_id)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = session_survivors(session_id)
    leaked = len(survivors)
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while session_survivors(session_id) and time.monotonic() < deadline:
        time.sleep(0.05)
    return leaked
