"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import time

import pytest
from hypothesis import strategies as st

from repro.core.document import Document

# ---------------------------------------------------------------------------
# Leak gate: tests that start worker processes must leave none behind
# ---------------------------------------------------------------------------

#: markers of the suites that spawn workers
SPAWNING_MARKERS = ("parallel", "chaos", "distributed", "elastic")


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` after the ``(comm)`` field (0 = state,
    1 = ppid), or None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    return raw[raw.rindex(")") + 2:].split()


def _cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read()
    except OSError:
        return b""


def _live_worker_pids() -> list[int]:
    """PIDs of live ``repro.worker`` processes, via /proc cmdlines."""
    return [
        int(entry)
        for entry in os.listdir("/proc")
        if entry.isdigit() and b"repro.worker" in _cmdline(int(entry))
    ]


def _live_children() -> set[int]:
    """Live (non-zombie) children of this process.  multiprocessing's
    resource tracker is left out: it lives as long as this process."""
    me = os.getpid()
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None or int(fields[1]) != me or fields[0] == "Z":
            continue
        if b"resource_tracker" not in _cmdline(int(entry)):
            children.add(int(entry))
    return children


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _open_fds() -> dict[int, str]:
    """This process's open descriptors → ``readlink`` targets.  The
    directory descriptor the listing itself opens is closed by the time
    it is resolved, so it drops out."""
    fds = {}
    for entry in os.listdir("/proc/self/fd"):
        try:
            fds[int(entry)] = os.readlink(f"/proc/self/fd/{entry}")
        except OSError:
            continue
    return fds


def _await_no_workers(timeout_s: float = 5.0) -> list[int]:
    """Give just-reaped workers a beat to vanish from /proc, then report."""
    deadline = time.monotonic() + timeout_s
    pids = _live_worker_pids()
    while pids and time.monotonic() < deadline:
        time.sleep(0.1)
        pids = _live_worker_pids()
    return pids


@pytest.fixture(autouse=True)
def _no_leaked_workers(request):
    """Fail a spawning test that leaves a child process, a ``repro.worker``,
    a ``/dev/shm`` segment or an open descriptor of its own alive past a
    5 s grace."""
    if not any(request.node.get_closest_marker(m) for m in SPAWNING_MARKERS):
        yield
        return
    children, workers = _live_children(), set(_live_worker_pids())
    segments = _shm_segments()
    fds = set(_open_fds().items())
    yield
    deadline = time.monotonic() + 5.0
    while True:
        procs = (_live_children() - children) | (set(_live_worker_pids()) - workers)
        shm = _shm_segments() - segments
        leaked_fds = sorted(set(_open_fds().items()) - fds)
        if not (procs or shm or leaked_fds) or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    if procs or shm or leaked_fds:
        pytest.fail(
            f"{request.node.nodeid} leaked processes {sorted(procs)}, "
            f"/dev/shm segments {sorted(shm)} and descriptors "
            + (", ".join(f"{fd} -> {target}" for fd, target in leaked_fds) or "[]"),
            pytrace=False,
        )


# ---------------------------------------------------------------------------
# Canonical paper examples
# ---------------------------------------------------------------------------


@pytest.fixture
def fig1_documents() -> list[Document]:
    """The seven documents of the paper's Fig. 1."""
    return [
        Document({"User": "A", "Severity": "Warning"}, doc_id=1),
        Document({"User": "A", "Severity": "Warning", "MsgId": 2}, doc_id=2),
        Document({"User": "A", "Severity": "Error"}, doc_id=3),
        Document({"IP": "10.2.145.212", "Severity": "Warning"}, doc_id=4),
        Document({"User": "B", "Severity": "Critical", "MsgId": 1}, doc_id=5),
        Document({"User": "B", "Severity": "Critical"}, doc_id=6),
        Document({"User": "B", "Severity": "Warning"}, doc_id=7),
    ]


@pytest.fixture
def table1_documents() -> list[Document]:
    """The four documents of the paper's Table I (FP-tree example)."""
    return [
        Document({"a": 3, "b": 7, "c": 1}, doc_id=1),
        Document({"a": 3, "b": 8}, doc_id=2),
        Document({"a": 3, "b": 7}, doc_id=3),
        Document({"b": 8, "c": 2}, doc_id=4),
    ]


@pytest.fixture
def fig3_documents() -> list[Document]:
    """The four documents of the paper's Fig. 3 (association groups)."""
    return [
        Document({"A": 2, "B": 3, "C": 7}, doc_id=1),
        Document({"A": 7, "B": 3, "C": 4}, doc_id=2),
        Document({"D": 13}, doc_id=3),
        Document({"A": 7, "C": 4}, doc_id=4),
    ]


# ---------------------------------------------------------------------------
# Hypothesis strategies for schema-free documents
# ---------------------------------------------------------------------------

#: a constrained attribute alphabet so documents actually share pairs
ATTRIBUTES = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"])
VALUES = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.sampled_from(["x", "y", "z"]),
    st.booleans(),
)


@st.composite
def document_pairs(draw) -> dict:
    """A non-empty flat attribute -> value mapping."""
    n = draw(st.integers(min_value=1, max_value=5))
    attributes = draw(
        st.lists(ATTRIBUTES, min_size=n, max_size=n, unique=True)
    )
    return {attribute: draw(VALUES) for attribute in attributes}


@st.composite
def document_lists(draw, min_size: int = 1, max_size: int = 25) -> list[Document]:
    """A window of documents with sequential doc ids."""
    raw = draw(st.lists(document_pairs(), min_size=min_size, max_size=max_size))
    return [Document(pairs, doc_id=i) for i, pairs in enumerate(raw)]
