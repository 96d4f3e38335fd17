"""The four workloads and every frozen size of the benchmark.

``BENCHMARK.json`` names the workloads and metrics (its schema has no
room for more); the sizes, offered rates and the default seed that the
numbers depend on are frozen here.  Changing any of them is a change to
the benchmark and resets every baseline.

Sizes are stated for ``--seconds RUN_SECONDS`` (the ``run_seconds`` of
``BENCHMARK.json``) and scale linearly with ``--seconds``, so a smoke
test can ask for a one-second run of the same shape.  Work per run is a
fixed number of windows, not a time box: the same seed then pushes the
same windows on every commit, which is what lets ``replication``,
``max_load`` and the per-window digests repeat exactly.  The counts were
tuned on the parent commit (2-CPU host) so that the measured pushes of
an end-to-end run last about ``RUN_SECONDS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

RUN_SECONDS = 15
DEFAULT_SEED = 7

#: the Joiner count and partitioner of every workload
M = 8
ALGORITHM = "AG"

#: unmeasured windows after session construction: worker spawn, the
#: all-broadcast bootstrap window, first partition mining, dictionaries
WARMUP_WINDOWS = 4
#: paced windows: 110 samples leave 11 beyond the 90th percentile
PACED_WINDOWS = 110
#: capacity passes (sessions over the same windows) of an end-to-end run
CAPACITY_PASSES = 5
#: each capacity pass is cut into this many equal segments
PASS_SEGMENTS = 4
#: traced run: windows of the spans-on and observability-on sessions
TRACE_SESSION_WINDOWS = 40
#: traced run: windows replayed stage by stage
REPLAY_WINDOWS = 20
#: entries per shipped batch in the replay (the cluster default)
REPLAY_BATCH = 64
#: windows pushed through the pair-collecting and reference sessions
CHECK_WINDOWS = 8
#: of those, windows joined again by brute force
SAMPLE_WINDOWS = 3
#: a paced push that starts this long after its due time started late
LATE_START_S = 0.001

#: replay stages, in the order a document crosses them
STAGES = (
    "partitioning.mine",
    "join.order",
    "partitioning.route",
    "wire.encode",
    "transport.frame",
    "wire.decode",
    "join.probe",
    "join.insert",
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: "rw" (ServerLogGenerator) or "nb" (NoBenchGenerator)
    data: str
    window_docs: int
    #: measured windows of one capacity pass
    capacity_windows: int
    #: open-loop rate of the paced phase, <= 40 % of the paced session's
    #: closed-loop rate on the parent commit
    offered_docs_per_sec: float
    #: StreamJoinConfig fields beyond m / algorithm
    session: dict = field(default_factory=dict)
    #: replay stages the workload's own session executes; only these
    #: count towards ``budget.sum_us_per_doc``
    crosses: tuple = ()

    @property
    def parallel(self) -> bool:
        return self.session.get("backend") == "parallel"

    @property
    def joins(self) -> bool:
        return bool(self.session.get("compute_joins"))

    @property
    def window_seconds(self) -> float:
        """The paced schedule's period T, also the lag limit."""
        return self.window_docs / self.offered_docs_per_sec


_PARTITION = ("partitioning.mine", "partitioning.route")
_JOIN = ("join.order", "join.probe", "join.insert")
_WIRE = ("wire.encode", "wire.decode")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rw_local",
            data="rw",
            window_docs=500,
            capacity_windows=48,
            offered_docs_per_sec=2500.0,
            session={"compute_joins": True},
            crosses=_PARTITION + _JOIN,
        ),
        Workload(
            name="rw_pipe2",
            data="rw",
            window_docs=500,
            capacity_windows=48,
            offered_docs_per_sec=2500.0,
            session={
                "compute_joins": True,
                "backend": "parallel",
                "transport": "pipe",
                "workers": 2,
            },
            crosses=_PARTITION + _WIRE + _JOIN,
        ),
        Workload(
            name="nb_route_pipe2",
            data="nb",
            window_docs=250,
            capacity_windows=96,
            offered_docs_per_sec=1800.0,
            session={
                "compute_joins": False,
                "backend": "parallel",
                "transport": "pipe",
                "workers": 2,
            },
            crosses=_PARTITION + _WIRE,
        ),
        Workload(
            name="nb_socket2",
            data="nb",
            window_docs=250,
            capacity_windows=48,
            offered_docs_per_sec=1400.0,
            session={
                "compute_joins": True,
                "backend": "parallel",
                "transport": "socket",
                "workers": 2,
            },
            crosses=_PARTITION + _WIRE + ("transport.frame",) + _JOIN,
        ),
    )
}


@dataclass(frozen=True)
class Sizes:
    """Window counts of one run, scaled from the frozen sizes."""

    capacity: int
    paced: int
    trace_session: int
    replay: int


def sizes_for(workload: Workload, seconds: float) -> Sizes:
    scale = seconds / RUN_SECONDS

    def scaled(count: int, floor: int) -> int:
        return max(floor, round(count * scale))

    capacity = max(
        PASS_SEGMENTS,
        round(workload.capacity_windows * scale / PASS_SEGMENTS) * PASS_SEGMENTS,
    )
    return Sizes(
        capacity=capacity,
        paced=scaled(PACED_WINDOWS, 10),
        trace_session=scaled(TRACE_SESSION_WINDOWS, 4),
        replay=scaled(REPLAY_WINDOWS, 2),
    )
