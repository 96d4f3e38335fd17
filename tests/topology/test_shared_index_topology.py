"""One window index per executor, seen from the topology.

The Joiner tasks of a topology share one owner-tagged index per window
(``repro.topology.joiner.JoinerGroup``).  These tests hold that to the
per-task contract — every task reports exactly what a private tree
would have — and to the scoping rule: the group belongs to a topology,
never to the interpreter.
"""

import pytest

from repro.exceptions import TupleProcessingError
from repro.experiments.config import make_generator
from repro.faults import FaultPlan
from repro.topology import messages as msg
from repro.topology.pipeline import StreamJoinConfig, run_stream_join
from repro.topology.session import StreamJoinSession
from tests.topology.per_task import run_per_task


def _config(**overrides) -> StreamJoinConfig:
    return StreamJoinConfig(
        m=4, n_creators=2, n_assigners=3,
        compute_joins=True, collect_pairs=True, **overrides,
    )


@pytest.mark.parametrize("dataset", ["rwData", "nbData", "idealData"])
def test_every_task_reports_what_its_private_tree_would(dataset):
    generator = make_generator(dataset, seed=29, window_size=120)
    windows = [generator.next_window(120) for _ in range(3)]
    shared, _ = run_per_task(_config(), windows, isolated=False)
    isolated, _ = run_per_task(_config(), windows, isolated=True)
    assert len(shared) == 3 * 4
    assert shared == isolated
    assert any(pairs for _, _, pairs in shared.values())


def test_two_live_sessions_do_not_share_window_state():
    """Two sessions in one interpreter reuse window ids and doc ids; an
    interleaved pair must each equal its solo run."""
    def windows(seed):
        generator = make_generator("rwData", seed=seed, window_size=100)
        return [generator.next_window(100) for _ in range(3)]

    def solo(seed):
        session = StreamJoinSession(_config())
        for window in windows(seed):
            session.push_window(window)
        return session.result()

    first, second = StreamJoinSession(_config()), StreamJoinSession(_config())
    feeds = {first: iter(windows(41)), second: iter(windows(42))}
    for session in (first, second, second, first, first, second):
        session.push_window(next(feeds[session]))
    for session, seed in ((first, 41), (second, 42)):
        live, alone = session.result(), solo(seed)
        assert live.per_window == alone.per_window
        assert live.join_pairs == alone.join_pairs
    assert solo(41).join_pairs != solo(42).join_pairs


def test_a_window_abandoned_by_one_session_is_invisible_to_the_next():
    """A session that dies mid-window leaves that window open in *its*
    group; a later session reusing the window id and the doc ids must
    not find those documents."""
    generator = make_generator("rwData", seed=43, window_size=100)
    windows = [generator.next_window(100) for _ in range(2)]
    # window 0 is all-broadcast (400 Joiner deliveries): 450 is in window 1
    plan = FaultPlan().raise_in(msg.JOINER, nth=450, stream=msg.ASSIGNED)
    doomed = StreamJoinSession(_config(fault_plan=plan))
    doomed.push_window(windows[0])
    with pytest.raises(TupleProcessingError):
        doomed.push_window(windows[1])

    def run():
        session = StreamJoinSession(_config())
        for window in windows:
            session.push_window(window)
        return session.result()

    after, reference = run(), run_stream_join(_config(), windows)
    assert after.per_window == reference.per_window
    assert after.join_pairs == reference.join_pairs


def test_counters_stay_per_assignment_and_histograms_count_tree_operations():
    generator = make_generator("rwData", seed=44, window_size=100)
    windows = [generator.next_window(100) for _ in range(3)]
    snap = run_stream_join(_config(observability=True), windows).observability
    assignments = snap.counters["assigner.assignments"]
    assert assignments > 300  # replication > 1: documents do fan out
    for name in ("probes", "inserts"):
        assert snap.counters[f"joiner.{name}{{algorithm=FPJ}}"] == assignments
    # one executor: every document is probed and inserted once
    for name in ("probe_seconds", "insert_seconds"):
        assert snap.histograms[f"joiner.{name}{{algorithm=FPJ}}"]["count"] == 300
