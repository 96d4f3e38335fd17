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
from tests.topology.per_task import MODES, mode_windows, run_per_task


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


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("dataset", ["rwData", "nbData", "idealData"])
def test_every_task_reports_what_its_private_joiner_would(dataset, mode):
    """Sliding and two-stream tasks share the executor's indexes too:
    each reports what its private ``SlidingFPTreeJoiner`` (one for the
    stream) or ``BinaryStreamJoiner`` (one per window) would have."""
    config = _config(**MODES[mode])
    windows = mode_windows(dataset, mode)
    shared, stats = run_per_task(config, windows, isolated=False)
    isolated, isolated_stats = run_per_task(config, windows, isolated=True)
    assert len(shared) == 3 * 4
    assert shared == isolated
    assert stats["joiner"] == isolated_stats["joiner"]
    assert any(pairs for _, _, pairs in shared.values())
    if mode == "sliding":  # some task outgrew its extent
        received = [sum(shared[(w, task)][0] for w in range(3)) for task in range(4)]
        assert max(received) > config.sliding_size


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


def test_a_task_moved_at_a_window_boundary_shares_one_index():
    """A task move against two in-process ``WorkerSession``s: after
    window 0 tumbled on both workers, task 2 moves from the worker of
    tasks 0-2 to the worker of task 3.  The source's group is already
    empty when ``disown`` arrives, and the source stops holding the
    task; the adopted (pickled, so differently-grouped) bolt joins the
    destination's group, so window 1's entries addressing it together
    with the resident share one index — and every task reports its
    private join in both windows."""
    import pickle

    from repro.core.document import Document
    from repro.join.base import brute_force_pairs
    from repro.streaming.component import ComponentContext
    from repro.streaming.transport import WorkerInit, WorkerSession
    from repro.streaming.transport.framing import FrameError
    from repro.streaming.tuples import StreamTuple
    from repro.topology.joiner import JoinerBolt, JoinerGroup

    codec = msg.ColumnarWireCodec()

    def bolt(task_index, group):
        task = JoinerBolt(collect_pairs=True, group=group)
        parallelism = {msg.JOINER: 4, msg.ASSIGNER: 1}
        task.prepare(ComponentContext(msg.JOINER, task_index, 4, parallelism))
        return task

    def session(worker, tasks):
        keyed = {(msg.JOINER, task._task_index): task for task in tasks}
        return WorkerSession(
            WorkerInit(worker, 0, keyed, codec=codec)
        )

    groups = [JoinerGroup(), JoinerGroup()]
    source = session(0, [bolt(i, groups[0]) for i in range(3)])
    target = session(1, [bolt(3, groups[1])])
    docs = [Document({"a": i % 2, "k": i % 3}, doc_id=i) for i in range(24)]

    def entry(doc, window, mask):
        tup = StreamTuple(msg.ASSIGNED, (doc, window, None), msg.ASSIGNER, 0)
        return (msg.JOINER, (mask & -mask).bit_length() - 1, tup, mask)

    received = [{task: [] for task in range(4)} for _window in range(2)]
    seqs = iter(range(1, 100))

    def ship(worker, entries):
        for _component, _lowest, tup, mask in entries:
            for task in range(4):
                if mask >> task & 1 and tup.stream == msg.ASSIGNED:
                    received[tup.values[1]][task].append(tup.values[0])
        (ack,) = worker.handle(codec.encode_batch(next(seqs), entries))
        assert ack[0] == "ack" and ack[4] == 0
        return ack[5]

    def done(window, mask):
        tup = StreamTuple(msg.WINDOW_DONE, (window,), msg.ASSIGNER, 0)
        return [(msg.JOINER, task, tup, 1 << task) for task in range(4) if mask >> task & 1]

    def reports(emissions):
        out = {}
        for _component, task, stream, _direct, values in emissions:
            stats, pairs = codec.decode(stream, values)
            out[task] = (stats.documents, pairs)
        return out

    first = docs[:12]
    ship(source, [entry(doc, 0, 0b111 if doc.doc_id % 2 else 0b101) for doc in first])
    ship(target, [entry(doc, 0, 0b1000) for doc in first])
    assert len(groups[0]) == len(groups[1]) == 1
    window0 = ship(source, done(0, 0b0111)) + ship(target, done(0, 0b1000))
    assert len(groups[0]) == len(groups[1]) == 0

    # the move, at the drained boundary: nothing is left to release
    adopted = pickle.loads(pickle.dumps({(msg.JOINER, 2): bolt(2, JoinerGroup())}))
    assert target.handle(("adopt", adopted)) == []
    assert adopted[(msg.JOINER, 2)]._group is groups[1]
    assert source.handle(("disown", ((msg.JOINER, 2),))) == []
    with pytest.raises(FrameError):
        source.handle(codec.encode_batch(next(seqs), [entry(docs[0], 1, 0b100)]))

    second = docs[12:]
    ship(source, [entry(doc, 1, 0b011) for doc in second])
    ship(target, [entry(doc, 1, 0b1100 if doc.doc_id % 2 else 0b0100) for doc in second])
    assert len(groups[0]) == len(groups[1]) == 1  # one index on the destination
    window1 = ship(source, done(1, 0b0011)) + ship(target, done(1, 0b1100))
    assert len(groups[0]) == len(groups[1]) == 0
    for emissions, arrived in ((window0, received[0]), (window1, received[1])):
        assert reports(emissions) == {
            task: (len(docs_in), brute_force_pairs(docs_in))
            for task, docs_in in arrived.items()
        }
    assert any(pairs for _, pairs in reports(window1).values())
