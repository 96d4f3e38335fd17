"""The owner-tagged window index: one tree, every owner's private answer.

:class:`SharedWindowIndex` must hand each owner exactly what a private
``FPTreeJoiner`` fed only that owner's arrivals would have — under *any*
arrival interleaving, not just the FIFO fan-out the executor produces.
Hypothesis drives arrivals, releases and two concurrently open windows
against k isolated joiners per window and against the brute-force join;
a second machine does the same for the sliding extent (per-owner
expiry) and for the two indexes of a two-stream window.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.document import Document
from repro.core.interning import PairInterner
from repro.join.base import JoinPair, brute_force_pairs
from repro.join.binary import (
    LEFT,
    RIGHT,
    BinaryStreamJoiner,
    brute_force_binary_pairs,
)
from repro.join.fptree_join import FPTreeJoiner
from repro.join.ordering import AttributeOrder
from repro.join.shared_index import SharedWindowIndex
from repro.join.sliding import SlidingFPTreeJoiner, brute_force_sliding_pairs
from repro.obs.registry import MetricsRegistry

ORDER = AttributeOrder(("c", "a", "f"))  # the rest rank last, by name
OWNERS = 3
WINDOWS = 2

#: few attributes and values, so that most documents join some other;
#: ``1`` / ``True`` / ``1.0`` intern to one pair, ``"1"`` to another
ATTRIBUTES = st.sampled_from(["a", "c", "f", "g"])
VALUES = st.sampled_from([0, 1, True, 1.0, "1"])
PAIRS = st.dictionaries(ATTRIBUTES, VALUES, min_size=1, max_size=3)


def _one(index: SharedWindowIndex, document: Document, owner: int) -> list[int]:
    """The partners of a one-owner arrival."""
    ((_, partners),) = index.arrive_many(document, 1 << owner)
    return partners


class _Window:
    """One open window: the shared index beside its isolated reference."""

    def __init__(self, interner: PairInterner):
        self.index = SharedWindowIndex(ORDER, interner=interner)
        self.reopen()

    def reopen(self) -> None:
        self.pool: dict[int, dict] = {}
        self.isolated = [
            FPTreeJoiner(ORDER, interner=PairInterner()) for _ in range(OWNERS)
        ]
        self.arrived: list[list[Document]] = [[] for _ in range(OWNERS)]
        self.pairs: list[set[JoinPair]] = [set() for _ in range(OWNERS)]
        self.released: set[int] = set()

    def undelivered(self) -> list[tuple[int, int]]:
        return [
            (doc_id, owner)
            for doc_id in self.pool
            for owner in range(OWNERS)
            if owner not in self.released
            and all(d.doc_id != doc_id for d in self.arrived[owner])
        ]


class SharedIndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # both windows intern into one dictionary, like one process
        interner = PairInterner()
        self.windows = [_Window(interner) for _ in range(WINDOWS)]
        #: doc ids collide across windows on purpose
        self.next_id = [0] * WINDOWS
        self.objects: dict[tuple[int, int], Document] = {}

    @rule(window=st.integers(0, WINDOWS - 1), pairs=PAIRS)
    def new_document(self, window, pairs):
        doc_id = self.next_id[window]
        self.next_id[window] += 1
        self.windows[window].pool[doc_id] = pairs

    @precondition(lambda self: any(w.undelivered() for w in self.windows))
    @rule(data=st.data())
    def arrive_as_the_same_object(self, data):
        self._arrive(data, same_object=True)

    @precondition(lambda self: any(w.undelivered() for w in self.windows))
    @rule(data=st.data())
    def arrive_as_an_equal_object(self, data):
        # a fan-out split across two decoded frames: equal, not identical
        self._arrive(data, same_object=False)

    def _open_window(self, data) -> int:
        return data.draw(
            st.sampled_from([i for i, w in enumerate(self.windows) if w.undelivered()])
        )

    def _document(self, window_id, doc_id, same_object) -> Document:
        document = self.objects.get((window_id, doc_id)) if same_object else None
        if document is None:
            pairs = self.windows[window_id].pool[doc_id]
            document = Document(dict(pairs), doc_id=doc_id)
            self.objects[(window_id, doc_id)] = document
        return document

    def _arrived(self, window, owner, document, got) -> None:
        """``got`` is what the index returned to ``owner``: hold it to
        the owner's private joiner and record the arrival."""
        expected = sorted(window.isolated[owner].probe(document))
        window.isolated[owner].add(document)
        assert expected == sorted(
            d.doc_id for d in window.arrived[owner] if d.joinable(document)
        )
        assert sorted(got) == expected
        window.arrived[owner].append(document)
        window.pairs[owner].update(JoinPair.of(p, document.doc_id) for p in got)

    def _arrive(self, data, same_object):
        window_id = self._open_window(data)
        window = self.windows[window_id]
        doc_id, owner = data.draw(st.sampled_from(window.undelivered()))
        document = self._document(window_id, doc_id, same_object)
        self._arrived(window, owner, document, _one(window.index, document, owner))

    @precondition(lambda self: any(w.undelivered() for w in self.windows))
    @rule(data=st.data(), same_object=st.booleans())
    def arrive_at_several_owners_at_once(self, data, same_object):
        """Multi-owner arrivals mixed freely with one-owner ones: any
        subset of the owners the document has not reached yet."""
        window_id = self._open_window(data)
        window = self.windows[window_id]
        undelivered = window.undelivered()
        doc_id = data.draw(st.sampled_from(sorted({d for d, _ in undelivered})))
        free = [owner for d, owner in undelivered if d == doc_id]
        owners = data.draw(st.sets(st.sampled_from(free), min_size=1))
        document = self._document(window_id, doc_id, same_object)
        got = window.index.arrive_many(document, sum(1 << o for o in owners))
        assert [owner for owner, _ in got] == sorted(owners)
        for owner, partners in got:
            self._arrived(window, owner, document, partners)

    def _delivered(self) -> list[tuple[int, int, int]]:
        return [
            (i, d.doc_id, owner)
            for i, w in enumerate(self.windows)
            for owner in range(OWNERS)
            for d in w.arrived[owner]
        ]

    @precondition(lambda self: self._delivered())
    @rule(data=st.data(), extra=st.integers(0, (1 << OWNERS) - 1))
    def a_mask_overlapping_an_earlier_arrival_is_rejected(self, data, extra):
        """Like a second arrival at one owner — and before anything
        changes: the invariants and every later arrival see no trace."""
        window_id, doc_id, owner = data.draw(st.sampled_from(self._delivered()))
        document = self._document(window_id, doc_id, same_object=False)
        with pytest.raises(ValueError, match="already arrived"):
            self.windows[window_id].index.arrive_many(document, extra | 1 << owner)

    def _releasable(self) -> list[tuple[int, int]]:
        # windows close late, so that arrivals pile up first
        return [
            (i, owner)
            for i, w in enumerate(self.windows)
            for owner in range(OWNERS)
            if len(w.pool) >= 4 and owner not in w.released
        ]

    @precondition(lambda self: self._releasable())
    @rule(data=st.data())
    def release(self, data):
        window_id, owner = data.draw(st.sampled_from(self._releasable()))
        window = self.windows[window_id]
        window.released.add(owner)
        fed = {owner for owner in range(OWNERS) if window.arrived[owner]}
        assert window.index.release(owner) == (fed <= window.released)
        if len(window.released) == OWNERS:
            # the group's spare rule: evict, reuse for the next window
            window.index.reset()
            assert len(window.index) == 0
            window.reopen()
            for key in [k for k in self.objects if k[0] == window_id]:
                del self.objects[key]
            self.next_id[window_id] = 0

    @invariant()
    def each_owner_holds_its_exact_join(self):
        for window in self.windows:
            distinct = {d.doc_id for arrived in window.arrived for d in arrived}
            assert len(window.index) == len(distinct)
            for owner in range(OWNERS):
                assert window.pairs[owner] == brute_force_pairs(window.arrived[owner])


TestSharedIndexStateful = SharedIndexMachine.TestCase
TestSharedIndexStateful.settings = settings(
    max_examples=100, stateful_step_count=60, deadline=None
)


#: a sliding extent far shorter than what an owner receives
EXTENT = 3


class SlidingAndBinaryMachine(RuleBasedStateMachine):
    """One sliding index (``extent``) and one two-stream window (an
    index per side), each owner held to its private sliding or binary
    joiner and to the brute-force join of what it received."""

    def __init__(self):
        super().__init__()
        interner = PairInterner()
        self.sliding = SharedWindowIndex(ORDER, interner=interner, extent=EXTENT)
        left = SharedWindowIndex(ORDER, interner=interner)
        right = SharedWindowIndex(ORDER, interner=interner)
        self.sides = {LEFT: (left, right), RIGHT: (right, left)}
        self.next_id = 0
        #: doc id -> (pairs, side): side None for the sliding stream
        self.pool: dict[int, tuple[dict, object]] = {}
        self.objects: dict[int, Document] = {}
        #: sliding: per owner, its arrivals since it last dropped its
        #: extent, the earlier such segments, its private joiner, pairs
        self.segment: list[list[Document]] = [[] for _ in range(OWNERS)]
        self.segments: list[list[list[Document]]] = [[] for _ in range(OWNERS)]
        self.private = [SlidingFPTreeJoiner(EXTENT, ORDER) for _ in range(OWNERS)]
        self.pairs: list[set[JoinPair]] = [set() for _ in range(OWNERS)]
        self.reopen()

    def reopen(self) -> None:
        """A fresh two-stream window: both indexes and every owner's
        private joiner evicted."""
        for store, _ in self.sides.values():
            store.reset()
        self.binary = [
            BinaryStreamJoiner(lambda: FPTreeJoiner(ORDER, interner=PairInterner()))
            for _ in range(OWNERS)
        ]
        self.received = [{LEFT: [], RIGHT: []} for _ in range(OWNERS)]
        self.cross: list[set] = [set() for _ in range(OWNERS)]
        for doc_id in [d for d, (_, side) in self.pool.items() if side is not None]:
            del self.pool[doc_id]

    @rule(pairs=PAIRS, side=st.sampled_from([None, LEFT, RIGHT]))
    def new_document(self, pairs, side):
        self.pool[self.next_id] = (pairs, side)
        self.next_id += 1

    def _received(self, doc_id: int, owner: int) -> bool:
        side = self.pool[doc_id][1]
        held = self.segment[owner] if side is None else self.received[owner][side]
        return any(d.doc_id == doc_id for d in held)

    def _undelivered(self) -> list[tuple[int, int]]:
        return [
            (doc_id, owner)
            for doc_id in self.pool
            for owner in range(OWNERS)
            if not self._received(doc_id, owner)
        ]

    def _document(self, doc_id: int, same_object: bool) -> Document:
        document = self.objects.get(doc_id) if same_object else None
        if document is None:
            document = Document(dict(self.pool[doc_id][0]), doc_id=doc_id)
            self.objects[doc_id] = document
        return document

    @precondition(lambda self: self._undelivered())
    @rule(data=st.data(), same_object=st.booleans())
    def arrive(self, data, same_object):
        """One document at any subset of the owners it has not reached:
        the sliding index, or its side's index probing the other's."""
        undelivered = self._undelivered()
        doc_id = data.draw(st.sampled_from(sorted({d for d, _ in undelivered})))
        free = [owner for d, owner in undelivered if d == doc_id]
        owners = sorted(data.draw(st.sets(st.sampled_from(free), min_size=1)))
        document = self._document(doc_id, same_object)
        mask = sum(1 << owner for owner in owners)
        side = self.pool[doc_id][1]
        if side is None:
            got = self.sliding.arrive_many(document, mask)
        else:
            store, probe = self.sides[side]
            got = store.arrive_many(document, mask, probe)
        assert [owner for owner, _ in got] == owners
        for owner, partners in got:
            if side is None:
                expected = sorted(self.private[owner].probe(document))
                self.private[owner].add(document)
                self.segment[owner].append(document)
                self.pairs[owner].update(JoinPair.of(p, doc_id) for p in partners)
            else:
                cross = self.binary[owner].process(document, side)
                expected = sorted(
                    pair.right if side == LEFT else pair.left for pair in cross
                )
                self.received[owner][side].append(document)
                self.cross[owner].update(cross)
            assert sorted(partners) == expected

    @rule(owner=st.integers(0, OWNERS - 1))
    def owner_drops_its_extent(self, owner):
        """What a migrated task's executor does on the way out."""
        self.sliding.expire(1 << owner, 0)
        self.segments[owner].append(self.segment[owner])
        self.segment[owner] = []
        self.private[owner] = SlidingFPTreeJoiner(EXTENT, ORDER)

    @rule()
    def tumble_the_two_stream_window(self):
        self.reopen()

    @invariant()
    def each_owner_holds_its_exact_join(self):
        held = set()
        for owner in range(OWNERS):
            expected = set()
            for segment in [*self.segments[owner], self.segment[owner]]:
                expected |= brute_force_sliding_pairs(segment, EXTENT)
            assert self.pairs[owner] == expected
            held |= {d.doc_id for d in self.segment[owner][-EXTENT:]}
            received = self.received[owner]
            assert self.cross[owner] == brute_force_binary_pairs(
                received[LEFT], received[RIGHT]
            )
        # a document leaves the tree once no owner's extent holds it
        assert len(self.sliding) == len(held)


TestSlidingAndBinaryStateful = SlidingAndBinaryMachine.TestCase
TestSlidingAndBinaryStateful.settings = settings(
    max_examples=100, stateful_step_count=60, deadline=None
)


def _docs():
    return Document({"a": 1, "d": 1}, doc_id=0), Document({"a": 1, "e": 1}, doc_id=1)


def test_cached_partner_list_is_not_reused_after_an_insert():
    """d@0, e@0, e@1, d@1: at owner 1, e arrived before d, so the pair is
    found by d's arrival — which must re-probe, because e was inserted
    after the probe that d's cached list came from."""
    d, e = _docs()
    index = SharedWindowIndex()
    assert _one(index, d, 0) == []
    assert _one(index, e, 0) == [0]
    assert _one(index, e, 1) == []  # cache hit on e; d is not owner 1's yet
    assert _one(index, d, 1) == [1]  # cache miss: e joined the tree since
    assert len(index) == 2


def test_later_owner_reuses_the_first_probe():
    """The FIFO fan-out d@0, d@1, e@0, e@1 costs one probe per document."""
    d, e = _docs()
    registry = MetricsRegistry()
    index = SharedWindowIndex(registry=registry)
    results = [_one(index, doc, owner) for doc in (d, e) for owner in (0, 1)]
    assert results == [[], [], [0], [0]]
    snap = registry.snapshot()
    # physical operations: the histograms' observation counts
    assert snap.histograms["joiner.probe_seconds{algorithm=FPJ}"]["count"] == 2
    assert snap.histograms["joiner.insert_seconds{algorithm=FPJ}"]["count"] == 2
    # per-assignment counters: what k private joiners would have counted
    assert snap.counters["joiner.probes{algorithm=FPJ}"] == 4
    assert snap.counters["joiner.inserts{algorithm=FPJ}"] == 4
    assert snap.counters["joiner.partners{algorithm=FPJ}"] == 2


def test_rejects_a_second_arrival_at_the_same_owner_and_a_missing_id():
    d, _ = _docs()
    index = SharedWindowIndex()
    _one(index, d, 0)
    with pytest.raises(ValueError, match="already arrived at owners 0b1 "):
        _one(index, Document({"a": 1, "d": 1}, doc_id=0), 0)
    with pytest.raises(ValueError, match="doc_id"):
        _one(index, Document({"a": 1}), 1)
    assert len(index) == 1 and _one(index, d, 1) == []


def test_arrive_many_is_one_probe_and_one_insert_for_all_owners():
    """d@{0,1,2} then e@{1,2} then e@0: per-owner answers and
    per-assignment counters as with six one-owner arrivals, two probes and
    two inserts in the tree — e@0 reuses the cached partner list."""
    d, e = _docs()
    registry = MetricsRegistry()
    index = SharedWindowIndex(registry=registry)
    assert index.arrive_many(d, 0b111) == [(0, []), (1, []), (2, [])]
    assert index.arrive_many(e, 0b110) == [(1, [0]), (2, [0])]
    assert _one(index, e, 0) == [0]
    with pytest.raises(ValueError, match="already arrived"):
        index.arrive_many(Document({"a": 1, "d": 1}, doc_id=0), 0b1100)
    late = index.arrive_many(Document({"a": 1}, doc_id=2), 0b1001)
    assert [(owner, sorted(partners)) for owner, partners in late] == [
        (0, [0, 1]), (3, []),
    ]
    snap = registry.snapshot()
    assert snap.histograms["joiner.probe_seconds{algorithm=FPJ}"]["count"] == 3
    assert snap.histograms["joiner.insert_seconds{algorithm=FPJ}"]["count"] == 3
    assert snap.counters["joiner.probes{algorithm=FPJ}"] == 8
    assert snap.counters["joiner.inserts{algorithm=FPJ}"] == 8
    assert snap.counters["joiner.partners{algorithm=FPJ}"] == 5


def test_release_reports_the_last_holder():
    d, e = _docs()
    index = SharedWindowIndex()
    _one(index, d, 0)
    _one(index, e, 2)
    assert not index.release(1)  # never fed it: nothing changes
    assert not index.release(0)
    assert _one(index, d, 2) == [1]  # owner 2 still sees only its own
    assert index.release(2)
    index.reset()
    assert len(index) == 0 and _one(index, e, 0) == []


def test_the_pure_core_does_not_import_the_runtime():
    import ast
    import inspect

    import repro.join.shared_index as module

    imported = {
        node.module
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.ImportFrom)
    }
    assert not [m for m in imported if m.startswith(("repro.streaming", "repro.topology"))]
