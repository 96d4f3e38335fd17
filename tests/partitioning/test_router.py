"""Unit tests for document routing, including the co-location guarantee."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.document import AVPair, Document
from repro.partitioning.association import AssociationGroupPartitioner
from repro.partitioning.base import Partition
from repro.partitioning.disjoint import DisjointSetPartitioner
from repro.partitioning.expansion import ExpansionPlan, plan_expansion
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.router import DocumentRouter, RoutingDecision
from repro.partitioning.setcover import SetCoverPartitioner
from tests.conftest import document_lists

PARTITIONERS = [
    pytest.param(AssociationGroupPartitioner, id="AG"),
    pytest.param(SetCoverPartitioner, id="SC"),
    pytest.param(DisjointSetPartitioner, id="DS"),
    pytest.param(HashPartitioner, id="HASH"),
]


def _partitions(*pair_sets) -> list[Partition]:
    return [Partition(index=i, pairs=set(ps)) for i, ps in enumerate(pair_sets)]


class TestBasicRouting:
    def test_matched_document_goes_to_owner(self):
        router = DocumentRouter(_partitions({AVPair("a", 1)}, {AVPair("b", 2)}))
        decision = router.route(Document({"a": 1}))
        assert decision.targets == (0,)
        assert not decision.broadcast

    def test_document_matching_two_partitions_replicates(self):
        router = DocumentRouter(_partitions({AVPair("a", 1)}, {AVPair("b", 2)}))
        decision = router.route(Document({"a": 1, "b": 2}))
        assert decision.targets == (0, 1)
        assert decision.replication == 2

    def test_any_unseen_pair_forces_broadcast(self):
        """Section VI-A: a document with an unknown pair must reach all
        machines — its unknown pair may join it with documents routed
        anywhere."""
        router = DocumentRouter(_partitions({AVPair("a", 1)}, {AVPair("b", 2)}))
        decision = router.route(Document({"a": 1, "mystery": 9}))
        assert decision.broadcast
        assert decision.targets == (0, 1)
        assert decision.unseen_pairs == (AVPair("mystery", 9),)

    def test_fully_unknown_document_broadcasts(self):
        router = DocumentRouter(_partitions({AVPair("a", 1)}))
        decision = router.route(Document({"z": 0}))
        assert decision.broadcast

    def test_empty_partition_list_rejected(self):
        with pytest.raises(ValueError):
            DocumentRouter([])

    def test_add_pair_updates_routing(self):
        router = DocumentRouter(_partitions({AVPair("a", 1)}, set()))
        assert router.route(Document({"new": 5})).broadcast
        router.add_pair(AVPair("new", 5), 1)
        decision = router.route(Document({"new": 5}))
        assert decision.targets == (1,)
        assert not decision.broadcast
        assert router.owns(AVPair("new", 5))


class TestAtomicSwap:
    """Repartitioning rebuilds the owner maps in place (``swap``)."""

    def test_swap_matches_fresh_router(self):
        old = _partitions({AVPair("a", 1)}, {AVPair("b", 2)})
        new = _partitions({AVPair("b", 2)}, {AVPair("c", 3)}, {AVPair("a", 1)})
        router = DocumentRouter(old)
        router.swap(new)
        fresh = DocumentRouter(new)
        for doc in (
            Document({"a": 1}),
            Document({"b": 2}),
            Document({"c": 3}),
            Document({"a": 1, "c": 3}),
            Document({"mystery": 9}),
        ):
            assert router.route(doc) == fresh.route(doc)
        assert router.m == 3

    def test_swap_preserves_identity(self):
        router = DocumentRouter(_partitions({AVPair("a", 1)}))
        before = router
        router.swap(_partitions({AVPair("b", 2)}, {AVPair("a", 1)}))
        assert router is before
        assert router.route(Document({"a": 1})).targets == (1,)

    def test_swap_rejects_empty_partition_list(self):
        router = DocumentRouter(_partitions({AVPair("a", 1)}))
        with pytest.raises(ValueError):
            router.swap([])
        # the failed swap must leave the old routing intact
        assert router.route(Document({"a": 1})).targets == (0,)

    def test_swap_installs_expansion_plan(self):
        plan = ExpansionPlan(("flag", "dev"))
        synthetic = plan.synthetic_attribute
        doc = Document({"flag": True, "dev": "d1"})
        transformed, _ = plan.transform(doc)
        value = transformed[synthetic]
        router = DocumentRouter(_partitions({AVPair("x", 1)}))
        router.swap(_partitions({AVPair(synthetic, value)}, set()), expansion=plan)
        assert router.route(doc).targets == (0,)


#: values that are equal across types (1 == True == 1.0) beside one
#: that is not ("1"): the router keys its one owner map by the pair, so
#: it must conflate exactly what Python value equality conflates
MIXED_VALUES = (1, True, 1.0, "1", 2)
_pairs = st.builds(AVPair, st.sampled_from(("a", "b")), st.sampled_from(MIXED_VALUES))
_pair_sets = st.lists(st.sets(_pairs, max_size=4), min_size=1, max_size=3)
_documents = st.dictionaries(
    st.sampled_from(("a", "b", "c")), st.sampled_from(MIXED_VALUES),
    min_size=1, max_size=3,
).map(Document)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("route"), _documents),
        st.tuples(st.just("add_pair"), _pairs, st.integers(0, 2)),
        st.tuples(st.just("swap"), _pair_sets),
    ),
    max_size=25,
)


def _oracle(pair_sets: list[set], document: Document) -> RoutingDecision:
    """The decision computed from the partitions alone: the union of each
    pair's owners; broadcast iff a pair is unowned or nothing owns any."""
    targets: set[int] = set()
    unseen = []
    for item in document.pairs.items():
        owners = {i for i, pairs in enumerate(pair_sets) if item in pairs}
        if owners:
            targets |= owners
        else:
            unseen.append(item)
    if unseen or not targets:
        return RoutingDecision(tuple(range(len(pair_sets))), True, tuple(unseen))
    return RoutingDecision(tuple(sorted(targets)), False)


class TestOneOwnerMap:
    @given(initial=_pair_sets, operations=_operations)
    @settings(max_examples=80, deadline=None)
    def test_property_decisions_match_partition_oracle(self, initial, operations):
        """``route`` / ``add_pair`` / ``swap`` interleaved over mixed-type
        values: every decision equals the oracle's, and ``owns`` agrees
        with membership in some partition."""
        model = [set(pairs) for pairs in initial]
        router = DocumentRouter(_partitions(*initial))
        probes = {AVPair(a, v) for a in ("a", "b", "c") for v in MIXED_VALUES}
        for operation in operations:
            if operation[0] == "route":
                document = operation[1]
                assert router.route(document) == _oracle(model, document)
            elif operation[0] == "add_pair":
                _kind, pair, index = operation
                index %= len(model)
                router.add_pair(pair, index)
                model[index].add(pair)
            else:
                model = [set(pairs) for pairs in operation[1]]
                router.swap(_partitions(*operation[1]))
            for pair in probes:
                assert router.owns(pair) == any(pair in pairs for pairs in model)


class TestRoutingWithExpansion:
    def test_transformed_document_routes_on_synthetic_pair(self):
        plan = ExpansionPlan(("flag", "dev"))
        synthetic = plan.synthetic_attribute
        doc = Document({"flag": True, "dev": "d1"})
        transformed, _ = plan.transform(doc)
        value = transformed[synthetic]
        router = DocumentRouter(
            _partitions({AVPair(synthetic, value)}, set()), expansion=plan
        )
        decision = router.route(doc)
        assert decision.targets == (0,)

    def test_untransformable_document_broadcasts(self):
        plan = ExpansionPlan(("flag", "dev"))
        router = DocumentRouter(_partitions({AVPair("x", 1)}, set()), expansion=plan)
        decision = router.route(Document({"flag": True, "x": 1}))
        assert decision.broadcast
        assert decision.targets == (0, 1)


class TestCoLocationGuarantee:
    """The make-or-break invariant: joinable documents always share a machine."""

    @pytest.mark.parametrize("partitioner_cls", PARTITIONERS)
    @given(docs=document_lists(min_size=2, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_property_joinable_docs_colocated(self, partitioner_cls, docs):
        sample, live = docs[: len(docs) // 2] or docs, docs
        result = partitioner_cls().create_partitions(sample, 3)
        router = DocumentRouter(result.partitions)
        routes = {d.doc_id: set(router.route(d).targets) for d in live}
        for i, a in enumerate(live):
            for b in live[i + 1 :]:
                if a.joinable(b):
                    assert routes[a.doc_id] & routes[b.doc_id]

    @pytest.mark.parametrize("partitioner_cls", PARTITIONERS)
    @given(docs=document_lists(min_size=4, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_property_colocated_under_expansion(self, partitioner_cls, docs):
        """Same invariant when an expansion plan rewrites the pair space."""
        flagged = [
            Document({**d.to_dict(), "flag": i % 2 == 0}, doc_id=i)
            for i, d in enumerate(docs)
        ]
        plan = plan_expansion(flagged, m=3)
        if plan is None:
            return
        sample = plan.transform_sample(flagged)
        if not sample:
            return
        result = partitioner_cls().create_partitions(sample, 3)
        router = DocumentRouter(result.partitions, expansion=plan)
        routes = {d.doc_id: set(router.route(d).targets) for d in flagged}
        for i, a in enumerate(flagged):
            for b in flagged[i + 1 :]:
                if a.joinable(b):
                    assert routes[a.doc_id] & routes[b.doc_id]
