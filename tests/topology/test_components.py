"""Unit tests for the individual topology components (bolts/spout)."""

import pytest

from repro.core.document import AVPair, Document
from repro.partitioning.association import AssociationGroupPartitioner
from repro.partitioning.base import Partition
from repro.partitioning.setcover import SetCoverPartitioner
from repro.streaming.component import ComponentContext
from repro.streaming.tuples import StreamTuple
from repro.topology import messages as msg
from repro.topology.assigner import AssignerBolt
from repro.topology.joiner import JoinerBolt
from repro.topology.json_reader import DocumentSpout
from repro.topology.merger import MergerBolt
from repro.topology.partition_creator import PartitionCreatorBolt


class FakeCollector:
    """Records emitted tuples for assertions."""

    def __init__(self):
        self.emitted: list[tuple] = []

    def emit(self, stream, values, direct_task=None):
        self.emitted.append((stream, values, direct_task))

    def emit_fanout(self, stream, values, targets):
        for target in targets:
            self.emit(stream, values, direct_task=target)

    def on_stream(self, stream):
        return [e for e in self.emitted if e[0] == stream]


def context(component, task_index=0, parallelism=1, **others):
    parallel = {
        msg.CREATOR: 2,
        msg.ASSIGNER: 2,
        msg.JOINER: 3,
        msg.MERGER: 1,
        msg.SINK: 1,
        component: parallelism,
    }
    parallel.update(others)
    return ComponentContext(component, task_index, parallelism, parallel)


def doc_tuple(document, window_id=0, source=msg.READER, stream=msg.DOCS):
    return StreamTuple(stream, (document, window_id, None), source, 0)


def window_end(window_id, source=msg.READER):
    return StreamTuple(msg.WINDOW_END, (window_id,), source, 0)


class TestDocumentSpout:
    def test_emits_documents_then_punctuation(self):
        docs = [Document({"a": 1}, doc_id=0), Document({"b": 2}, doc_id=1)]
        spout = DocumentSpout([docs])
        collector = FakeCollector()
        while spout.next_tuple(collector):
            pass
        streams = [e[0] for e in collector.emitted]
        assert streams == [msg.DOCS, msg.DOCS, msg.WINDOW_END]

    def test_window_ids_tagged(self):
        w0 = [Document({"a": 1}, doc_id=0)]
        w1 = [Document({"b": 2}, doc_id=1)]
        spout = DocumentSpout([w0, w1])
        collector = FakeCollector()
        while spout.next_tuple(collector):
            pass
        docs = collector.on_stream(msg.DOCS)
        assert [values[1] for _, values, _ in docs] == [0, 1]
        ends = collector.on_stream(msg.WINDOW_END)
        assert [values[0] for _, values, _ in ends] == [0, 1]

    def test_exhaustion(self):
        spout = DocumentSpout([[Document({"a": 1}, doc_id=0)]])
        collector = FakeCollector()
        assert spout.next_tuple(collector) is True  # the doc
        assert spout.next_tuple(collector) is False  # punctuation, then done

    def test_fed_windows_emit_what_windows_given_up_front_do(self):
        w0 = [Document({"a": 1}, doc_id=0), Document({"b": 2}, doc_id=1)]
        w2 = [Document({"c": 3}, doc_id=2)]
        up_front = FakeCollector()
        spout = DocumentSpout([w0, [], w2])
        while spout.next_tuple(up_front):
            pass
        fed = FakeCollector()
        spout = DocumentSpout()
        assert spout.next_tuple(fed) is False  # nothing fed yet
        for window in (w0, [], w2):
            spout.feed([(doc, None) for doc in window])
            while spout.next_tuple(fed):
                pass
        assert fed.emitted == up_front.emitted
        assert [e[0] for e in fed.emitted].count(msg.WINDOW_END) == 3

    def test_carries_sides(self):
        r, s = Document({"k": 1}, doc_id=0), Document({"k": 1}, doc_id=1)
        spout = DocumentSpout()
        spout.feed([(r, "R"), (s, "S")])
        collector = FakeCollector()
        while spout.next_tuple(collector):
            pass
        assert [values for _, values, _ in collector.on_stream(msg.DOCS)] == [
            (r, 0, "R"),
            (s, 0, "S"),
        ]


class TestPartitionCreator:
    def test_samples_bootstrap_window(self):
        creator = PartitionCreatorBolt()
        creator.prepare(context(msg.CREATOR))
        collector = FakeCollector()
        creator.process(doc_tuple(Document({"a": 1}, doc_id=0)), collector)
        creator.process(window_end(0), collector)
        stats = collector.on_stream(msg.SAMPLE_STATS)
        assert len(stats) == 1
        _, (window_id, attribute_stats, size), _ = stats[0]
        assert window_id == 0
        assert size == 1
        assert attribute_stats.doc_count == {"a": 1}

    def test_mining_request_produces_local_groups(self):
        creator = PartitionCreatorBolt()
        creator.prepare(context(msg.CREATOR))
        collector = FakeCollector()
        creator.process(doc_tuple(Document({"a": 1, "b": 2}, doc_id=0)), collector)
        creator.process(window_end(0), collector)
        creator.process(
            StreamTuple(msg.MINING_REQUEST, (0, None), msg.MERGER, 0), collector
        )
        groups_msgs = collector.on_stream(msg.LOCAL_GROUPS)
        assert len(groups_msgs) == 1
        _, (window_id, groups, sample_sets, broadcasts, size), _ = groups_msgs[0]
        assert window_id == 0 and size == 1 and broadcasts == 0
        assert {p for g in groups for p in g.pairs} == {
            AVPair("a", 1), AVPair("b", 2)
        }
        assert dict(sample_sets) == {
            frozenset({AVPair("a", 1), AVPair("b", 2)}): 1
        }

    def test_stops_sampling_after_mining(self):
        creator = PartitionCreatorBolt()
        creator.prepare(context(msg.CREATOR))
        collector = FakeCollector()
        creator.process(doc_tuple(Document({"a": 1}, doc_id=0)), collector)
        creator.process(window_end(0), collector)
        creator.process(
            StreamTuple(msg.MINING_REQUEST, (0, None), msg.MERGER, 0), collector
        )
        collector.emitted.clear()
        # next window: no sampling scheduled -> silence at window end
        creator.process(doc_tuple(Document({"b": 2}, doc_id=1), 1), collector)
        creator.process(window_end(1), collector)
        assert collector.emitted == []

    def test_repartition_control_resumes_sampling(self):
        creator = PartitionCreatorBolt()
        creator.prepare(context(msg.CREATOR))
        collector = FakeCollector()
        creator.process(window_end(0), collector)  # bootstrap stats (empty)
        creator.process(
            StreamTuple(msg.MINING_REQUEST, (0, None), msg.MERGER, 0), collector
        )
        collector.emitted.clear()
        control = StreamTuple(
            msg.CONTROL,
            (msg.ControlMessage(kind="repartition", window_id=0),),
            msg.ASSIGNER,
            0,
        )
        creator.process(control, collector)
        creator.process(doc_tuple(Document({"c": 3}, doc_id=5), 1), collector)
        creator.process(window_end(1), collector)
        assert len(collector.on_stream(msg.SAMPLE_STATS)) == 1

    def test_centralized_mode_ships_sample_sets_only(self):
        creator = PartitionCreatorBolt(distributed_mining=False)
        creator.prepare(context(msg.CREATOR))
        collector = FakeCollector()
        creator.process(doc_tuple(Document({"a": 1, "b": 2}, doc_id=0)), collector)
        creator.process(doc_tuple(Document({"c": 3}, doc_id=1)), collector)
        creator.process(doc_tuple(Document({"c": 3}, doc_id=2)), collector)
        creator.process(window_end(0), collector)
        creator.process(
            StreamTuple(msg.MINING_REQUEST, (0, None), msg.MERGER, 0), collector
        )
        _, (_, groups, sample_sets, _, size), _ = collector.on_stream(
            msg.LOCAL_GROUPS
        )[0]
        assert groups == []  # baselines mine nothing locally
        assert size == 3
        counts = dict(sample_sets)
        assert counts[frozenset({AVPair("c", 3)})] == 2  # multiplicity kept


class TestMerger:
    def _run_protocol(self, merger, docs, window_id=0):
        """Drive the two-round protocol with a single virtual creator."""
        collector = FakeCollector()
        creator = PartitionCreatorBolt(
            distributed_mining=isinstance(
                merger.partitioner, AssociationGroupPartitioner
            )
        )
        creator.prepare(context(msg.CREATOR, parallelism=1))
        creator_out = FakeCollector()
        for doc in docs:
            creator.process(doc_tuple(doc, window_id), creator_out)
        creator.process(window_end(window_id), creator_out)
        _, stats_values, _ = creator_out.on_stream(msg.SAMPLE_STATS)[0]
        merger.process(
            StreamTuple(msg.SAMPLE_STATS, stats_values, msg.CREATOR, 0), collector
        )
        _, (wid, plan), _ = collector.on_stream(msg.MINING_REQUEST)[0]
        creator.process(
            StreamTuple(msg.MINING_REQUEST, (wid, plan), msg.MERGER, 0), creator_out
        )
        _, group_values, _ = creator_out.on_stream(msg.LOCAL_GROUPS)[0]
        merger.process(
            StreamTuple(msg.LOCAL_GROUPS, group_values, msg.CREATOR, 0), collector
        )
        return collector

    def _merger(self, partitioner=None, m=3, n_creators=1, **kwargs):
        merger = MergerBolt(partitioner or AssociationGroupPartitioner(), **kwargs)
        merger.prepare(
            context(msg.MERGER, **{msg.JOINER: m, msg.CREATOR: n_creators})
        )
        return merger

    def test_partition_set_emitted(self, fig3_documents):
        merger = self._merger()
        collector = self._run_protocol(merger, fig3_documents)
        partition_msgs = collector.on_stream(msg.PARTITIONS)
        assert len(partition_msgs) == 1
        (pset,) = partition_msgs[0][1]
        assert pset.version == 1
        assert len(pset.partitions) == 3

    def test_repartition_event_marks_initial(self, fig3_documents):
        merger = self._merger()
        collector = self._run_protocol(merger, fig3_documents)
        _, (window_id, initial), _ = collector.on_stream(msg.REPARTITION_EVENT)[0]
        assert window_id == 0 and initial is True

    def test_second_computation_increments_version(self, fig3_documents):
        merger = self._merger()
        self._run_protocol(merger, fig3_documents, window_id=0)
        collector = self._run_protocol(merger, fig3_documents, window_id=1)
        (pset,) = collector.on_stream(msg.PARTITIONS)[0][1]
        assert pset.version == 2
        _, (_, initial), _ = collector.on_stream(msg.REPARTITION_EVENT)[0]
        assert initial is False

    def test_centralized_baseline_runs_whole_algorithm(self, fig1_documents):
        merger = self._merger(partitioner=SetCoverPartitioner())
        collector = self._run_protocol(merger, fig1_documents)
        (pset,) = collector.on_stream(msg.PARTITIONS)[0][1]
        owned = {p for part in pset.partitions for p in part.pairs}
        assert owned == {p for d in fig1_documents for p in d.avpairs()}

    def test_expansion_planned_for_low_variety(self):
        docs = [
            Document({"flag": i % 2 == 0, "dev": f"d{i % 9}"}, doc_id=i)
            for i in range(18)
        ]
        merger = self._merger(m=4)
        collector = self._run_protocol(merger, docs)
        (pset,) = collector.on_stream(msg.PARTITIONS)[0][1]
        assert pset.expansion is not None
        assert pset.expansion.attributes[0] == "flag"

    def test_expansion_off(self):
        docs = [
            Document({"flag": i % 2 == 0, "dev": f"d{i % 9}"}, doc_id=i)
            for i in range(18)
        ]
        merger = self._merger(m=4, expansion="off")
        collector = self._run_protocol(merger, docs)
        (pset,) = collector.on_stream(msg.PARTITIONS)[0][1]
        assert pset.expansion is None

    def test_invalid_expansion_mode(self):
        with pytest.raises(ValueError):
            MergerBolt(AssociationGroupPartitioner(), expansion="maybe")

    def test_multiple_instances_rejected(self):
        merger = MergerBolt(AssociationGroupPartitioner())
        bad = ComponentContext(msg.MERGER, 0, 2, {msg.JOINER: 2, msg.CREATOR: 1})
        with pytest.raises(ValueError, match="single instance"):
            merger.prepare(bad)

    def test_update_grafts_pair_onto_best_partition(self, fig3_documents):
        merger = self._merger()
        self._run_protocol(merger, fig3_documents)
        collector = FakeCollector()
        update = msg.ControlMessage(
            kind="update",
            window_id=1,
            pair=AVPair("E", 99),
            co_pairs=(AVPair("D", 13),),
        )
        merger.process(
            StreamTuple(msg.CONTROL, (update,), msg.ASSIGNER, 0), collector
        )
        updates = collector.on_stream(msg.PARTITION_UPDATE)
        assert len(updates) == 1
        pair, index = updates[0][1]
        assert pair == AVPair("E", 99)
        # the partition holding D:13 shares the most co-pairs
        target = merger._partitions[index]
        assert AVPair("D", 13) in target.pairs

    def test_duplicate_update_ignored(self, fig3_documents):
        merger = self._merger()
        self._run_protocol(merger, fig3_documents)
        collector = FakeCollector()
        update = msg.ControlMessage(
            kind="update", window_id=1, pair=AVPair("E", 99), co_pairs=()
        )
        merger.process(StreamTuple(msg.CONTROL, (update,), msg.ASSIGNER, 0), collector)
        merger.process(StreamTuple(msg.CONTROL, (update,), msg.ASSIGNER, 0), collector)
        assert len(collector.on_stream(msg.PARTITION_UPDATE)) == 1


class TestAssigner:
    def _assigner(self, theta=0.2, delta=2, n_joiners=3):
        assigner = AssignerBolt(theta=theta, delta=delta)
        assigner.prepare(context(msg.ASSIGNER, **{msg.JOINER: n_joiners}))
        return assigner

    def _install(self, assigner, partitions, **kwargs):
        pset = msg.PartitionSet(
            version=1,
            partitions=partitions,
            expansion=None,
            baseline_replication=kwargs.get("baseline_replication", 1.0),
            baseline_max_load=kwargs.get("baseline_max_load", 0.5),
            created_at_window=0,
        )
        assigner.process(
            StreamTuple(msg.PARTITIONS, (pset,), msg.MERGER, 0), FakeCollector()
        )

    def test_bootstrap_broadcasts(self):
        assigner = self._assigner()
        collector = FakeCollector()
        assigner.process(doc_tuple(Document({"a": 1}, doc_id=0)), collector)
        assigned = collector.on_stream(msg.ASSIGNED)
        assert [direct for _, _, direct in assigned] == [0, 1, 2]

    def test_routes_after_partitions_installed(self):
        assigner = self._assigner()
        self._install(
            assigner,
            [
                Partition(index=0, pairs={AVPair("a", 1)}),
                Partition(index=1, pairs={AVPair("b", 2)}),
                Partition(index=2, pairs=set()),
            ],
        )
        collector = FakeCollector()
        assigner.process(doc_tuple(Document({"a": 1}, doc_id=0)), collector)
        assert [d for _, _, d in collector.on_stream(msg.ASSIGNED)] == [0]

    def test_delta_threshold_triggers_update_request(self):
        assigner = self._assigner(delta=2)
        self._install(assigner, [Partition(index=i) for i in range(3)])
        collector = FakeCollector()
        doc = Document({"new": 1}, doc_id=0)
        assigner.process(doc_tuple(doc), collector)
        assert collector.on_stream(msg.CONTROL) == []  # 1 occurrence < delta
        assigner.process(doc_tuple(Document({"new": 1}, doc_id=1)), collector)
        controls = collector.on_stream(msg.CONTROL)
        assert len(controls) == 1
        (control,) = controls[0][1]
        assert control.kind == "update"
        assert control.pair == AVPair("new", 1)

    def test_update_requested_once_per_pair(self):
        assigner = self._assigner(delta=1)
        self._install(assigner, [Partition(index=i) for i in range(3)])
        collector = FakeCollector()
        for i in range(3):
            assigner.process(doc_tuple(Document({"new": 1}, doc_id=i)), collector)
        assert len(collector.on_stream(msg.CONTROL)) == 1

    def test_partition_update_applied(self):
        assigner = self._assigner()
        self._install(assigner, [Partition(index=i) for i in range(3)])
        assigner.process(
            StreamTuple(msg.PARTITION_UPDATE, (AVPair("new", 1), 2), msg.MERGER, 0),
            FakeCollector(),
        )
        collector = FakeCollector()
        assigner.process(doc_tuple(Document({"new": 1}, doc_id=0)), collector)
        assert [d for _, _, d in collector.on_stream(msg.ASSIGNED)] == [2]

    def test_window_end_emits_stats_and_done(self):
        assigner = self._assigner()
        collector = FakeCollector()
        assigner.process(doc_tuple(Document({"a": 1}, doc_id=0)), collector)
        assigner.process(window_end(0), collector)
        stats = collector.on_stream(msg.ASSIGNER_STATS)
        assert len(stats) == 1
        (record,) = stats[0][1]
        assert record.documents == 1
        assert record.assignments == 3  # bootstrap broadcast to 3 joiners
        assert len(collector.on_stream(msg.WINDOW_DONE)) == 1

    def test_theta_exceeded_triggers_repartition(self):
        assigner = self._assigner(theta=0.2)
        self._install(
            assigner,
            [Partition(index=i) for i in range(3)],
            baseline_replication=1.0,
            baseline_max_load=0.2,
        )
        collector = FakeCollector()
        # everything broadcasts (empty partitions) -> observed repl = 3.0
        assigner.process(doc_tuple(Document({"x": 1}, doc_id=0)), collector)
        assigner.process(window_end(0), collector)
        controls = [
            values[0]
            for _, values, _ in collector.on_stream(msg.CONTROL)
        ]
        assert any(c.kind == "repartition" for c in controls)

    def test_theta_not_exceeded_stays_quiet(self):
        assigner = self._assigner(theta=0.2)
        self._install(
            assigner,
            [
                Partition(index=0, pairs={AVPair("a", 1)}),
                Partition(index=1, pairs=set()),
                Partition(index=2, pairs=set()),
            ],
            baseline_replication=1.0,
            baseline_max_load=1.0,
        )
        collector = FakeCollector()
        assigner.process(doc_tuple(Document({"a": 1}, doc_id=0)), collector)
        assigner.process(window_end(0), collector)
        controls = [v[0] for _, v, _ in collector.on_stream(msg.CONTROL)]
        assert not any(c.kind == "repartition" for c in controls)

    def test_counters_reset_per_window(self):
        assigner = self._assigner()
        collector = FakeCollector()
        assigner.process(doc_tuple(Document({"a": 1}, doc_id=0)), collector)
        assigner.process(window_end(0), collector)
        collector.emitted.clear()
        assigner.process(window_end(1), collector)
        (record,) = collector.on_stream(msg.ASSIGNER_STATS)[0][1]
        assert record.documents == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AssignerBolt(theta=-0.1)
        with pytest.raises(ValueError):
            AssignerBolt(delta=0)


class TestJoiner:
    def _joiner(self, **kwargs):
        joiner = JoinerBolt(**kwargs)
        joiner.prepare(context(msg.JOINER, **{msg.ASSIGNER: 2}))
        return joiner

    def test_counts_join_pairs(self):
        joiner = self._joiner()
        collector = FakeCollector()
        joiner.process(doc_tuple(Document({"a": 1}, doc_id=0), source=msg.ASSIGNER, stream=msg.ASSIGNED), collector)
        joiner.process(doc_tuple(Document({"a": 1}, doc_id=1), source=msg.ASSIGNER, stream=msg.ASSIGNED), collector)
        for _ in range(2):  # one done marker per assigner
            joiner.process(
                StreamTuple(msg.WINDOW_DONE, (0,), msg.ASSIGNER, 0), collector
            )
        stats_msgs = collector.on_stream(msg.JOIN_STATS)
        assert len(stats_msgs) == 1
        stats, pairs = stats_msgs[0][1]
        assert stats.join_pairs == 1
        assert stats.documents == 2
        assert pairs is None

    def test_waits_for_all_assigners(self):
        joiner = self._joiner()
        collector = FakeCollector()
        joiner.process(
            StreamTuple(msg.WINDOW_DONE, (0,), msg.ASSIGNER, 0), collector
        )
        assert collector.on_stream(msg.JOIN_STATS) == []

    def test_collect_pairs(self):
        from repro.join.base import JoinPair

        joiner = self._joiner(collect_pairs=True)
        collector = FakeCollector()
        joiner.process(doc_tuple(Document({"a": 1}, doc_id=5), source=msg.ASSIGNER, stream=msg.ASSIGNED), collector)
        joiner.process(doc_tuple(Document({"a": 1}, doc_id=9), source=msg.ASSIGNER, stream=msg.ASSIGNED), collector)
        for _ in range(2):
            joiner.process(
                StreamTuple(msg.WINDOW_DONE, (0,), msg.ASSIGNER, 0), collector
            )
        _, pairs = collector.on_stream(msg.JOIN_STATS)[0][1]
        assert pairs == frozenset({JoinPair(5, 9)})

    def test_tumbling_evicts_state(self):
        joiner = self._joiner()
        collector = FakeCollector()
        joiner.process(doc_tuple(Document({"a": 1}, doc_id=0), source=msg.ASSIGNER, stream=msg.ASSIGNED), collector)
        for _ in range(2):
            joiner.process(
                StreamTuple(msg.WINDOW_DONE, (0,), msg.ASSIGNER, 0), collector
            )
        collector.emitted.clear()
        # next window: the old document must be gone
        joiner.process(doc_tuple(Document({"a": 1}, doc_id=1), 1, source=msg.ASSIGNER, stream=msg.ASSIGNED), collector)
        for _ in range(2):
            joiner.process(
                StreamTuple(msg.WINDOW_DONE, (1,), msg.ASSIGNER, 0), collector
            )
        stats, _ = collector.on_stream(msg.JOIN_STATS)[0][1]
        assert stats.join_pairs == 0

    def test_compute_joins_disabled_counts_only(self):
        joiner = self._joiner(compute_joins=False)
        collector = FakeCollector()
        joiner.process(doc_tuple(Document({"a": 1}, doc_id=0), source=msg.ASSIGNER, stream=msg.ASSIGNED), collector)
        joiner.process(doc_tuple(Document({"a": 1}, doc_id=1), source=msg.ASSIGNER, stream=msg.ASSIGNED), collector)
        for _ in range(2):
            joiner.process(
                StreamTuple(msg.WINDOW_DONE, (0,), msg.ASSIGNER, 0), collector
            )
        stats, _ = collector.on_stream(msg.JOIN_STATS)[0][1]
        assert stats.join_pairs == 0
        assert stats.documents == 2

    def _window(self, joiner, docs, window_id, collector):
        for doc in docs:
            joiner.process(
                doc_tuple(doc, window_id, source=msg.ASSIGNER, stream=msg.ASSIGNED),
                collector,
            )
        for _ in range(2):
            joiner.process(
                StreamTuple(msg.WINDOW_DONE, (window_id,), msg.ASSIGNER, 0), collector
            )

    def test_index_survives_tumbles_until_the_order_changes(self):
        from repro.join.ordering import AttributeOrder

        bolt = self._joiner()
        group = bolt._group
        collector = FakeCollector()
        self._window(bolt, [Document({"a": 1, "b": 2}, doc_id=0)], 0, collector)
        first = group._spare
        assert len(group) == 0 and first is not None and len(first) == 0
        self._window(bolt, [Document({"a": 1, "b": 2}, doc_id=1)], 1, collector)
        assert group._spare is first  # reset, not rebuilt
        order = AttributeOrder(("b", "a"))
        pset = msg.PartitionSet(1, [], None, 1.0, 1.0, 1, attribute_order=order)
        bolt.process(StreamTuple(msg.PARTITIONS, (pset,), msg.MERGER, 0), collector)
        self._window(bolt, [Document({"a": 1, "b": 2}, doc_id=2)], 2, collector)
        # the order in force changed: the spare was not reused
        assert group._spare is not first and group._spare.tree.order is order

    def test_colocated_tasks_share_one_index(self):
        """Three tasks of one executor: each document is stored once and
        every task reports what a private tree would have."""
        from repro.join.base import JoinPair
        from repro.topology.joiner import JoinerGroup

        group = JoinerGroup()
        tasks = []
        for task_index in range(3):
            bolt = JoinerBolt(collect_pairs=True, group=group)
            bolt.prepare(context(msg.JOINER, task_index, 3, **{msg.ASSIGNER: 2}))
            tasks.append(bolt)
        docs = [Document({"a": 1, f"k{i}": i}, doc_id=i) for i in range(4)]
        assigned = {0: (0, 1, 2, 3), 1: (1, 3), 2: (0,)}
        collector = FakeCollector()
        for doc in docs:
            for task_index, bolt in enumerate(tasks):
                if doc.doc_id in assigned[task_index]:
                    bolt.process(
                        doc_tuple(doc, 7, source=msg.ASSIGNER, stream=msg.ASSIGNED),
                        collector,
                    )
        assert len(group) == 1 and len(group.indexes(7, None, tasks[0])[0]) == 4
        for bolt in tasks[:2]:
            self._window(bolt, [], 7, collector)
        assert len(group) == 1  # task 2 still holds window 7
        self._window(tasks[2], [], 7, collector)
        assert len(group) == 0
        results = {
            stats.task_index: (stats.documents, stats.join_pairs, pairs)
            for _, (stats, pairs), _ in collector.on_stream(msg.JOIN_STATS)
        }
        assert results == {
            0: (4, 6, frozenset(JoinPair(a, b) for a in range(4) for b in range(a + 1, 4))),
            1: (2, 1, frozenset({JoinPair(1, 3)})),
            2: (1, 0, frozenset()),
        }

    def test_pickles_without_window_state(self):
        """A Joiner task ships pristine index-wise: mid-window it pickles
        without a tree, a mask dict or an open window, and the bolts of
        one payload still share one (empty) group after loading."""
        import pickle

        from repro.join.fptree import FPTree
        from repro.join.shared_index import SharedWindowIndex
        from repro.topology.joiner import JoinerGroup

        group = JoinerGroup()
        bolts = [JoinerBolt(group=group) for _ in range(2)]
        for task_index, bolt in enumerate(bolts):
            bolt.prepare(context(msg.JOINER, task_index, 2, **{msg.ASSIGNER: 2}))
        collector = FakeCollector()
        self._window(bolts[0], [Document({"a": 1}, doc_id=0)], 0, collector)  # a spare
        for doc_id in (1, 2):
            bolts[0].process(
                doc_tuple(Document({"a": 1}, doc_id=doc_id), 1,
                          source=msg.ASSIGNER, stream=msg.ASSIGNED),
                collector,
            )
        assert len(group) == 1 and group._spare is None

        payload = pickle.dumps({("joiner", i): bolt for i, bolt in enumerate(bolts)})
        for forbidden in (SharedWindowIndex, FPTree):
            assert forbidden.__qualname__.encode() not in payload
        loaded = list(pickle.loads(payload).values())
        assert loaded[0]._group is loaded[1]._group is not group
        assert len(loaded[0]._group) == 0 and loaded[0]._group._spare is None
        assert loaded[0]._docs == 2  # the task's own counters do travel
        # the loaded tasks join from scratch, together
        for bolt in loaded:
            bolt.process(
                doc_tuple(Document({"a": 1}, doc_id=9), 1,
                          source=msg.ASSIGNER, stream=msg.ASSIGNED),
                collector,
            )
        assert len(loaded[0]._group.indexes(1, None, loaded[0])[0]) == 1

    def test_process_dictionary_is_bounded_across_generations(self, monkeypatch):
        """A stream of never-repeating values must not grow the shared
        dictionary forever: it turns over in generations, and windows on
        either side of a turnover still join exactly."""
        from repro.core import interning
        from repro.join.base import brute_force_pairs

        cap, window_docs = 400, 12
        monkeypatch.setattr(interning, "PROCESS_INTERNER_PAIRS", cap)
        monkeypatch.setattr(interning, "_process_interner", interning.PairInterner())
        tasks = [self._joiner(collect_pairs=True) for _ in range(2)]  # one process
        generations = []
        for window_id in range(300):
            docs = [
                Document(
                    {"k": i % 4, "u": f"{window_id}-{i}"},
                    doc_id=window_id * window_docs + i,
                )
                for i in range(window_docs)
            ]
            expected = brute_force_pairs(docs)
            for bolt in tasks:
                collector = FakeCollector()
                self._window(bolt, docs, window_id, collector)
                stats, pairs = collector.on_stream(msg.JOIN_STATS)[0][1]
                assert pairs == expected and stats.join_pairs == len(expected)
            current = interning.process_interner()
            assert current.pair_count <= cap + 2 * window_docs
            if not generations or generations[-1] is not current:
                generations.append(current)
        assert len(generations) > 5


class TestMergerPersistence:
    def test_snapshot_restore_round_trip(self, fig3_documents):
        helper = TestMerger()
        merger = helper._merger()
        helper._run_protocol(merger, fig3_documents)
        snapshot = merger.snapshot()

        fresh = helper._merger()
        collector = FakeCollector()
        fresh.restore(snapshot, collector)
        # the restored state is rebroadcast to the Assigners
        (pset,) = collector.on_stream(msg.PARTITIONS)[0][1]
        assert pset.version == 1
        assert [p.pairs for p in pset.partitions] == [
            p.pairs for p in merger._partitions
        ]

    def test_restored_merger_handles_updates(self, fig3_documents):
        helper = TestMerger()
        merger = helper._merger()
        helper._run_protocol(merger, fig3_documents)
        fresh = helper._merger()
        fresh.restore(merger.snapshot(), FakeCollector())
        collector = FakeCollector()
        update = msg.ControlMessage(
            kind="update", window_id=1, pair=AVPair("Z", 1), co_pairs=()
        )
        fresh.process(StreamTuple(msg.CONTROL, (update,), msg.ASSIGNER, 0), collector)
        assert len(collector.on_stream(msg.PARTITION_UPDATE)) == 1

    def test_snapshot_preserves_version_counter(self, fig3_documents):
        helper = TestMerger()
        merger = helper._merger()
        helper._run_protocol(merger, fig3_documents, window_id=0)
        helper._run_protocol(merger, fig3_documents, window_id=1)
        fresh = helper._merger()
        fresh.restore(merger.snapshot(), FakeCollector())
        assert fresh._version == 2
