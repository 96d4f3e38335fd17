"""Per-task reference for the shared window index: m isolated joiners.

:class:`IsolatedJoinerBolt` is the Joiner as it was before the tasks of
an executor shared one index — a private ``FPTreeJoiner`` per task —
and :func:`run_per_task` runs a topology with either kind of Joiner and
returns what every task reported for every window, so suites can hold
the shared index to "exactly what m isolated per-task joiners produce".
"""

from repro.join.base import JoinPair
from repro.join.fptree_join import FPTreeJoiner
from repro.topology import messages as msg
from repro.topology.joiner import JoinerBolt
from repro.topology.pipeline import build_topology, make_cluster
from repro.topology.sink import MetricsSinkBolt


class IsolatedJoinerBolt(JoinerBolt):
    """Tumbling Joiner over a private tree: the per-task reference."""

    def __init__(self) -> None:
        super().__init__(compute_joins=True, collect_pairs=True)
        self._private = None

    def process(self, tup, collector) -> None:
        if tup.stream != msg.ASSIGNED:
            super().process(tup, collector)
            return
        document = tup.values[0]
        self._docs += 1
        if self._private is None:
            self._private = FPTreeJoiner(self._order)
        for partner in self._private.probe(document):
            self._pair_count += 1
            self._pairs.add(JoinPair.of(partner, document.doc_id))
        self._private.add(document)

    def _tumble(self, window_id, collector) -> None:
        super()._tumble(window_id, collector)
        self._private = None


class RecordingSink(MetricsSinkBolt):
    """Keeps every task's window report beside the merged metrics."""

    def __init__(self) -> None:
        super().__init__()
        #: (window id, task index) -> (documents, join pairs, pair set)
        self.per_task: dict[tuple[int, int], tuple] = {}

    def process(self, tup, collector) -> None:
        if tup.stream == msg.JOIN_STATS:
            stats, pairs = tup.values
            self.per_task[(stats.window_id, stats.task_index)] = (
                stats.documents, stats.join_pairs, pairs,
            )
        super().process(tup, collector)


def run_per_task(config, windows, isolated: bool) -> tuple[dict, dict]:
    """Run ``windows`` under ``config`` (joins and pair collection on).

    Returns ``(per_task, tuple_stats)``; ``isolated`` swaps every Joiner
    task for an :class:`IsolatedJoinerBolt`.
    """
    topology = build_topology(config, windows)
    topology.components[msg.SINK].factory = RecordingSink
    if isolated:
        topology.components[msg.JOINER].factory = IsolatedJoinerBolt
    cluster = make_cluster(config, topology)
    try:
        cluster.run()
        return cluster.tasks(msg.SINK)[0].per_task, cluster.stats()
    finally:
        cluster.close()
