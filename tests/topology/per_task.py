"""Per-task reference for the shared window index: m isolated joiners.

:class:`IsolatedJoinerBolt` is the Joiner as it was before the tasks of
an executor shared one index — a private joiner per task: an
``FPTreeJoiner`` per tumbling window, one ``SlidingFPTreeJoiner`` for
the whole stream, or a ``BinaryStreamJoiner`` per two-stream window —
and :func:`run_per_task` runs a topology with either kind of Joiner and
returns what every task reported for every window, so suites can hold
the shared index to "exactly what m isolated per-task joiners produce".
"""

from repro.core.document import Document
from repro.experiments.config import make_generator
from repro.join.base import JoinPair
from repro.join.binary import BinaryStreamJoiner, interleave
from repro.join.fptree_join import FPTreeJoiner
from repro.join.sliding import SlidingFPTreeJoiner
from repro.topology import messages as msg
from repro.topology.joiner import JoinerBolt
from repro.topology.pipeline import build_topology, make_cluster
from repro.topology.sink import MetricsSinkBolt

#: the modes beside the tumbling self-join; the extent is far shorter
#: than what a task receives, so tasks expire documents
MODES = {"sliding": {"sliding_size": 50}, "binary": {"binary": True}}


def mode_windows(dataset: str, mode: str, n_windows: int = 3, size: int = 120):
    """``n_windows`` windows of ``dataset``; in binary mode each one's
    halves are the R and S streams, interleaved."""
    generator = make_generator(dataset, seed=29, window_size=size)
    windows = [generator.next_window(size) for _ in range(n_windows)]
    if mode != "binary":
        return windows
    return [interleave(w[: size // 2], w[size // 2 :]) for w in windows]


class IsolatedJoinerBolt(JoinerBolt):
    """A Joiner over a private joiner: the per-task reference."""

    def __init__(self, sliding_size=None, binary=False) -> None:
        super().__init__(
            compute_joins=True, collect_pairs=True,
            sliding_size=sliding_size, binary=binary,
        )
        self._private = None

    def _fresh(self):
        if self.sliding_size is not None:
            return SlidingFPTreeJoiner(self.sliding_size, self._order)
        if self.binary:
            return BinaryStreamJoiner(lambda: FPTreeJoiner(self._order))
        return FPTreeJoiner(self._order)

    def process(self, tup, collector) -> None:
        if tup.stream != msg.ASSIGNED:
            super().process(tup, collector)
            return
        document, _window_id, side = tup.values
        self._docs += 1
        if self._private is None:
            self._private = self._fresh()
        if self.binary:
            pairs = self._private.process(document, side)
        else:
            pairs = [
                JoinPair.of(partner, document.doc_id)
                for partner in self._private.probe(document)
            ]
            self._private.add(document)
        self._pair_count += len(pairs)
        self._pairs.update(pairs)

    def _tumble(self, window_id, collector) -> None:
        super()._tumble(window_id, collector)
        if self.sliding_size is None:  # a sliding extent spans windows
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

    A window is a list of documents (the self-join side) or of
    ``(document, side)`` items, fed through the reader spout.  Returns
    ``(per_task, tuple_stats)``; ``isolated`` swaps every Joiner task
    for an :class:`IsolatedJoinerBolt` in the same mode.
    """
    topology = build_topology(config, [])
    topology.components[msg.SINK].factory = RecordingSink
    if isolated:
        topology.components[msg.JOINER].factory = lambda: IsolatedJoinerBolt(
            config.sliding_size, config.binary
        )
    cluster = make_cluster(config, topology)
    try:
        spout = cluster.tasks(msg.READER)[0]
        for window in windows:
            spout.feed([
                (item, None) if isinstance(item, Document) else item
                for item in window
            ])
        cluster.run()
        return cluster.tasks(msg.SINK)[0].per_task, cluster.stats()
    finally:
        cluster.close()
