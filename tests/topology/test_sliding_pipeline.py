"""Integration tests for sliding windows in the full topology."""

import pytest

from repro.core.document import Document
from repro.exceptions import PartitioningError
from repro.join.base import JoinPair
from repro.streaming.elastic import ElasticPolicy
from repro.streaming.recovery import RestartPolicy
from repro.topology.pipeline import StreamJoinConfig, run_stream_join


def _reidentified(windows):
    out = []
    next_id = 0
    for window in windows:
        fresh = []
        for doc in window:
            fresh.append(Document(doc.pairs, doc_id=next_id))
            next_id += 1
        out.append(fresh)
    return out


class TestSlidingPipeline:
    def test_joins_span_window_boundaries(self):
        """The whole point of sliding mode: documents in adjacent windows
        can join, which tumbling mode forbids."""
        a = [Document({"k": 1}, doc_id=0), Document({"z": 5}, doc_id=1)]
        b = [Document({"k": 1}, doc_id=2), Document({"z": 6}, doc_id=3)]
        config = StreamJoinConfig(
            m=2, algorithm="AG", n_assigners=1, n_creators=1,
            compute_joins=True, collect_pairs=True, sliding_size=10,
        )
        result = run_stream_join(config, [a, b])
        assert JoinPair(0, 2) in result.join_pairs

    def test_expiry_limits_the_extent(self):
        windows = [
            [Document({"k": 1}, doc_id=0), Document({"z": 1}, doc_id=1)],
            [Document({"z": 2}, doc_id=2), Document({"z": 3}, doc_id=3)],
            [Document({"k": 1}, doc_id=4), Document({"z": 4}, doc_id=5)],
        ]
        config = StreamJoinConfig(
            m=1, algorithm="AG", n_assigners=1, n_creators=1,
            compute_joins=True, collect_pairs=True, sliding_size=3,
        )
        result = run_stream_join(config, windows)
        # doc 0 and doc 4 share k:1 but are 4 arrivals apart > extent 3
        assert JoinPair(0, 4) not in result.join_pairs

    def test_sliding_matches_single_node_reference(self):
        """With one machine the pipeline must equal the standalone
        sliding joiner over the concatenated stream."""
        from repro.data.serverlogs import ServerLogGenerator
        from repro.join.sliding import brute_force_sliding_pairs

        generator = ServerLogGenerator(seed=12)
        windows = [generator.next_window(80) for _ in range(3)]
        stream = [doc for window in windows for doc in window]
        config = StreamJoinConfig(
            m=1, algorithm="AG", n_assigners=1, n_creators=1,
            compute_joins=True, collect_pairs=True, sliding_size=60,
        )
        result = run_stream_join(config, windows)
        assert result.join_pairs == brute_force_sliding_pairs(stream, 60)

    def test_tumbling_remains_default(self):
        config = StreamJoinConfig(m=2)
        assert config.sliding_size is None

    @pytest.mark.parametrize(
        "field,value",
        [("restart_policy", RestartPolicy()), ("elastic", ElasticPolicy())],
    )
    def test_parallel_sliding_refuses_replay(self, field, value):
        """A replay re-ships only the current window's journal, but a
        sliding extent spans windows: a respawned or migrated worker
        would join against a shorter extent than the local run."""
        with pytest.raises(PartitioningError, match=f"sliding_size.*{field}"):
            StreamJoinConfig(backend="parallel", sliding_size=10, **{field: value})
        StreamJoinConfig(backend="parallel", sliding_size=10)
        StreamJoinConfig(sliding_size=10, **{field: value})  # local: no replay
