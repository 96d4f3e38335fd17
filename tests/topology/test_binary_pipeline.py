"""Integration tests for the two-stream (R ⋈ S) topology."""

import pytest

from repro.core.document import Document
from repro.data.serverlogs import ServerLogGenerator
from repro.join.binary import BinaryJoinPair, brute_force_binary_pairs
from repro.topology.pipeline import StreamJoinConfig, run_binary_stream_join


def _two_streams(n_windows=2, window_size=100):
    """rwData split into two streams with disjoint id ranges."""
    generator = ServerLogGenerator(seed=13)
    left_windows, right_windows = [], []
    for _ in range(n_windows):
        window = generator.next_window(window_size * 2)
        left = [Document(d.pairs, doc_id=d.doc_id) for d in window[:window_size]]
        right = [
            Document(d.pairs, doc_id=d.doc_id) for d in window[window_size:]
        ]
        left_windows.append(left)
        right_windows.append(right)
    return left_windows, right_windows


def _expected(left_windows, right_windows):
    truth = set()
    for left, right in zip(left_windows, right_windows):
        truth |= brute_force_binary_pairs(left, right)
    return frozenset(truth)


class TestBinaryPipeline:
    def test_exact_cross_stream_join(self):
        left_windows, right_windows = _two_streams()
        config = StreamJoinConfig(
            m=3, algorithm="AG", n_assigners=2,
            compute_joins=True, collect_pairs=True, binary=True,
        )
        result = run_binary_stream_join(config, left_windows, right_windows)
        assert result.join_pairs == _expected(left_windows, right_windows)

    def test_binary_flag_set_automatically(self):
        left_windows, right_windows = _two_streams(n_windows=1, window_size=40)
        config = StreamJoinConfig(
            m=2, algorithm="AG", n_assigners=1,
            compute_joins=True, collect_pairs=True,  # binary omitted
        )
        result = run_binary_stream_join(config, left_windows, right_windows)
        assert result.config.binary is True
        assert result.join_pairs == _expected(left_windows, right_windows)

    def test_no_intra_stream_pairs(self):
        left = [[Document({"k": 1}, doc_id=0), Document({"k": 1}, doc_id=1)]]
        right = [[Document({"z": 9}, doc_id=2)]]
        config = StreamJoinConfig(
            m=2, algorithm="AG", n_assigners=1, n_creators=1,
            compute_joins=True, collect_pairs=True, binary=True,
        )
        result = run_binary_stream_join(config, left, right)
        # docs 0 and 1 join each other but live on the same stream
        assert result.join_pairs == frozenset()

    def test_cross_pairs_oriented_left_right(self):
        left = [[Document({"k": 1}, doc_id=0)]]
        right = [[Document({"k": 1}, doc_id=7)]]
        config = StreamJoinConfig(
            m=2, algorithm="AG", n_assigners=1, n_creators=1,
            compute_joins=True, collect_pairs=True, binary=True,
        )
        result = run_binary_stream_join(config, left, right)
        assert result.join_pairs == frozenset({BinaryJoinPair(0, 7)})

    def test_mismatched_window_counts_rejected(self):
        config = StreamJoinConfig(m=2, n_assigners=1, n_creators=1, binary=True)
        with pytest.raises(ValueError, match="same number of windows"):
            run_binary_stream_join(config, [[]], [[], []])

    def test_binary_sliding_rejected(self):
        from repro.topology.joiner import JoinerBolt

        with pytest.raises(ValueError, match="tumbling"):
            JoinerBolt(binary=True, sliding_size=10)

    def test_metrics_cover_both_streams(self):
        left_windows, right_windows = _two_streams(n_windows=2, window_size=60)
        config = StreamJoinConfig(
            m=2, algorithm="AG", n_assigners=2, binary=True
        )
        result = run_binary_stream_join(config, left_windows, right_windows)
        assert all(m.documents == 120 for m in result.per_window)


class TestBinaryWithExpansion:
    def test_exact_under_attribute_expansion(self):
        """Two nbData-like streams with a ubiquitous Boolean: expansion
        rewrites the routing pair space, the cross-stream join must stay
        exact."""
        import random

        rng = random.Random(9)
        left_windows, right_windows = [], []
        next_id = 0
        for _ in range(2):
            left, right = [], []
            for _ in range(60):
                record = {
                    "bool": rng.random() < 0.5,
                    "key": rng.randrange(12),
                    "tag": rng.randrange(5),
                }
                left.append(Document(record, doc_id=next_id))
                next_id += 1
            for _ in range(60):
                record = {
                    "bool": rng.random() < 0.5,
                    "key": rng.randrange(12),
                    "extra": rng.randrange(4),
                }
                right.append(Document(record, doc_id=next_id))
                next_id += 1
            left_windows.append(left)
            right_windows.append(right)

        config = StreamJoinConfig(
            m=4, algorithm="AG", n_assigners=2,
            compute_joins=True, collect_pairs=True, binary=True,
        )
        result = run_binary_stream_join(config, left_windows, right_windows)
        assert result.join_pairs == _expected(left_windows, right_windows)
