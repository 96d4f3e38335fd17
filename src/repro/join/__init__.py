"""Local join computation: FP-tree join and baseline algorithms."""

from repro.join.base import JoinPair, LocalJoiner, join_window
from repro.join.cost import predict_nlj_hbj_winner, profile_and_predict
from repro.join.binary import (
    BinaryJoinPair,
    BinaryStreamJoiner,
    binary_join_window,
)
from repro.join.fptree import FPTree, NodeView
from repro.join.fptree_join import FPTreeJoiner, fptree_join
from repro.join.hash_join import HashJoiner
from repro.join.nested_loop import NestedLoopJoiner
from repro.join.ordering import AttributeOrder
from repro.join.shared_index import SharedWindowIndex
from repro.join.sliding import (
    SlidingFPTreeJoiner,
    sliding_join_stream,
)

__all__ = [
    "AttributeOrder",
    "BinaryJoinPair",
    "BinaryStreamJoiner",
    "binary_join_window",
    "FPTree",
    "FPTreeJoiner",
    "fptree_join",
    "HashJoiner",
    "JoinPair",
    "LocalJoiner",
    "NestedLoopJoiner",
    "NodeView",
    "predict_nlj_hbj_winner",
    "profile_and_predict",
    "SharedWindowIndex",
    "SlidingFPTreeJoiner",
    "sliding_join_stream",
    "join_window",
]
