"""repro — reproduction of "Scaling Out Schema-free Stream Joins" (ICDE 2020).

The library computes exact natural joins over schema-free JSON document
streams, scaled out over ``m`` machines:

* :mod:`repro.core` — the document model and window definitions;
* :mod:`repro.partitioning` — the association-groups (AG) partitioner and
  the SC / DS / hash baselines, attribute expansion, and the router;
* :mod:`repro.join` — the FP-tree join (FPJ) and the NLJ / HBJ baselines;
* :mod:`repro.streaming` — a deterministic Storm-like substrate;
* :mod:`repro.topology` — the paper's Fig. 2 topology on that substrate;
* :mod:`repro.data` — dataset generators for the evaluation;
* :mod:`repro.metrics` — replication / Gini / processing-load metrics;
* :mod:`repro.obs` — pluggable observability (metrics registry + traces);
* :mod:`repro.experiments` — per-figure experiment harness.

Quickstart::

    from repro import Document, FPTreeJoiner, join_window

    docs = [Document({"user": "A", "severity": "warn"}, doc_id=0),
            Document({"user": "A", "msg": 2}, doc_id=1)]
    pairs = join_window(FPTreeJoiner(), docs)
"""

from repro.core.document import AVPair, Document
from repro.core.interning import EncodedDocument, PairInterner
from repro.core.window import CountWindow, TimeWindow
from repro.exceptions import (
    DocumentError,
    JoinConflictError,
    PartitioningError,
    ReproError,
    TopologyError,
    WindowError,
    WorkerCrashError,
)
from repro.faults import FaultPlan, InjectedFault
from repro.join.base import JoinPair, LocalJoiner, join_window
from repro.join.fptree import FPTree
from repro.join.fptree_join import FPTreeJoiner, fptree_join
from repro.join.hash_join import HashJoiner
from repro.join.nested_loop import NestedLoopJoiner
from repro.join.ordering import AttributeOrder
from repro.join.binary import BinaryJoinPair, BinaryStreamJoiner, binary_join_window
from repro.join.sliding import SlidingFPTreeJoiner
from repro.partitioning.association import AssociationGroupPartitioner
from repro.partitioning.base import Partition, Partitioner, PartitioningResult
from repro.partitioning.disjoint import DisjointSetPartitioner
from repro.partitioning.expansion import ExpansionPlan, plan_expansion
from repro.partitioning.graph import KernighanLinPartitioner
from repro.partitioning.hashing import HashPartitioner
from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    ObservabilitySnapshot,
    Span,
    trace,
)
from repro.partitioning.joinmatrix import JoinMatrixRouter
from repro.partitioning.router import DocumentRouter, RoutingDecision
from repro.partitioning.setcover import SetCoverPartitioner
from repro.streaming.recovery import DeadLetter, DeadLetterQueue, RestartPolicy
from repro.topology.pipeline import (
    PARTITIONERS,
    StreamJoinConfig,
    StreamJoinResult,
    run,
    run_binary_stream_join,
    run_stream_join,
)
from repro.topology.session import StreamJoinSession

__version__ = "1.0.0"

__all__ = [
    "AVPair",
    "AssociationGroupPartitioner",
    "AttributeOrder",
    "BinaryJoinPair",
    "BinaryStreamJoiner",
    "CountWindow",
    "DeadLetter",
    "DeadLetterQueue",
    "DisjointSetPartitioner",
    "Document",
    "DocumentError",
    "DocumentRouter",
    "EncodedDocument",
    "ExpansionPlan",
    "FPTree",
    "FPTreeJoiner",
    "FaultPlan",
    "HashJoiner",
    "HashPartitioner",
    "InjectedFault",
    "JoinConflictError",
    "JoinMatrixRouter",
    "JoinPair",
    "LocalJoiner",
    "KernighanLinPartitioner",
    "MetricsRegistry",
    "NestedLoopJoiner",
    "NullRegistry",
    "ObservabilitySnapshot",
    "PARTITIONERS",
    "PairInterner",
    "Partition",
    "Partitioner",
    "PartitioningError",
    "PartitioningResult",
    "ReproError",
    "RestartPolicy",
    "RoutingDecision",
    "SetCoverPartitioner",
    "SlidingFPTreeJoiner",
    "Span",
    "StreamJoinConfig",
    "StreamJoinResult",
    "StreamJoinSession",
    "TimeWindow",
    "TopologyError",
    "WindowError",
    "WorkerCrashError",
    "fptree_join",
    "join_window",
    "plan_expansion",
    "binary_join_window",
    "run",
    "run_binary_stream_join",
    "run_stream_join",
    "trace",
    "__version__",
]
