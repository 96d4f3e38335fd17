"""A Storm-like stream processing substrate.

The paper realizes its topology on Apache Storm (Section III).  This
package provides an in-process, deterministic equivalent: spouts and
bolts wired by a :class:`TopologyBuilder` through the same four stream
groupings Fig. 2 uses (shuffle, fields, all, direct), executed by a
single-threaded FIFO :class:`LocalCluster` or the multi-core
:class:`ParallelCluster` (same per-window results, Joiners in worker
processes behind a pluggable :class:`Transport` — forked socketpairs
or TCP sockets).  Determinism (round-robin shuffle, stable hashing, FIFO tuple
delivery) makes every experiment replayable — the routing semantics are
Storm's, without the cluster.
"""

from repro.streaming.component import Bolt, Collector, ComponentContext, Spout
from repro.streaming.grouping import (
    AllGrouping,
    DirectGrouping,
    FieldsGrouping,
    GlobalGrouping,
    Grouping,
    ShuffleGrouping,
)
from repro.streaming.executor import ClusterBase, LocalCluster
from repro.streaming.parallel import ParallelCluster
from repro.streaming.recovery import DeadLetter, DeadLetterQueue, RestartPolicy
from repro.streaming.topology import Topology, TopologyBuilder
from repro.streaming.transport import (
    LinkDown,
    Transport,
    WorkerInit,
    WorkerLink,
    available_transports,
    make_transport,
)
from repro.streaming.tuples import StreamTuple

__all__ = [
    "AllGrouping",
    "Bolt",
    "ClusterBase",
    "Collector",
    "ComponentContext",
    "DeadLetter",
    "DeadLetterQueue",
    "DirectGrouping",
    "FieldsGrouping",
    "GlobalGrouping",
    "Grouping",
    "LinkDown",
    "LocalCluster",
    "ParallelCluster",
    "RestartPolicy",
    "ShuffleGrouping",
    "Spout",
    "StreamTuple",
    "Topology",
    "TopologyBuilder",
    "Transport",
    "WorkerInit",
    "WorkerLink",
    "available_transports",
    "make_transport",
]
