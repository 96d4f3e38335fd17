"""Unit tests for topology declaration and validation."""

import pytest

from repro.exceptions import TopologyError
from repro.streaming.component import Bolt, Spout
from repro.streaming.grouping import ShuffleGrouping
from repro.streaming.topology import TopologyBuilder


class NullSpout(Spout):
    def next_tuple(self, collector) -> bool:
        return False


class NullBolt(Bolt):
    def process(self, tup, collector) -> None:
        pass


class TestTopologyBuilder:
    def test_minimal_topology(self):
        builder = TopologyBuilder()
        builder.set_spout("src", NullSpout)
        topology = builder.build()
        assert len(topology.spouts()) == 1
        assert topology.bolts() == []

    def test_bolt_subscription_chain(self):
        builder = TopologyBuilder()
        builder.set_spout("src", NullSpout)
        declarer = builder.set_bolt("sink", NullBolt, parallelism=2)
        result = declarer.subscribe("src", "a", ShuffleGrouping()).subscribe(
            "src", "b", ShuffleGrouping()
        )
        assert result is declarer
        topology = builder.build()
        assert len(topology.components["sink"].subscriptions) == 2

    def test_duplicate_name_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("x", NullSpout)
        with pytest.raises(TopologyError, match="duplicate"):
            builder.set_bolt("x", NullBolt)

    def test_unknown_source_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("src", NullSpout)
        builder.set_bolt("sink", NullBolt).subscribe(
            "ghost", "s", ShuffleGrouping()
        )
        with pytest.raises(TopologyError, match="unknown component"):
            builder.build()

    def test_self_subscription_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("src", NullSpout)
        builder.set_bolt("loop", NullBolt).subscribe("loop", "s", ShuffleGrouping())
        with pytest.raises(TopologyError, match="itself"):
            builder.build()

    def test_spoutless_topology_rejected(self):
        builder = TopologyBuilder()
        builder.set_bolt("sink", NullBolt)
        with pytest.raises(TopologyError, match="at least one spout"):
            builder.build()

    def test_non_positive_parallelism_rejected(self):
        builder = TopologyBuilder()
        with pytest.raises(TopologyError, match="parallelism"):
            builder.set_bolt("b", NullBolt, parallelism=0)

    def test_cycles_between_bolts_allowed(self):
        """Control loops (Assigner <-> Merger) are legal topologies."""
        builder = TopologyBuilder()
        builder.set_spout("src", NullSpout)
        builder.set_bolt("a", NullBolt).subscribe("b", "s", ShuffleGrouping())
        builder.set_bolt("b", NullBolt).subscribe("a", "t", ShuffleGrouping())
        builder.build()
