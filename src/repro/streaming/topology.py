"""Topology declaration: components, parallelism, and subscriptions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import TopologyError
from repro.streaming.component import Bolt, Spout
from repro.streaming.grouping import Grouping


@dataclass
class Subscription:
    """One edge: a bolt listening to a (component, stream) with a grouping."""

    source: str
    stream: str
    grouping: Grouping


@dataclass
class ComponentSpec:
    """Declaration of a spout or bolt component."""

    name: str
    factory: Callable[[], Spout] | Callable[[], Bolt]
    parallelism: int
    is_spout: bool
    subscriptions: list[Subscription] = field(default_factory=list)


class BoltDeclarer:
    """Fluent helper returned by :meth:`TopologyBuilder.set_bolt`."""

    def __init__(self, spec: ComponentSpec):
        self._spec = spec

    def subscribe(self, source: str, stream: str, grouping: Grouping) -> "BoltDeclarer":
        """Listen to ``stream`` of component ``source`` with ``grouping``."""
        self._spec.subscriptions.append(Subscription(source, stream, grouping))
        return self


@dataclass
class Topology:
    """A validated, immutable topology description."""

    components: dict[str, ComponentSpec]

    def spouts(self) -> list[ComponentSpec]:
        return [c for c in self.components.values() if c.is_spout]

    def bolts(self) -> list[ComponentSpec]:
        return [c for c in self.components.values() if not c.is_spout]


class TopologyBuilder:
    """Storm-style builder: declare spouts/bolts, then :meth:`build`."""

    def __init__(self) -> None:
        self._components: dict[str, ComponentSpec] = {}

    def set_spout(
        self, name: str, factory: Callable[[], Spout], parallelism: int = 1
    ) -> None:
        self._add(ComponentSpec(name, factory, parallelism, is_spout=True))

    def set_bolt(
        self, name: str, factory: Callable[[], Bolt], parallelism: int = 1
    ) -> BoltDeclarer:
        spec = ComponentSpec(name, factory, parallelism, is_spout=False)
        self._add(spec)
        return BoltDeclarer(spec)

    def _add(self, spec: ComponentSpec) -> None:
        if spec.parallelism < 1:
            raise TopologyError(
                f"component {spec.name!r}: parallelism must be >= 1"
            )
        if spec.name in self._components:
            raise TopologyError(f"duplicate component name {spec.name!r}")
        self._components[spec.name] = spec

    def build(self) -> Topology:
        """Validate the wiring and freeze the topology."""
        for spec in self._components.values():
            for sub in spec.subscriptions:
                if sub.source not in self._components:
                    raise TopologyError(
                        f"{spec.name!r} subscribes to unknown component "
                        f"{sub.source!r}"
                    )
                if sub.source == spec.name:
                    raise TopologyError(
                        f"{spec.name!r} cannot subscribe to itself"
                    )
        if not any(c.is_spout for c in self._components.values()):
            raise TopologyError("a topology needs at least one spout")
        return Topology(dict(self._components))
