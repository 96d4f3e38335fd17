"""Pluggable observability: metrics registry and trace hooks.

The subsystem is dependency-free and designed around one rule: when
observability is off (the :data:`NULL_REGISTRY` default) the hot path
pays a single attribute lookup, nothing more.  Components receive a
:class:`MetricsRegistry` through their
:class:`~repro.streaming.component.ComponentContext` (``ctx.metrics`` /
``ctx.trace``) and record counters, gauges, fixed-bucket histograms and
spans; :meth:`MetricsRegistry.snapshot` turns everything recorded into a
JSON-serializable :class:`ObservabilitySnapshot`.

Naming conventions and wiring recipes are documented in
``docs/observability.md``.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    ObservabilitySnapshot,
    histogram_quantile,
    merge_snapshots,
    series_name,
)
from repro.obs.tracing import Span, trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "ObservabilitySnapshot",
    "Span",
    "histogram_quantile",
    "merge_snapshots",
    "series_name",
    "trace",
]
