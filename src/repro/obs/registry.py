"""Metrics registry: counters, gauges and fixed-bucket histograms.

A series is identified by a canonical name of the form
``metric{label=value,...}`` (labels sorted, see :func:`series_name`).
Instrument handles are cheap to fetch once and hold: components resolve
them at preparation time and call ``inc``/``set``/``observe`` on the hot
path.  The :class:`NullRegistry` hands out shared no-op instruments, so
instrumented code runs unchanged — and essentially for free — when
observability is off.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.obs.tracing import Span

#: default histogram bucket upper bounds for durations in seconds; the
#: final +Inf bucket is implicit.  Decades from 1µs to 10s cover both
#: per-tuple executor latencies and whole-window partitioning work.
DEFAULT_LATENCY_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: how many finished spans a registry retains (newest win)
SPAN_LIMIT = 1024


def series_name(metric: str, labels: Optional[dict] = None) -> str:
    """Canonical series name: ``metric{label=value,...}``, labels sorted."""
    if not labels:
        return metric
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{metric}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        """Keep the running maximum instead of the last write."""
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram with count / sum / min / max.

    ``buckets`` are upper bounds in ascending order; an implicit +Inf
    bucket catches everything above the last bound.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"histogram buckets must be strictly ascending: {buckets}")
        self.name = name
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile of the observed values (see
        :func:`histogram_quantile`)."""
        return histogram_quantile(self.as_dict(), q)

    def as_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
        }


def histogram_quantile(data: dict, q: float) -> Optional[float]:
    """Estimate the ``q``-quantile from a snapshot histogram dict.

    Works on the ``as_dict()`` shape (``buckets``/``counts``/``count``
    with the tracked ``min``/``max``), the only form available once a
    histogram has crossed a process boundary.  The target rank is
    located in the cumulative bucket counts and linearly interpolated
    within its bucket; the tracked min/max tighten the first and the
    +Inf bucket, so the estimate never leaves the observed value range.
    Returns ``None`` for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    count = data["count"]
    if not count:
        return None
    bounds = list(data["buckets"])
    observed_min = data.get("min")
    observed_max = data.get("max")
    target = q * count
    running = 0.0
    for i, bucket_count in enumerate(data["counts"]):
        if bucket_count and running + bucket_count >= target:
            if i == 0:
                lo = observed_min if observed_min is not None else 0.0
            else:
                lo = bounds[i - 1]
            if i < len(bounds):
                hi = bounds[i]
            else:  # the implicit +Inf bucket: the max bounds it
                hi = observed_max if observed_max is not None else bounds[-1]
            if observed_max is not None:
                hi = min(hi, observed_max)
            hi = max(hi, lo)
            fraction = max(0.0, target - running) / bucket_count
            return lo + (hi - lo) * min(1.0, fraction)
        running += bucket_count
    return observed_max  # pragma: no cover - float drift fallback


@dataclass
class ObservabilitySnapshot:
    """Everything a registry recorded, as JSON-serializable builtins."""

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
            "spans": [dict(s) for s in self.spans],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        import json

        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ObservabilitySnapshot":
        return cls(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            histograms={k: dict(v) for k, v in data.get("histograms", {}).items()},
            spans=[dict(s) for s in data.get("spans", [])],
        )

    def series(self) -> dict[str, object]:
        """All series flattened into one name → value/summary mapping."""
        flat: dict[str, object] = {}
        flat.update(self.counters)
        flat.update(self.gauges)
        for name, data in self.histograms.items():
            flat[name] = data
        return flat


def merge_snapshots(
    *snapshots: ObservabilitySnapshot, span_limit: int = SPAN_LIMIT
) -> ObservabilitySnapshot:
    """Combine snapshots recorded in separate address spaces.

    The process-parallel executor records metrics in every worker's own
    registry; merging them back yields one coherent view.  Semantics per
    instrument kind: counters and histogram contents *add*; gauges keep
    the **maximum** (every gauge the executors record is a high-water
    mark); spans concatenate, newest kept, capped at ``span_limit``.
    Histograms merged under the same name must share bucket bounds.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    spans: list[dict] = []
    for snap in snapshots:
        for name, value in snap.counters.items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.gauges.items():
            gauges[name] = max(gauges[name], value) if name in gauges else value
        for name, data in snap.histograms.items():
            if name not in histograms:
                histograms[name] = dict(data)
                histograms[name]["buckets"] = list(data["buckets"])
                histograms[name]["counts"] = list(data["counts"])
                continue
            merged = histograms[name]
            if list(merged["buckets"]) != list(data["buckets"]):
                raise ValueError(
                    f"histogram {name!r}: cannot merge differing buckets"
                )
            merged["counts"] = [
                a + b for a, b in zip(merged["counts"], data["counts"])
            ]
            merged["count"] += data["count"]
            merged["sum"] += data["sum"]
            mins = [v for v in (merged["min"], data["min"]) if v is not None]
            maxes = [v for v in (merged["max"], data["max"]) if v is not None]
            merged["min"] = min(mins) if mins else None
            merged["max"] = max(maxes) if maxes else None
            merged["mean"] = merged["sum"] / merged["count"] if merged["count"] else 0.0
        spans.extend(snap.spans)
    return ObservabilitySnapshot(
        counters=dict(sorted(counters.items())),
        gauges=dict(sorted(gauges.items())),
        histograms=dict(sorted(histograms.items())),
        spans=spans[-span_limit:],
    )


class MetricsRegistry:
    """Factory and store for metric instruments plus finished spans.

    Fetching the same ``(metric, labels)`` combination twice returns the
    same instrument, so components may resolve handles eagerly (hot
    paths) or lazily (control paths) as they prefer.
    """

    #: False only on :class:`NullRegistry`; hot paths branch on this once
    enabled: bool = True

    def __init__(self, span_limit: int = SPAN_LIMIT):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self.finished_spans: deque[Span] = deque(maxlen=span_limit)

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, metric: str, **labels) -> Counter:
        name = series_name(metric, labels)
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, metric: str, **labels) -> Gauge:
        name = series_name(metric, labels)
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self,
        metric: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels,
    ) -> Histogram:
        name = series_name(metric, labels)
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, buckets)
        return instrument

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def trace(self, name: str, **attributes) -> Span:
        """A context-manager span recorded into this registry on exit."""
        return Span(name, registry=self, attributes=attributes)

    def record_span(self, span: Span) -> None:
        """Called by :class:`~repro.obs.tracing.Span` on exit."""
        self.finished_spans.append(span)
        self.histogram(f"trace.{span.name}_seconds").observe(span.duration)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> ObservabilitySnapshot:
        """Freeze all recorded series into a serializable snapshot."""
        return ObservabilitySnapshot(
            counters={n: c.value for n, c in sorted(self._counters.items())},
            gauges={n: g.value for n, g in sorted(self._gauges.items())},
            histograms={
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
            spans=[s.as_dict() for s in self.finished_spans],
        )

    def reset(self) -> None:
        """Zero every instrument in place and drop the finished spans.

        A worker process calls this on the registry it inherited from
        the parent (by fork or in its pickled init) before it records
        anything, so its snapshot holds its own activity only; the
        instrument handles its tasks hold stay live.
        """
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0.0
        for histogram in self._histograms.values():
            histogram.counts = [0] * len(histogram.counts)
            histogram.count = 0
            histogram.sum = 0.0
            histogram.min = float("inf")
            histogram.max = float("-inf")
        self.finished_spans.clear()


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """No-op registry: the default when observability is off.

    Hands out shared no-op instruments and never retains spans, so
    instrumented code needs no conditionals beyond the single
    ``registry.enabled`` attribute lookup it may use to skip clock reads.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(span_limit=1)
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")
        self._null_span = Span("null", registry=None)

    def counter(self, metric: str, **labels) -> Counter:
        return self._null_counter

    def gauge(self, metric: str, **labels) -> Gauge:
        return self._null_gauge

    def histogram(
        self,
        metric: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._null_histogram

    def trace(self, name: str, **attributes) -> Span:
        return self._null_span

    def record_span(self, span: Span) -> None:
        pass

    def snapshot(self) -> ObservabilitySnapshot:
        return ObservabilitySnapshot()


#: process-wide no-op default handed to uninstrumented components
NULL_REGISTRY = NullRegistry()
