"""Deterministic counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` aggregates what a run *did* -- queries per
interface, retries per fault kind, cache hits per target, batch sizes
-- keyed by metric name plus a sorted label set.  Scoped labels
(:meth:`MetricsRegistry.scope`) let the experiment runner stamp every
metric recorded inside an experiment with ``experiment=<name>``, so
aggregation lands per platform x interface x experiment without any
seam knowing which experiment is running.

Nothing here reads a clock: histogram buckets are fixed boundaries
chosen up front, and every observed value comes from the caller
(virtual-clock durations, batch sizes, counts).  Identical runs
produce identical exports.

The default everywhere is the :data:`NULL_METRICS` singleton, a
:class:`NullMetrics` whose methods are no-ops; hot paths check
``metrics.enabled`` before packing labels.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "DURATION_BUCKETS",
    "COUNT_BUCKETS",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
]

#: Fixed histogram boundaries for virtual-clock durations (seconds).
DURATION_BUCKETS: tuple[float, ...] = (
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
    300.0,
)

#: Fixed histogram boundaries for sizes and counts (batch sizes, retries).
COUNT_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 500)

#: Label key/value pairs, sorted -- the canonical series identity.
_LabelKey = tuple[tuple[str, str], ...]


class _Scope:
    """Context manager pushing ambient labels onto a registry."""

    __slots__ = ("_registry", "_labels")

    def __init__(self, registry: "MetricsRegistry", labels: _LabelKey):
        self._registry = registry
        self._labels = labels

    def __enter__(self) -> "MetricsRegistry":
        self._registry._scopes.append(self._labels)
        return self._registry

    def __exit__(self, *exc: object) -> bool:
        self._registry._scopes.pop()
        return False


class MetricsRegistry:
    """Counters, gauges, and fixed-bucket histograms with labels."""

    enabled = True

    def __init__(
        self, buckets: Mapping[str, Sequence[float]] | None = None
    ):
        self._counters: dict[tuple[str, _LabelKey], float] = {}
        self._gauges: dict[tuple[str, _LabelKey], float] = {}
        #: histogram key -> [bucket counts (len boundaries + 1), count, sum]
        self._histograms: dict[tuple[str, _LabelKey], list] = {}
        self._buckets: dict[str, tuple[float, ...]] = {
            name: tuple(bounds) for name, bounds in (buckets or {}).items()
        }
        self._scopes: list[_LabelKey] = []

    # -- label plumbing -----------------------------------------------------

    def _key(self, name: str, labels: dict[str, Any]) -> tuple[str, _LabelKey]:
        items: dict[str, str] = {}
        for scope in self._scopes:
            items.update(scope)
        for key, value in labels.items():
            items[key] = str(value)
        return name, tuple(sorted(items.items()))

    def scope(self, **labels: Any) -> _Scope:
        """Ambient labels applied to everything recorded inside."""
        return _Scope(
            self, tuple(sorted((k, str(v)) for k, v in labels.items()))
        )

    def bucket_bounds(self, name: str) -> tuple[float, ...]:
        """Histogram boundaries for a metric (duration defaults)."""
        return self._buckets.get(name, DURATION_BUCKETS)

    def register_buckets(self, name: str, bounds: Sequence[float]) -> None:
        """Pin a histogram's fixed boundaries (before first observe)."""
        self._buckets[name] = tuple(bounds)

    # -- recording ----------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = self._key(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self._gauges[self._key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = self._key(name, labels)
        # Pin the boundaries on first observe: the series' bucket count
        # is fixed from here on.
        bounds = self._buckets.setdefault(name, DURATION_BUCKETS)
        series = self._histograms.get(key)
        if series is None:
            series = self._histograms[key] = [[0] * (len(bounds) + 1), 0, 0.0]
        series[0][bisect_right(bounds, value)] += 1
        series[1] += 1
        series[2] += value

    # -- access -------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        """One counter series' value (0.0 when never incremented)."""
        return self._counters.get(self._key(name, labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across every label combination."""
        return sum(
            value
            for (metric, _labels), value in self._counters.items()
            if metric == name
        )

    # -- export ---------------------------------------------------------------

    def export(self) -> dict[str, Any]:
        """Sorted, JSON-ready snapshot of every series."""
        return {
            "counters": [
                [name, [list(pair) for pair in labels], value]
                for (name, labels), value in sorted(self._counters.items())
            ],
            "gauges": [
                [name, [list(pair) for pair in labels], value]
                for (name, labels), value in sorted(self._gauges.items())
            ],
            "histograms": [
                [
                    name,
                    [list(pair) for pair in labels],
                    {
                        "bounds": list(self.bucket_bounds(name)),
                        "buckets": list(series[0]),
                        "count": series[1],
                        "sum": series[2],
                    },
                ]
                for (name, labels), series in sorted(self._histograms.items())
            ],
        }

    # -- rendering ----------------------------------------------------------

    def _lines(self) -> Iterator[str]:
        def shown(labels: _LabelKey) -> str:
            return (
                "{" + ", ".join(f"{k}={v}" for k, v in labels) + "}"
                if labels
                else ""
            )

        if self._counters:
            yield "counters:"
            for (name, labels), value in sorted(self._counters.items()):
                yield f"  {name}{shown(labels)} = {value:g}"
        if self._gauges:
            yield "gauges:"
            for (name, labels), value in sorted(self._gauges.items()):
                yield f"  {name}{shown(labels)} = {value:g}"
        if self._histograms:
            yield "histograms:"
            for (name, labels), series in sorted(self._histograms.items()):
                mean = series[2] / series[1] if series[1] else 0.0
                yield (
                    f"  {name}{shown(labels)} count={series[1]} "
                    f"sum={series[2]:g} mean={mean:g}"
                )

    def render(self) -> str:
        """Human-readable metrics dump (the ``--metrics`` output)."""
        lines = list(self._lines())
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )


class _NullScope:
    """Shared no-op scope context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class NullMetrics:
    """No-op registry with the :class:`MetricsRegistry` surface."""

    enabled = False

    def scope(self, **labels: Any) -> _NullScope:
        return _NULL_SCOPE

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        return None

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        return None

    def observe(self, name: str, value: float, **labels: Any) -> None:
        return None

    def counter_value(self, name: str, **labels: Any) -> float:
        return 0.0

    def counter_total(self, name: str) -> float:
        return 0.0

    def render(self) -> str:
        return "(metrics disabled)"

    def __repr__(self) -> str:
        return "<NullMetrics>"


#: Shared default: injected wherever no real registry was supplied.
NULL_METRICS = NullMetrics()
