"""Deterministic observability: structured tracing and metrics.

This package is an island like :mod:`repro.analysis`: it imports
nothing from the rest of ``repro`` and every layer may import it.
Library code receives tracers and registries by injection -- only
composition roots (CLIs, tests) construct them, a rule
``repro-lint`` enforces (``obs/ambient-instrumentation``).
"""

from repro.obs.metrics import (
    COUNT_BUCKETS,
    DURATION_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer, structure

__all__ = [
    "COUNT_BUCKETS",
    "DURATION_BUCKETS",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "Span",
    "Tracer",
    "structure",
]
