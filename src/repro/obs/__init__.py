"""Deterministic observability: structured tracing.

This package is an island like :mod:`repro.analysis`: it imports
nothing from the rest of ``repro`` and every layer may import it.
The trace is the one record of what a run did: spans time the work
and events count it (one ``transport.request`` per platform query,
plus retry, breaker, fault, cache and checkpoint events).  Library
code receives its tracer by injection -- only composition roots
(CLIs, tests) construct one, a rule ``repro-lint`` enforces
(``obs/ambient-instrumentation``).
"""

from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer, structure

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "structure",
]
