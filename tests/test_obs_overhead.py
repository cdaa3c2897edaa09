"""Tracing-cost gate: a deterministic model of what tracing costs a run.

Tracing must cost a run under 3% of its CPU time.  A wall-clock
comparison of a traced and an untraced run cannot resolve 3% on a
shared machine, so the gate models the cost instead::

    cost  = spans x per-span CPU + events x per-event CPU
    ratio = cost / (run CPU - cost)

The span and event counts come from the trace of the golden tiny run
(the session fixture ``traced_tiny_run``) and are a pure function of
the code.  The unit costs are ``time.process_time`` readings: the
median of 5 loops of 20,000 ``Tracer.span`` (then ``Tracer.event``)
calls with one attribute.  A change that adds a span or an event per
query, or makes either call slower, moves the ratio; machine noise
moves only the unit costs, by a fraction of themselves.

The same traced run is also held to the requests of an untraced one:
route by route, it sends what the golden wire digests record, which
the untraced second-``PYTHONHASHSEED`` run of ``tests/test_golden.py``
is held to as well.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.obs import Tracer
from tests.test_golden import GOLDEN, WIRE

#: Largest share of a run's CPU time that tracing may cost.
BOUND = 0.03
LOOP = 20_000
REPEATS = 5


def _span(tracer: Tracer) -> None:
    with tracer.span("unit.span", key=1):
        pass


def _event(tracer: Tracer) -> None:
    tracer.event("unit.event", key=1)


def unit_cpu(record) -> float:
    """Median CPU seconds of one ``record(tracer)`` call."""
    samples = []
    for _ in range(REPEATS):
        tracer = Tracer("unit")
        started = time.process_time()
        for _ in range(LOOP):
            record(tracer)
        samples.append((time.process_time() - started) / LOOP)
    return statistics.median(samples)


def trace_counts(tracer: Tracer) -> tuple[int, int]:
    """``(spans, events)`` recorded by a tracer, its root span included."""
    records = tracer.export()
    return len(records), sum(len(record["events"]) for record in records)


def test_traced_tiny_run_records_spans_and_events(traced_tiny_run):
    spans, events = trace_counts(traced_tiny_run.tracer)
    assert spans > 1 and events > 0
    # The trace accounts for every request the run sent.
    assert traced_tiny_run.tracer.event_counts()["transport.request"] == sum(
        route["requests"] for route in traced_tiny_run.wire.values()
    )


def test_observed_mode_issued_the_same_queries(traced_tiny_run):
    # Whole-registry differential: tracing everything changed nothing
    # about what the run asked the platforms.  The virtual clock is
    # compared live on fig2 in tests/test_obs_differential.py.
    def requests(wire):
        return {route: entry["requests"] for route, entry in wire.items()}

    untraced = requests(json.loads(WIRE.read_text()))
    assert requests(traced_tiny_run.wire) == untraced
    assert sum(untraced.values()) == json.loads(GOLDEN.read_text())[
        "total_api_requests"
    ]


def test_tracing_cost_model_is_under_three_percent(traced_tiny_run):
    spans, events = trace_counts(traced_tiny_run.tracer)
    per_span, per_event = unit_cpu(_span), unit_cpu(_event)
    cost = spans * per_span + events * per_event
    ratio = cost / (traced_tiny_run.cpu_s - cost)
    assert ratio < BOUND, (
        f"tracing costs {ratio:.2%} of the run (budget: under {BOUND:.0%}): "
        f"{spans} spans x {per_span * 1e6:.2f} us + {events} events x "
        f"{per_event * 1e6:.2f} us over {traced_tiny_run.cpu_s:.2f} s of CPU"
    )
