"""Deterministic structured tracing for the audit stack.

A :class:`Tracer` records a tree of named spans (``with tracer.span(
"audit.audit_many", target="facebook")``) whose timings come from
:func:`time.perf_counter` only -- never the wall clock -- and whose
*structure* (names, attributes, events, order) is a pure function of
the work performed.  Two identical runs therefore produce structurally
identical traces (compare with :func:`structure`), while the recorded
durations describe each run honestly.

Spans carry :class:`SpanEvent` records for the things the resilience
and chaos layers do between requests: retries and Retry-After
backoffs, circuit-breaker state transitions, injected chaos faults,
estimate-cache hits and misses, and checkpoint save/load.  One
``transport.request`` event is emitted per platform query, which is
what lets a trace *account* for a run: the event count equals the
transport's request counter exactly.

The default tracer everywhere is the :data:`NULL_TRACER` singleton: a
:class:`NullTracer` whose ``span``/``event`` calls are no-ops with
near-zero overhead, and whose ``enabled`` flag lets hot paths skip
even the keyword-argument packing.  Enabling tracing must never change
what a run computes -- instrumentation only observes, a contract the
differential tests enforce bit-for-bit.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "structure",
]


class Span:
    """One timed, named, attributed region of a trace tree."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "start",
        "end",
        "events",
        "children",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        attrs: dict[str, Any],
        start: float,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start = start
        self.end = start
        #: ``(name, t, attrs)`` triples in emission order.
        self.events: list[tuple[str, float, dict[str, Any]]] = []
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration not covered by child spans."""
        return self.duration - sum(child.duration for child in self.children)

    def to_record(self) -> dict[str, Any]:
        """Flat JSON-able form (children travel as separate records)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "attrs": dict(sorted(self.attrs.items())),
            "start": self.start,
            "end": self.end,
            "events": [
                {"name": name, "t": t, "attrs": dict(sorted(attrs.items()))}
                for name, t, attrs in self.events
            ],
        }

    def __repr__(self) -> str:
        return (
            f"<Span {self.span_id} {self.name!r} "
            f"{self.duration:.6f}s events={len(self.events)}>"
        )


class _SpanHandle:
    """Context manager closing one span; returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: object) -> bool:
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects a span tree; timings are perf_counter offsets.

    All times are seconds relative to the tracer's construction, so
    exported traces are small, mergeable floats rather than absolute
    host timestamps.  The tracer keeps an always-open root span; spans
    opened via :meth:`span` nest under the innermost open span, and
    :meth:`event` attaches to it.
    """

    enabled = True

    def __init__(self, name: str = "trace", **attrs: Any):
        self._t0 = perf_counter()
        self.root = Span(0, None, name, attrs, 0.0)
        self._next_id = 1
        self._stack: list[Span] = [self.root]

    def _now(self) -> float:
        return perf_counter() - self._t0

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a child span of the innermost open span."""
        parent = self._stack[-1]
        span = Span(self._next_id, parent.span_id, name, attrs, self._now())
        self._next_id += 1
        parent.children.append(span)
        self._stack.append(span)
        return _SpanHandle(self, span)

    def _close(self, span: Span) -> None:
        if self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed while {self._stack[-1].name!r} "
                "is still open"
            )
        span.end = self._now()
        self._stack.pop()

    def event(self, name: str, **attrs: Any) -> None:
        """Attach an event to the innermost open span."""
        self._stack[-1].events.append((name, self._now(), attrs))

    @property
    def current(self) -> Span:
        """The innermost open span (the root when none is open)."""
        return self._stack[-1]

    # -- export -------------------------------------------------------------

    def _walk(self) -> Iterator[Span]:
        stack = [self.root]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def export(self) -> list[dict[str, Any]]:
        """Every span as a flat record, in pre-order.

        Open spans (including the root) export with ``end`` set to the
        current offset, without being closed.
        """
        now = self._now()
        records = []
        for span in self._walk():
            record = span.to_record()
            if span in self._stack:
                record["end"] = now
            records.append(record)
        return records

    def event_counts(self) -> dict[str, int]:
        """Event occurrences by name across the whole trace."""
        counts: dict[str, int] = {}
        for span in self._walk():
            for name, _t, _attrs in span.events:
                counts[name] = counts.get(name, 0) + 1
        return dict(sorted(counts.items()))

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the trace as JSONL: one meta line, then one span per line."""
        target = Path(path)
        records = self.export()
        events = sum(len(record["events"]) for record in records)
        lines = [
            json.dumps(
                {
                    "meta": {
                        "version": 1,
                        "name": self.root.name,
                        "spans": len(records),
                        "events": events,
                    }
                },
                sort_keys=True,
            )
        ]
        lines.extend(json.dumps(record, sort_keys=True) for record in records)
        target.write_text("\n".join(lines) + "\n")
        return target

    def __repr__(self) -> str:
        return (
            f"<Tracer {self.root.name!r} spans={self._next_id} "
            f"open={len(self._stack)}>"
        )


class _NullSpanHandle:
    """Shared no-op context manager; one instance serves every call."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpanHandle()


class NullTracer:
    """No-op tracer with the :class:`Tracer` surface.

    ``enabled`` is ``False`` so hot paths can skip building keyword
    arguments entirely; calls that do land here return immediately.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpanHandle:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def event_counts(self) -> dict[str, int]:
        return {}

    def __repr__(self) -> str:
        return "<NullTracer>"


#: Shared default: injected wherever no real tracer was supplied.
NULL_TRACER = NullTracer()


def structure(records: Sequence[Mapping[str, Any]]) -> tuple:
    """Timing-free shape of an exported trace, for equality checks.

    Returns a nested tuple of ``(name, attrs, events, children)``
    mirroring the span tree: identical runs must produce equal
    structures even though their perf-counter timings differ.
    """
    children: dict[int | None, list[Mapping[str, Any]]] = {}
    for record in records:
        children.setdefault(record["parent"], []).append(record)

    def shape(record: Mapping[str, Any]) -> tuple:
        return (
            record["name"],
            tuple(sorted((k, v) for k, v in record["attrs"].items())),
            tuple(
                (e["name"], tuple(sorted((k, v) for k, v in e["attrs"].items())))
                for e in record["events"]
            ),
            tuple(shape(c) for c in children.get(record["id"], [])),
        )

    return tuple(shape(record) for record in children.get(None, []))
