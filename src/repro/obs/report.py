"""``repro-trace``: summarize a JSONL trace written by ``--trace``.

Reads the export format of :meth:`repro.obs.trace.Tracer.write_jsonl`
(one meta line, then one flat span record per line) and prints the
numbers a run post-mortem needs: top spans by aggregate self-time,
platform query counts by interface, and retry / fault / breaker /
cache / checkpoint event totals.  ``--format json`` emits the same
summary as a machine-readable object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = ["load_trace", "main", "summarize"]

#: Keys every span record carries (see ``Span.to_record``).
SPAN_KEYS = ("id", "parent", "name", "start", "end", "events")


def load_trace(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Parse a JSONL trace into its meta header and span records.

    Raises :class:`ValueError` for a line that is not a JSON object, for
    a span record missing one of :data:`SPAN_KEYS`, and for a file
    without the meta header line, an empty file among them.
    """
    meta: dict[str, Any] | None = None
    records: list[dict[str, Any]] = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{number}: not JSON ({exc.msg})") from None
        if not isinstance(payload, dict):
            raise ValueError(f"{path}:{number}: not a JSON object")
        if "meta" in payload and "id" not in payload:
            meta = payload["meta"]
            continue
        missing = [key for key in SPAN_KEYS if key not in payload]
        if missing:
            raise ValueError(
                f"{path}:{number}: span record without {', '.join(missing)}"
            )
        records.append(payload)
    if meta is None:
        raise ValueError(f"{path}: no meta line; not a repro-audit trace")
    return meta, records


def summarize(
    meta: Mapping[str, Any], records: Sequence[Mapping[str, Any]]
) -> dict[str, Any]:
    """Aggregate spans and events into the report payload."""
    child_time: dict[int, float] = {}
    for record in records:
        parent = record["parent"]
        if parent is not None:
            child_time[parent] = (
                child_time.get(parent, 0.0) + record["end"] - record["start"]
            )

    spans: dict[str, dict[str, float]] = {}
    events: dict[str, int] = {}
    queries: dict[str, int] = {}
    injected = 0
    for record in records:
        duration = record["end"] - record["start"]
        agg = spans.setdefault(
            record["name"], {"count": 0, "total": 0.0, "self": 0.0}
        )
        agg["count"] += 1
        agg["total"] += duration
        # Children's durations are rounded separately, so their sum can
        # pass the parent's by a few ulps; clamp that to zero.
        agg["self"] += max(0.0, duration - child_time.get(record["id"], 0.0))
        for event in record["events"]:
            # Coalesced events (cache hits/misses) carry how many
            # occurrences they stand for in a ``count`` attribute.
            weight = event["attrs"].get("count", 1)
            events[event["name"]] = events.get(event["name"], 0) + weight
            if event["name"] == "transport.request":
                attrs = event["attrs"]
                key = f"{attrs.get('platform', '?')}/{attrs.get('endpoint', '?')}"
                queries[key] = queries.get(key, 0) + 1
                if attrs.get("injected"):
                    injected += 1

    return {
        "meta": dict(meta),
        "spans": {
            name: {
                "count": int(agg["count"]),
                "total": round(agg["total"], 6),
                "self": round(agg["self"], 6),
            }
            for name, agg in sorted(spans.items())
        },
        "events": dict(sorted(events.items())),
        "queries": {
            "total": sum(queries.values()),
            "injected_faults": injected,
            "by_route": dict(sorted(queries.items())),
        },
    }


def render(summary: Mapping[str, Any], top: int = 10) -> str:
    """Human-readable report for a summarized trace."""
    meta = summary["meta"]
    lines = [
        f"trace {meta.get('name', '?')!r}: "
        f"{meta.get('spans', '?')} spans, {meta.get('events', '?')} events",
        "",
        f"top {top} spans by self-time:",
    ]
    ranked = sorted(
        summary["spans"].items(), key=lambda item: (-item[1]["self"], item[0])
    )
    for name, agg in ranked[:top]:
        lines.append(
            f"  {agg['self']:>10.4f}s self  {agg['total']:>10.4f}s total  "
            f"x{agg['count']:<6} {name}"
        )

    queries = summary["queries"]
    lines += ["", f"platform queries: {queries['total']}"]
    if queries["injected_faults"]:
        lines.append(f"  injected faults: {queries['injected_faults']}")
    for route, count in queries["by_route"].items():
        lines.append(f"  {route}: {count}")

    interesting = {
        "retry.backoff": "retries",
        "retry.after": "retry-after waits",
        "breaker.wait": "breaker waits",
        "breaker.transition": "breaker transitions",
        "chaos.fault": "chaos faults",
        "cache.hit": "cache hits",
        "cache.miss": "cache misses",
        "checkpoint.save": "checkpoint saves",
        "checkpoint.load": "checkpoint loads",
    }
    shown = [
        (label, summary["events"][name])
        for name, label in interesting.items()
        if name in summary["events"]
    ]
    if shown:
        lines.append("")
        lines.append("resilience events:")
        for label, count in shown:
            lines.append(f"  {label}: {count}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Summarize a JSONL trace written by repro-audit --trace.",
    )
    parser.add_argument("trace", help="path to the .jsonl trace file")
    parser.add_argument(
        "--top", type=int, default=10, help="span rows to show (default 10)"
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default human)",
    )
    args = parser.parse_args(argv)

    path = Path(args.trace)
    if not path.exists():
        print(f"repro-trace: no such file: {path}", file=sys.stderr)
        return 2
    try:
        meta, records = load_trace(path)
    except ValueError as exc:
        print(f"repro-trace: {exc}", file=sys.stderr)
        return 2
    summary = summarize(meta, records)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render(summary, top=args.top))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
