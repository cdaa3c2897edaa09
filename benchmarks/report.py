"""Audit report for the batched reach-estimation pipeline.

Runs the macro experiments that dominate audit cost (Figures 1 and 2)
in two modes each -- plain (``batched``) and with a live tracer (the
``observed`` mode) -- and writes ``BENCH_audit.json`` at the
repository root recording, per experiment and mode:

* end-to-end wall time (best of ``--rounds`` cold runs, each on a
  fresh session so no caches leak between modes);
* simulated time on the transport's virtual clock (latency per HTTP
  round-trip, so batching shows up directly);
* HTTP request counts, and (observed mode) per route, read from the
  trace's ``transport.request`` events;
* per-interface query counts and rule-resolution memo hit rates;
* per-target estimate-cache hit rates;
* the observability overhead over the plain mode.

Both modes produce bit-identical audit records.  Usage::

    PYTHONPATH=src python benchmarks/report.py [--records N] [--rounds K]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro import build_audit_session
from repro.experiments import (
    ExperimentConfig,
    ExperimentContext,
    fig1_restricted,
    fig2_platforms,
)
from repro.obs import Tracer
from repro.obs.report import summarize

EXPERIMENTS = {
    "fig1_restricted": fig1_restricted.run,
    "fig2_platforms": fig2_platforms.run,
}

#: Interface keys -> attribute paths on the platform suite.
_INTERFACES = {
    "facebook": lambda suite: suite.facebook.normal,
    "facebook_restricted": lambda suite: suite.facebook.restricted,
    "google": lambda suite: suite.google.display,
    "linkedin": lambda suite: suite.linkedin.interface,
}


def _session_stats(ctx: ExperimentContext) -> dict:
    session = ctx.session
    targets = {}
    for key, target in session.targets.items():
        lookups = target.cache_hits + target.cache_misses
        targets[key] = {
            "cache_hits": target.cache_hits,
            "cache_misses": target.cache_misses,
            "cache_hit_rate": (
                round(target.cache_hits / lookups, 4) if lookups else None
            ),
            "cached_estimates": target.cache_size,
        }
    interfaces = {}
    for key, get in _INTERFACES.items():
        interface = get(session.suite)
        stats = interface.resolution_stats()
        resolved = stats["hits"] + stats["misses"]
        interfaces[key] = {
            "queries": interface.query_count,
            "resolution_hits": stats["hits"],
            "resolution_misses": stats["misses"],
            "resolution_hit_rate": (
                round(stats["hits"] / resolved, 4) if resolved else None
            ),
        }
    return {
        "http_requests": session.transport.total_requests,
        "virtual_seconds": round(session.transport.clock.now(), 2),
        "interfaces": interfaces,
        "targets": targets,
    }


def _context(
    records: int, observed: bool
) -> tuple[ExperimentContext, Tracer | None]:
    """A fresh cold context; ``observed`` injects a live tracer."""
    config = ExperimentConfig.small().with_records(records)
    if not observed:
        return ExperimentContext(config), None
    tracer = Tracer("bench")
    session = build_audit_session(
        n_records=config.n_records, seed=config.seed, tracer=tracer
    )
    return ExperimentContext(config, session=session), tracer


def _run_mode(run, records: int, rounds: int, observed: bool = False) -> dict:
    """Best-of-``rounds`` cold wall time plus final-round session stats.

    ``observed`` runs with a live tracer injected into the session --
    the "everything on" observability cost, which upper-bounds the
    no-op default path's -- and adds the trace's size and its
    per-route request counts.
    """
    best_wall = None
    for _ in range(rounds):
        ctx, tracer = _context(records, observed)
        start = time.perf_counter()
        run(ctx)
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
    stats = _session_stats(ctx)
    if tracer is not None:
        records_out = tracer.export()
        stats["trace"] = {
            "spans": len(records_out),
            "events": sum(len(r["events"]) for r in records_out),
        }
        queries = summarize({}, records_out)["queries"]
        stats["requests_per_route"] = queries["by_route"]
    return {"wall_seconds": round(best_wall, 3), **stats}


def _paired_obs_overhead(run, records: int, rounds: int) -> float:
    """Observability overhead from interleaved batched/observed rounds.

    Comparing walls measured minutes apart (as the per-mode bests are)
    lets system drift swamp sub-second runs; alternating the two modes
    round for round exposes both to the same drift, so the ratio of
    bests isolates what the live tracer actually costs.  At least five
    pairs are timed regardless of ``--rounds``.
    """
    best = {False: None, True: None}
    for _ in range(max(rounds, 5)):
        for observed in (False, True):
            ctx, _tracer = _context(records, observed)
            start = time.perf_counter()
            run(ctx)
            wall = time.perf_counter() - start
            if best[observed] is None or wall < best[observed]:
                best[observed] = wall
    return round(best[True] / best[False] - 1.0, 4)


def build_report(records: int, rounds: int) -> dict:
    report: dict = {
        "records_per_platform": records,
        "rounds_per_mode": rounds,
        "cpu_count": os.cpu_count(),
        "note": (
            "wall_seconds is the best of the cold rounds; batched and "
            "observed (live tracer) modes yield bit-identical audit records"
        ),
        "experiments": {},
    }
    for name, run in EXPERIMENTS.items():
        report["experiments"][name] = {
            "batched": _run_mode(run, records, rounds=rounds),
            # Batched with a live tracer: the cost of *enabled*
            # observability, an upper bound on what the default no-op
            # path adds (target: under 3%).
            "observed": _run_mode(run, records, rounds=rounds, observed=True),
            "obs_overhead": _paired_obs_overhead(run, records, rounds),
        }
    return report


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return number


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--records",
        type=_positive_int,
        default=30_000,
        help="simulated records per platform (default: bench scale, 30k)",
    )
    parser.add_argument(
        "--rounds",
        type=_positive_int,
        default=3,
        help="cold rounds per mode; best wall time is reported (default 3)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_audit.json",
        help="output path (default: BENCH_audit.json at the repo root)",
    )
    args = parser.parse_args()
    report = build_report(args.records, args.rounds)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for name, entry in report["experiments"].items():
        print(
            f"{name}: batched {entry['batched']['wall_seconds']}s, "
            f"{entry['batched']['http_requests']} requests; "
            f"obs overhead {entry['obs_overhead']:+.1%}"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
