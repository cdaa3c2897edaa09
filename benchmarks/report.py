"""Audit report for the batched reach-estimation pipeline.

Runs the macro experiments that dominate audit cost (Figures 1 and 2)
in three modes each -- plain (``batched``), through a calm
:class:`~repro.api.chaos.ChaosTransport` with circuit breakers (the
"resilient" mode, measuring what the resilience layer costs when no
faults fire), and with a live tracer and metrics registry (the
"observed" mode) -- and writes ``BENCH_audit.json`` at the repository
root recording, per experiment and mode:

* end-to-end wall time (best of ``--rounds`` cold runs, each on a
  fresh session so no caches leak between modes);
* simulated time on the transport's virtual clock (latency per HTTP
  round-trip, so batching shows up directly);
* HTTP request counts, total and per route;
* per-interface query counts and rule-resolution memo hit rates;
* per-target estimate-cache hit rates;
* the resilience and observability overheads over the plain mode.

All modes produce bit-identical audit records.  Usage::

    PYTHONPATH=src python benchmarks/report.py [--records N] [--rounds K]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro import build_audit_session
from repro.analysis import all_project_rules, all_rules, json_payload, run_lint
from repro.experiments import (
    ExperimentConfig,
    ExperimentContext,
    fig1_restricted,
    fig2_platforms,
)
from repro.obs import MetricsRegistry, Tracer

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
    routes = {
        route: counters["requests"]
        for route, counters in session.transport.stats().items()
        if counters["requests"]
    }
    return {
        "http_requests": session.transport.total_requests,
        "virtual_seconds": round(session.transport.clock.now(), 2),
        "interfaces": interfaces,
        "targets": targets,
        "requests_per_route": routes,
    }


def _run_mode(
    run,
    records: int,
    rounds: int,
    chaos: str | None = None,
    observed: bool = False,
) -> dict:
    """Best-of-``rounds`` cold wall time plus final-round session stats.

    ``observed`` runs with a live tracer and metrics registry injected
    into the session -- the "everything on" observability cost, which
    upper-bounds the no-op default path's.
    """
    best_wall = None
    stats = None
    obs_stats = None
    for _ in range(rounds):
        config = ExperimentConfig.small().with_records(records)
        if chaos is not None or observed:
            tracer = Tracer("bench") if observed else None
            metrics = MetricsRegistry() if observed else None
            session = build_audit_session(
                n_records=config.n_records,
                seed=config.seed,
                chaos=chaos,
                tracer=tracer,
                metrics=metrics,
            )
            ctx = ExperimentContext(config, session=session)
        else:
            ctx = ExperimentContext(config)
        start = time.perf_counter()
        run(ctx)
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
        stats = _session_stats(ctx)
        if observed:
            records_out = tracer.export()
            obs_stats = {
                "spans": len(records_out),
                "events": sum(len(r["events"]) for r in records_out),
            }
    if obs_stats is not None:
        stats = {**stats, "trace": obs_stats}
    return {"wall_seconds": round(best_wall, 3), **stats}


def _paired_obs_overhead(run, records: int, rounds: int) -> float:
    """Observability overhead from interleaved batched/observed rounds.

    Comparing walls measured minutes apart (as the per-mode bests are)
    lets system drift swamp sub-second runs; alternating the two modes
    round for round exposes both to the same drift, so the ratio of
    bests isolates what the live tracer + metrics registry actually
    cost.  At least five pairs are timed regardless of ``--rounds``.
    """
    best = {False: None, True: None}
    for _ in range(max(rounds, 5)):
        for observed in (False, True):
            config = ExperimentConfig.small().with_records(records)
            if observed:
                session = build_audit_session(
                    n_records=config.n_records,
                    seed=config.seed,
                    tracer=Tracer("bench"),
                    metrics=MetricsRegistry(),
                )
                ctx = ExperimentContext(config, session=session)
            else:
                ctx = ExperimentContext(config)
            start = time.perf_counter()
            run(ctx)
            wall = time.perf_counter() - start
            if best[observed] is None or wall < best[observed]:
                best[observed] = wall
    return round(best[True] / best[False] - 1.0, 4)


def _lint_audit() -> dict:
    """``repro-lint --format json`` over ``src/``, for drift tracking.

    Recording the rule counts and analyzer wall time next to the perf
    numbers means a PR that slows the linter down or starts leaning on
    suppressions/baseline entries shows up in the same diff as its
    benchmark deltas.
    """
    repo_root = Path(__file__).resolve().parent.parent
    rules = all_rules() + all_project_rules()
    lint_report, wall = run_lint([repo_root / "src"], rules=rules, root=repo_root)
    return json_payload(lint_report, rules, wall)


def build_report(
    records: int,
    rounds: int,
    baselines: dict[str, float] | None = None,
    baseline_ref: str | None = None,
) -> dict:
    report: dict = {
        "records_per_platform": records,
        "rounds_per_mode": rounds,
        "cpu_count": os.cpu_count(),
        "note": (
            "wall_seconds is the best of the cold rounds; batched, "
            "resilient (calm chaos transport + circuit breakers) and "
            "observed (live tracer + metrics registry) modes yield "
            "bit-identical audit records"
        ),
        "experiments": {},
        "lint": _lint_audit(),
    }
    baselines = baselines or {}
    for name, run in EXPERIMENTS.items():
        batched = _run_mode(run, records, rounds=rounds)
        # Batched plus the full resilience layer on a calm chaos
        # transport: what retries/breakers/fault bookkeeping cost when
        # nothing actually goes wrong (target: under 5%).
        resilient = _run_mode(run, records, rounds=rounds, chaos="calm")
        # Batched with a live tracer + metrics registry: the cost of
        # *enabled* observability, an upper bound on what the default
        # no-op path adds (target: under 3%).
        observed = _run_mode(run, records, rounds=rounds, observed=True)
        entry = {
            "batched": batched,
            "resilient": resilient,
            "observed": observed,
            "resilience_overhead": round(
                resilient["wall_seconds"] / batched["wall_seconds"] - 1.0, 4
            ),
            "obs_overhead": _paired_obs_overhead(run, records, rounds),
        }
        if name in baselines:
            entry["baseline"] = {
                "ref": baseline_ref,
                "wall_seconds": baselines[name],
                "wall_speedup": round(
                    baselines[name] / batched["wall_seconds"], 2
                ),
            }
        report["experiments"][name] = entry
    return report


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return number


def _baseline_entry(value: str) -> tuple[str, float]:
    name, sep, seconds = value.partition("=")
    try:
        if not sep or not name:
            raise ValueError
        return name, float(seconds)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected EXPERIMENT=SECONDS, got {value!r}"
        ) from None


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
    parser.add_argument(
        "--baseline",
        action="append",
        type=_baseline_entry,
        default=[],
        metavar="EXPERIMENT=SECONDS",
        help=(
            "externally measured wall time of another revision to record "
            "a speedup against (repeatable)"
        ),
    )
    parser.add_argument(
        "--baseline-ref",
        default=None,
        help="label for the baseline revision (e.g. a commit hash)",
    )
    args = parser.parse_args()
    report = build_report(
        args.records, args.rounds, dict(args.baseline), args.baseline_ref
    )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for name, entry in report["experiments"].items():
        print(
            f"{name}: batched {entry['batched']['wall_seconds']}s, "
            f"{entry['batched']['http_requests']} requests; "
            f"resilience overhead {entry['resilience_overhead']:+.1%}; "
            f"obs overhead {entry['obs_overhead']:+.1%}"
        )
    lint = report["lint"]
    print(
        f"lint: {lint['files']} files, {sum(lint['rules'].values())} "
        f"finding(s), {lint['suppressed']} suppressed, "
        f"{lint['wall_seconds']}s "
        f"(interprocedural {lint['interprocedural_seconds']}s)"
    )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
