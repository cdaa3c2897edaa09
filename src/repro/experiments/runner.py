"""Run-everything experiment runner and CLI (``repro-audit``).

Runs each experiment against one shared :class:`ExperimentContext`
(so size queries are reused across figures, as in the paper), collects
the rendered reports, and optionally writes them to a file.

Runs survive hostile platforms: ``--chaos PROFILE`` injects a named
fault profile (throttle storms, 5xx bursts, resets, timeouts,
truncated batches) which the clients' resilience layer absorbs, and
``--checkpoint PATH`` saves every completed size estimate when the
run ends, also by an exception, so a killed run resumes without
re-querying -- output stays bit-identical either way.  ``--trace
PATH`` records what the run did as a JSONL trace (one span per
experiment, one event per platform query, retry, fault and cache
hit), which ``repro-trace`` summarizes.

CLI usage::

    repro-audit --scale small
    repro-audit --scale full --out results.txt
    repro-audit --only fig1 table1 --records 60000
    repro-audit --chaos storm --checkpoint run.ckpt.json
    repro-audit --only fig2 --trace run.jsonl
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import build_audit_session
from repro.api.chaos import FAULT_PROFILES, FaultProfile
from repro.core.checkpoint import EstimateCheckpoint
from repro.experiments import (
    ext_lookalike,
    ext_mitigation,
    fig1_restricted,
    fig2_platforms,
    fig3_removal,
    fig4_ages,
    fig5_recall,
    fig6_removal_ages,
    methodology,
    table1_overlap,
    tables23_examples,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.obs import NULL_TRACER, Tracer

__all__ = ["EXPERIMENTS", "RunReport", "run_all", "main"]

#: Experiment registry: name -> (paper artifact, runner callable).
EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "fig1": ("Figure 1 (FB-restricted distributions)", fig1_restricted.run),
    "fig2": ("Figure 2 (cross-platform distributions)", fig2_platforms.run),
    "fig3": ("Figure 3 (removal sweep, gender)", fig3_removal.run),
    "fig4": ("Figure 4 (age-range distributions)", fig4_ages.run),
    "fig5": ("Figure 5 (recall distributions)", fig5_recall.run),
    "fig6": ("Figure 6 (removal sweeps, ages)", fig6_removal_ages.run),
    "table1": ("Table 1 (overlap / union recall)", table1_overlap.run),
    "tables23": ("Tables 2-3 (illustrative compositions)", tables23_examples.run),
    "methodology": ("Section 3 (size-estimate studies)", methodology.run),
    "ext_lookalike": (
        "Extension (lookalike vs special ad audience)",
        ext_lookalike.run,
    ),
    "ext_mitigation": (
        "Extension (outcome-based vs removal mitigation)",
        ext_mitigation.run,
    ),
}


@dataclass
class RunReport:
    """Results and timings of one full experiment run."""

    config: ExperimentConfig
    results: dict[str, object] = field(default_factory=dict)
    durations: dict[str, float] = field(default_factory=dict)
    total_api_requests: int = 0
    #: End-to-end wall time of the run, including session build.
    total_wall: float = 0.0

    def render(self) -> str:
        parts = [
            "Reproduction run — 'On the Potential for Discrimination via "
            "Composition' (IMC 2020)",
            f"records/platform={self.config.n_records:,} "
            f"compositions/set={self.config.n_compositions} "
            f"seed={self.config.seed}",
            "",
        ]
        for name, result in self.results.items():
            title, _ = EXPERIMENTS[name]
            header = f"== {name}: {title} ({self.durations[name]:.1f}s) =="
            parts += [header, result.render(), ""]
        parts.append(
            f"Total simulated API requests: {self.total_api_requests:,} "
            "(paper: 80,000+ per platform)"
        )
        parts.append(f"Total wall time: {self.total_wall:.1f}s")
        return "\n".join(parts)


@contextmanager
def _collect_at_boundaries(tracer) -> Iterator[Callable[[str], None]]:
    """Own the cyclic collector for one run; yield its boundary hook.

    An audit's heap is an append-only cache (every spec it sized, every
    estimate), so automatic collections would re-walk it over and over.
    When the collector is on CPython's defaults, automatic collection is
    off for the whole run and ``boundary(after)`` collects once and
    freezes the survivors, so later collections skip them.  Reference
    counting still frees acyclic garbage at once.  A caller who set the
    collector up otherwise keeps it untouched: the hook does nothing.
    """
    if not (gc.isenabled() and gc.get_freeze_count() == 0):
        yield lambda after: None
        return

    def boundary(after: str) -> None:
        with tracer.span("gc.collect", after=after):
            gc.collect()
            gc.freeze()

    gc.disable()
    try:
        yield boundary
    finally:
        gc.unfreeze()
        gc.enable()


def run_all(
    config: ExperimentConfig | None = None,
    only: list[str] | None = None,
    context: ExperimentContext | None = None,
    verbose: bool = False,
    chaos: FaultProfile | str | None = None,
    chaos_seed: int = 1031,
    checkpoint: EstimateCheckpoint | None = None,
    tracer=None,
) -> RunReport:
    """Run the selected experiments over one shared context.

    ``tracer`` (see :mod:`repro.obs`) is threaded into the session
    build and wraps each experiment in an ``experiment.<name>`` span,
    so every event the run records -- one ``transport.request`` per
    platform query among them -- nests under the experiment that
    caused it.  When an explicit ``context`` is supplied it defaults to
    its session's tracer, so a caller who built a traced session gets
    experiment spans without passing the tracer twice.  Tracing never
    changes what a run computes.

    ``chaos`` builds the session over a fault-injecting transport (by
    profile or name from :data:`FAULT_PROFILES`); ignored when an
    explicit ``context`` is supplied.  ``checkpoint`` is attached to
    every audit target and, if it has a path, saved once, when the run
    ends: completed size estimates persist even when an
    experiment raises mid-run -- e.g. an exhausted circuit breaker
    during an outage -- and a re-run with the same checkpoint resumes
    without re-issuing them, producing bit-identical output.

    The cyclic collector runs only at stage boundaries: once after the
    session build (inside the first experiment's span, before its
    timer) and once after each experiment (inside its span, outside
    ``durations``), each a ``gc.collect`` span; see
    :func:`_collect_at_boundaries`.
    """
    config = config or ExperimentConfig.full()
    names = list(only or EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")
    if context is not None and tracer is None:
        tracer = context.session.tracer
    tracer = tracer if tracer is not None else NULL_TRACER
    with _collect_at_boundaries(tracer) as boundary:
        started_wall = time.perf_counter()
        ctx = context or ExperimentContext(
            config,
            session=build_audit_session(
                n_records=config.n_records,
                seed=config.seed,
                chaos=chaos,
                chaos_seed=chaos_seed,
                tracer=tracer,
            ),
        )

        if checkpoint is not None:
            if verbose and len(checkpoint):
                print(
                    f"resuming from checkpoint: {len(checkpoint):,} estimates",
                    file=sys.stderr,
                    flush=True,
                )
            for target in ctx.session.targets.values():
                target.attach_checkpoint(checkpoint)

        report = RunReport(config=ctx.config)
        try:
            for index, name in enumerate(names):
                title, runner = EXPERIMENTS[name]
                if verbose:
                    print(
                        f"running {name}: {title} ...", file=sys.stderr, flush=True
                    )
                with tracer.span(f"experiment.{name}"):
                    if index == 0:
                        # Kept under an experiment span: the trace root
                        # holds experiment spans only.
                        boundary("session")
                    started = time.perf_counter()
                    report.results[name] = runner(ctx)
                    report.durations[name] = time.perf_counter() - started
                    boundary(name)
        finally:
            # Persist whatever completed, even when an experiment raised --
            # that is the whole point of the checkpoint.
            if checkpoint is not None and checkpoint.path is not None:
                checkpoint.save()
                if tracer.enabled:
                    tracer.event("checkpoint.save", entries=len(checkpoint))
        report.total_api_requests = ctx.session.total_api_requests()
        report.total_wall = time.perf_counter() - started_wall
        return report


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse ``type`` for integers no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {minimum}, got {value}"
            )
        return value

    parse.__name__ = "integer"
    return parse


def _serial_jobs(text: str) -> int:
    """argparse ``type`` for ``--jobs``: only a serial run remains."""
    if text.strip() != "1":
        raise argparse.ArgumentTypeError(
            f"parallel execution was removed; only 1 is accepted, got {text!r}"
        )
    return 1


def main(argv: list[str] | None = None) -> int:
    """``repro-audit`` console entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-audit",
        description=(
            "Regenerate the figures and tables of 'On the Potential for "
            "Discrimination via Composition' against the simulated platforms."
        ),
    )
    parser.add_argument(
        "--scale",
        choices=("full", "small", "tiny"),
        default="small",
        help="experiment scale preset (default: small)",
    )
    parser.add_argument(
        "--records",
        type=_int_at_least(1),
        default=None,
        help="override records/platform",
    )
    parser.add_argument(
        "--seed", type=_int_at_least(0), default=None, help="override the root seed"
    )
    parser.add_argument(
        "--compositions",
        type=_int_at_least(1),
        default=None,
        help="override compositions per Random/Top/Bottom set",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=sorted(EXPERIMENTS),
        default=None,
        help="run only these experiments",
    )
    parser.add_argument(
        "--out", type=str, default=None, help="also write the report here"
    )
    parser.add_argument(
        "--chaos",
        choices=sorted(FAULT_PROFILES),
        default=None,
        help="inject a named fault profile (results are unaffected)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=1031,
        help="seed of the injected fault sequence (default: 1031)",
    )
    parser.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help=(
            "save completed size estimates here when the run ends (also "
            "when it fails) and resume from the file if it already exists"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=_serial_jobs,
        choices=[1],
        default=1,
        help="worker processes; runs are serial, so only 1 is accepted",
    )
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "record a structured trace of the run and write it as JSONL "
            "here (summarize with repro-trace); results are unaffected"
        ),
    )
    args = parser.parse_args(argv)

    config = getattr(ExperimentConfig, args.scale)()
    if args.records is not None:
        config = config.with_records(args.records)
    if args.seed is not None or args.compositions is not None:
        from dataclasses import replace

        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.compositions is not None:
            overrides["n_compositions"] = args.compositions
        config = replace(config, **overrides)

    checkpoint = None
    if args.checkpoint:
        try:
            checkpoint = EstimateCheckpoint(args.checkpoint)
        except ValueError as exc:
            parser.error(f"--checkpoint: {exc}")

    # The CLI is a composition root: the one place in the library
    # allowed to construct a tracer.
    tracer = None
    if args.trace:
        tracer = Tracer(  # repro-lint: disable=obs/ambient-instrumentation
            "repro-audit", scale=args.scale
        )

    report = run_all(
        config=config,
        only=args.only,
        verbose=True,
        chaos=args.chaos,
        chaos_seed=args.chaos_seed,
        checkpoint=checkpoint,
        tracer=tracer,
    )
    text = report.render()
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    if tracer is not None:
        path = tracer.write_jsonl(args.trace)
        print(f"trace written to {path}", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
