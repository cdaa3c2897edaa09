"""Observability-injection rule.

The tracing contract (DESIGN.md §10) hangs on a single injection
point: :func:`repro.build_audit_session` hands the tracer to the
transport, and every other layer picks it up from there.  Library
code that constructs its own :class:`~repro.obs.Tracer` ambiently
breaks that contract twice over -- its spans land in a tracer nobody
exports, and the "no-op by default, injected when wanted" guarantee
silently stops being true.

Only composition roots -- the CLI entry points -- may instantiate a
tracer.  Those few sites carry explicit
``# repro-lint: disable=obs/ambient-instrumentation`` suppressions;
tests and benchmarks live outside ``repro.*`` and are never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, rule

__all__ = ["OBS_CONSTRUCTORS"]

#: Fully-qualified constructors library code must not call ambiently.
#: Both the facade and defining-module paths are listed because import
#: resolution reports whichever the module actually bound.
OBS_CONSTRUCTORS = frozenset(
    {
        "repro.obs.Tracer",
        "repro.obs.trace.Tracer",
    }
)


def _in_obs_package(module: str) -> bool:
    return module == "repro.obs" or module.startswith("repro.obs.")


@rule(
    "obs/ambient-instrumentation",
    "library code receives its Tracer by injection (via "
    "build_audit_session); only composition roots construct one",
)
def check_ambient_instrumentation(ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.module.startswith("repro"):
        return
    if _in_obs_package(ctx.module):
        return
    for node in ctx.nodes(ast.Call):
        name = ctx.resolve(node.func)
        if name not in OBS_CONSTRUCTORS:
            continue
        short = name.rsplit(".", 1)[1]
        yield ctx.finding(
            "obs/ambient-instrumentation",
            node,
            f"{short}() constructed inside library code: the tracer is "
            "injected through build_audit_session and read from the "
            "transport; only composition roots (CLI entry points) may "
            "build their own",
        )
