"""Error-contract rules: failures stay typed, output stays routed.

The resilience layer (retry policies, circuit breakers, checkpoint
resume) can only make guarantees because failures arrive as the typed
:mod:`repro.platforms.errors` hierarchy with known retryability.  A
bare ``except`` swallows the chaos layer's injected faults along with
real bugs; an ad-hoc ``RuntimeError`` escaping a transport handler
bypasses the status mapping clients rely on; a stray ``print`` in
library code corrupts the rendered reports that the figure
comparisons diff byte-for-byte.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, rule

__all__ = ["TRANSPORT_MODULES", "PRINT_ALLOWED_MODULES", "PRINT_ALLOWED_PREFIXES"]

#: Modules forming the fake-HTTP transport layer: everything a request
#: or response flows through between a client and a platform.
TRANSPORT_MODULES = frozenset(
    {
        "repro.api.chaos",
        "repro.api.client",
        "repro.api.obfuscation",
        "repro.api.routes",
        "repro.api.transport",
        "repro.api.wire",
    }
)

#: Library modules allowed to print: CLI entry points own stdout.
PRINT_ALLOWED_MODULES = frozenset(
    {
        "repro.experiments.runner",
        "repro.analysis.cli",
        # repro-trace: the trace summarizer's console entry point.
        "repro.obs.report",
    }
)

#: Package prefixes allowed to print (reporting renders to text).
PRINT_ALLOWED_PREFIXES = ("repro.reporting",)

#: Names of built-in exception types, for recognising untyped raises.
_BUILTIN_EXCEPTIONS = frozenset(
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
)

_BROAD = frozenset({"Exception", "BaseException"})


def _broad_names(handler_type: ast.AST | None) -> Iterator[str]:
    if handler_type is None:
        yield "bare except"
        return
    elements = (
        handler_type.elts if isinstance(handler_type, ast.Tuple) else [handler_type]
    )
    for element in elements:
        if isinstance(element, ast.Name) and element.id in _BROAD:
            yield f"except {element.id}"


@rule(
    "errors/broad-except",
    "no bare/broad except in src/; catch the typed platforms.errors "
    "hierarchy (or a specific builtin)",
)
def check_broad_except(ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.module.startswith("repro"):
        return
    for node in ctx.nodes(ast.ExceptHandler):
        for shown in _broad_names(node.type):
            yield ctx.finding(
                "errors/broad-except",
                node,
                f"{shown} swallows injected chaos faults and real bugs "
                "alike; catch PlatformError (or a narrower type)",
            )


# The former syntactic ``errors/transport-raise`` check lives on as
# the interprocedural ``errors/transport-escape`` project rule in
# :mod:`repro.analysis.flows`: it follows helper calls and honours
# try/except context instead of inspecting one function at a time.


@rule(
    "errors/print",
    "no print() in library code; rendering belongs to reporting and "
    "CLI entry points",
)
def check_print(ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.module.startswith("repro"):
        return
    if ctx.module in PRINT_ALLOWED_MODULES or ctx.module.startswith(
        PRINT_ALLOWED_PREFIXES
    ):
        return
    for node in ctx.nodes(ast.Call):
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and "print" not in ctx.bindings
        ):
            yield ctx.finding(
                "errors/print",
                node,
                "print() in library code bypasses the reporting layer; "
                "return renderable values or log via the runner",
            )
