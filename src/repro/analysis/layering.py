"""Layering rules: the package import DAG stays one-directional.

The architecture is a strict stack -- ``population`` at the bottom,
then ``platforms``, ``api``, ``core``, and ``reporting``/
``experiments`` on top -- so that the simulated substrate never knows
about the audit methodology, and the methodology never knows about
the drivers.  Upward imports reintroduce exactly the hidden coupling
(platform internals leaking into audit logic) whose real-world
analogue the paper is about, and they break the aggressive refactors
the roadmap calls for: a package can only be split or swapped out
if nothing below it reaches up into it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, import_base, rule

__all__ = ["LAYERS", "FACADE_RANK", "ISLANDS"]

#: Package layer ranks inside ``repro``; a module may import only
#: packages whose rank is less than or equal to its own.
LAYERS = {
    "population": 0,
    "platforms": 1,
    "api": 2,
    "core": 3,
    "reporting": 4,
    "experiments": 5,
}

#: The ``repro`` facade's ``build_audit_session`` assembles everything
#: up to ``core``, so importing it behaves like a core-ranked import.
FACADE_RANK = LAYERS["core"]

#: Self-contained packages: they import nothing from the rest of
#: ``repro`` (so e.g. the analyzer can lint the tree without importing
#: it), and other layers may import them freely.
ISLANDS = frozenset({"analysis", "obs"})

#: Top-level modules that only test code may import.
_TEST_MODULES = frozenset({"tests", "pytest", "hypothesis", "unittest"})


def _own_package(module: str) -> str | None:
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def _import_targets(ctx: ModuleContext) -> Iterator[tuple[ast.stmt, str]]:
    """(node, absolute imported module) pairs for every import."""
    for node in ctx.imports:
        if type(node) is ast.Import:
            for alias in node.names:
                yield node, alias.name
            continue
        base = import_base(node, ctx.module, ctx.is_package)
        if base:
            yield node, base


@rule(
    "layering/upward-import",
    "imports follow the package DAG "
    "population -> platforms -> api -> core -> reporting/experiments",
)
def check_upward_import(ctx: ModuleContext) -> Iterator[Finding]:
    own = _own_package(ctx.module)
    if ctx.module == "repro":
        return  # the facade re-exports from every layer by design
    for node, target in _import_targets(ctx):
        parts = target.split(".")
        if parts[0] != "repro":
            continue
        target_pkg = parts[1] if len(parts) > 1 else None
        if own in ISLANDS:
            if target_pkg != own:
                yield ctx.finding(
                    "layering/upward-import",
                    node,
                    f"{ctx.module} is a standalone package and must not "
                    f"import {target}",
                )
            continue
        if own not in LAYERS:
            continue
        if target_pkg in ISLANDS:
            continue
        if target_pkg is None:
            # The facade aggregates every layer up to core, so importing
            # it from core or below is circular.
            upward = LAYERS[own] <= FACADE_RANK
        else:
            target_rank = LAYERS.get(target_pkg)
            if target_rank is None:
                continue
            upward = target_rank > LAYERS[own]
        if upward:
            shown = target if target_pkg else "the repro facade"
            yield ctx.finding(
                "layering/upward-import",
                node,
                f"{ctx.module} (layer '{own}') imports {shown} from a "
                "higher layer; invert the dependency or move the shared "
                "code down",
            )


@rule(
    "layering/reporting-internals",
    "experiments use repro.reporting's public API, never its submodules",
)
def check_reporting_internals(ctx: ModuleContext) -> Iterator[Finding]:
    if _own_package(ctx.module) != "experiments":
        return
    for node, target in _import_targets(ctx):
        if target.startswith("repro.reporting."):
            yield ctx.finding(
                "layering/reporting-internals",
                node,
                f"import of {target}: experiments must go through the "
                "repro.reporting package API so renderers stay swappable",
            )


@rule(
    "layering/test-import",
    "library code under src/ never imports the test suite or pytest",
)
def check_test_import(ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.module.startswith("repro"):
        return
    for node, target in _import_targets(ctx):
        top = target.partition(".")[0]
        if top in _TEST_MODULES:
            yield ctx.finding(
                "layering/test-import",
                node,
                f"import of {target} couples library code to the test "
                "harness; move the helper into src/ or the test package",
            )
