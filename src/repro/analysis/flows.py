"""Interprocedural exception flow: the ``errors/transport-escape`` rule.

This is the whole-program check the per-file rules cannot express.  It
runs over the linked :class:`~repro.analysis.graph.Project` with one
summary per transport function, computed to a fixpoint by
:func:`_escape_summaries`:

``errors/transport-escape``
    Raise-reachability over transport request paths: every exception
    that can escape a request-path function in a transport module must
    belong to the :mod:`repro.platforms.errors` taxonomy.  Replaces
    the syntactic per-file check with one that follows helper calls
    and honours ``try``/``except`` context, so a foreign exception
    two helpers deep is still caught.  Calls leaving the transport
    modules are opaque by contract (platforms raise typed errors; the
    per-module rules police them), and :class:`FakeTransport` itself
    is the enforcement boundary, not a subject.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Mapping

from repro.analysis.contracts import TRANSPORT_MODULES
from repro.analysis.core import Finding, project_rule
from repro.analysis.graph import Project

__all__ = ["TRANSPORT_EXEMPT_CLASSES"]

#: Classes implementing the catch-and-map boundary itself: their
#: request methods are where foreign exceptions are *converted*, so
#: they are neither entry points nor propagation steps.
TRANSPORT_EXEMPT_CLASSES = frozenset({"repro.api.transport.FakeTransport"})


def _escape_domain(project: Project) -> list[str]:
    domain = []
    for qname in sorted(project.functions):
        node = project.functions[qname]
        if node.module not in TRANSPORT_MODULES:
            continue
        if node.class_qname in TRANSPORT_EXEMPT_CLASSES:
            continue
        domain.append(qname)
    return domain


def _survives_catches(
    project: Project, canonical: str, caught: list[list], module: str
) -> bool:
    """True when a raised type escapes every enclosing handler layer."""
    for layer in caught:
        for ref in layer:
            handler = project.resolve_exception(tuple(ref), module)
            if handler is None:
                # An unresolvable handler type is assumed to catch:
                # staying quiet beats guessing a violation.
                return False
            if project.exception_caught_by(canonical, handler):
                return False
    return True


def _escapes(
    project: Project, qname: str, summaries: Mapping[str, frozenset]
) -> frozenset:
    """``qname``'s escape witnesses, (type, path, line, col) each,
    given its callees' current ones."""
    node = project.functions[qname]
    escapes: set = set()
    for site in node.summary.raises:
        if site.reraise or site.exc is None:
            continue  # dynamic values and re-raises stay typed
        canonical = project.resolve_exception(site.exc, node.module)
        if canonical is None:
            continue
        if _survives_catches(project, canonical, site.caught, node.module):
            escapes.add((canonical, node.path, site.line, site.col))
    for index, site in enumerate(node.summary.calls):
        for target in project.callees_at(qname, index):
            target_node = project.functions[target]
            if target_node.module not in TRANSPORT_MODULES:
                continue  # platforms raise typed errors by contract
            if target_node.class_qname in TRANSPORT_EXEMPT_CLASSES:
                continue
            for witness in summaries.get(target, frozenset()):
                if _survives_catches(project, witness[0], site.caught, node.module):
                    escapes.add(witness)
    return frozenset(escapes)


def _escape_summaries(project: Project, domain: list[str]) -> dict[str, frozenset]:
    """Every domain function's escape witnesses, solved to a fixpoint.

    The call graph has cycles, so a worklist re-queues a function's
    callers whenever its witness set grows.  Sets only grow and are
    bounded by the finite raise sites, so the solve terminates; the
    step cap turns a transfer that breaks that into a loud error, not
    a hang.
    """
    callers = project.callers(domain)
    summaries: dict[str, frozenset] = {qname: frozenset() for qname in domain}
    queue = deque(domain)
    queued = set(domain)
    cap = max(10_000, 50 * len(domain))
    steps = 0
    while queue:
        steps += 1
        if steps > cap:
            raise RuntimeError(
                f"escape summaries did not converge after {cap} steps; "
                "the summary transfer is not monotone"
            )
        qname = queue.popleft()
        queued.discard(qname)
        updated = _escapes(project, qname, summaries)
        if updated != summaries[qname]:
            summaries[qname] = updated
            for caller in sorted(callers.get(qname, ())):
                if caller not in queued:
                    queue.append(caller)
                    queued.add(caller)
    return summaries


def _is_platform_error(project: Project, canonical: str) -> bool:
    if canonical not in project.classes:
        return False
    # Anywhere in the MRO counts: a subclass declared outside the
    # platforms package is still a taxonomy type to clients catching
    # PlatformError.
    return any(
        project.classes[cls].module.startswith("repro.platforms")
        for cls in project.mro(canonical)
    )


@project_rule(
    "errors/transport-escape",
    "only platforms.errors taxonomy types may escape a transport "
    "request path (interprocedural raise-reachability)",
)
def check_transport_escape(project: Project) -> Iterator[Finding]:
    domain = _escape_domain(project)
    summaries = _escape_summaries(project, domain)
    reported: set = set()
    for qname in domain:
        node = project.functions[qname]
        if not node.summary.request_path:
            continue
        for canonical, path, line, col in sorted(summaries[qname]):
            if _is_platform_error(project, canonical):
                continue
            key = (canonical, path, line, col)
            if key in reported:
                continue
            reported.add(key)
            short = canonical.rsplit(".", 1)[-1]
            yield Finding(
                path=path,
                line=line,
                col=col,
                rule="errors/transport-escape",
                message=(
                    f"{short} raised here can escape the transport request "
                    f"path {node.summary.name}(); raise a platforms.errors "
                    "type so clients see a typed, retryable failure"
                ),
            )
