"""Interprocedural rule families: taint and exception flow.

These are the whole-program checks the per-file rules cannot express.
Each runs over the linked :class:`~repro.analysis.graph.Project` with
a summary computed to fixpoint by :mod:`repro.analysis.dataflow`:

``taint/restricted-flow``
    The paper's central hazard made static: a sensitive demographic
    value (``Gender``/``AgeRange`` reads, ``with_gender``/``with_age``
    spec builders, ``TargetingSpec(genders=..., age_ranges=...)``)
    must never flow into a restricted-interface call -- the special
    ad category interface exists precisely so gender/age targeting is
    unreachable.  The only sanctioned meeting point is the audited
    ratio-measurement seam in :mod:`repro.core.audit`, declared in
    :data:`DECLASSIFIERS`: inside those functions demographic slicing
    is the point, and their results are population counts, not specs,
    so taint stops there.

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

from typing import Iterator, Mapping

from repro.analysis.contracts import TRANSPORT_MODULES
from repro.analysis.core import Finding, project_rule
from repro.analysis.dataflow import SummaryProblem, fixpoint
from repro.analysis.graph import CallSite, FunctionNode, Project

__all__ = [
    "DECLASSIFIERS",
    "RESTRICTED_CLASSES",
    "TAINT_SOURCE_METHODS",
    "TRANSPORT_EXEMPT_CLASSES",
]

#: Spec-builder methods that introduce demographic taint by name, so
#: receivers whose class cannot be inferred still count.
TAINT_SOURCE_METHODS = frozenset({"with_gender", "with_age", "with_ages"})

#: Constructors whose gender/age keywords introduce taint.
SPEC_CONSTRUCTORS = frozenset({"repro.platforms.targeting.TargetingSpec"})
SPEC_SENSITIVE_KEYWORDS = frozenset({"genders", "age_ranges"})

#: Restricted-interface classes: tainted arguments may not reach a
#: method called on an instance (subclasses included), wherever the
#: class hierarchy defines that method.
RESTRICTED_CLASSES = frozenset(
    {"repro.platforms.facebook.FacebookRestrictedInterface"}
)

#: The audited ratio-measurement seam: the only functions allowed to
#: combine demographic predicates with restricted interfaces, and
#: whose results (population counts) leave untainted.
DECLASSIFIERS = frozenset(
    {
        "repro.core.audit.AuditTarget.demographic_spec",
        "repro.core.audit.AuditTarget._build_demographic_spec",
        "repro.core.audit.AuditTarget._measure",
        "repro.core.audit.AuditTarget._restriction",
        "repro.core.audit.AuditTarget.measure",
        "repro.core.audit.AuditTarget.base_sizes",
    }
)


#: Classes implementing the catch-and-map boundary itself: their
#: request methods are where foreign exceptions are *converted*, so
#: they are neither entry points nor propagation steps.
TRANSPORT_EXEMPT_CLASSES = frozenset({"repro.api.transport.FakeTransport"})

#: Token marking a genuinely tainted value (vs an int token ``i``
#: marking "tainted iff the function's i-th parameter is").
_TAINTED = "T"


# -- taint ----------------------------------------------------------------


def _arg_ref_for_param(site: CallSite, param: int):
    """The caller-side value ref feeding a callee's ``param`` index.

    Method calls bind the receiver to parameter 0 (``self``); plain
    calls bind positionals directly.  Returns ``None`` when the
    parameter is keyword-fed or defaulted.
    """
    if site.callee[0] == "method":
        if param == 0:
            return site.receiver
        param -= 1
    if 0 <= param < len(site.args):
        return site.args[param]
    return None


class _TaintState:
    """Local abstract interpretation of one function's recorded facts."""

    def __init__(
        self,
        project: Project,
        node: FunctionNode,
        summaries: Mapping[str, tuple[frozenset, frozenset]],
    ):
        self.project = project
        self.node = node
        self.summaries = summaries
        self.call_tokens: list[frozenset] = [
            frozenset() for _ in node.summary.calls
        ]
        self.var_tokens: dict[str, frozenset] = {}
        self._evaluate()

    def ref_tokens(self, ref) -> frozenset:
        if ref is None:
            return frozenset()
        kind = ref[0]
        if kind == "source":
            return frozenset({_TAINTED})
        if kind == "param":
            return frozenset({ref[1]})
        if kind == "var":
            return self.var_tokens.get(ref[1], frozenset())
        if kind == "call":
            return self.call_tokens[ref[1]]
        return frozenset()

    def _site_tokens(self, index: int, site: CallSite) -> frozenset:
        tokens: set = set()
        # Builder-style chaining: a method call on a tainted value
        # yields a tainted value (over-approximate, but only sinks
        # make taint observable).
        tokens |= self.ref_tokens(site.receiver)
        if site.callee[0] == "method" and site.callee[2] in TAINT_SOURCE_METHODS:
            tokens.add(_TAINTED)
        targets = self.project.callees_at(self.node.qname, index)
        for target in targets:
            if target in DECLASSIFIERS:
                return frozenset()  # the seam launders its result
            target_node = self.project.functions[target]
            if (
                target_node.class_qname is not None
                and target_node.summary.name == "__init__"
                and target_node.class_qname in SPEC_CONSTRUCTORS
                and set(site.live_keywords) & SPEC_SENSITIVE_KEYWORDS
            ):
                tokens.add(_TAINTED)
            returns, _ = self.summaries.get(target, (frozenset(), frozenset()))
            for token in returns:
                if token == _TAINTED:
                    tokens.add(_TAINTED)
                else:
                    tokens |= self.ref_tokens(_arg_ref_for_param(site, token))
        return frozenset(tokens)

    def _evaluate(self) -> None:
        # Iterate to a local fixpoint so facts recorded out of source
        # order (calls vs assignments) still converge.
        for _ in range(len(self.node.summary.calls) + 2):
            changed = False
            for index, site in enumerate(self.node.summary.calls):
                tokens = self._site_tokens(index, site)
                if tokens != self.call_tokens[index]:
                    self.call_tokens[index] = tokens
                    changed = True
            for name, ref in self.node.summary.assigns:
                tokens = self.ref_tokens(ref) | self.var_tokens.get(
                    name, frozenset()
                )
                if tokens != self.var_tokens.get(name, frozenset()):
                    self.var_tokens[name] = tokens
                    changed = True
            if not changed:
                break

    def summary(self) -> tuple[frozenset, frozenset]:
        """(return tokens, sink param indices) for this function."""
        returns: set = set()
        for ref in self.node.summary.returns:
            returns |= self.ref_tokens(ref)
        sink_params: set = set()
        for index, site in enumerate(self.node.summary.calls):
            for param, ref in self._sink_feeds(index, site):
                del param
                for token in self.ref_tokens(ref):
                    if token != _TAINTED:
                        sink_params.add(token)
        return frozenset(returns), frozenset(sink_params)

    def _sink_feeds(self, index: int, site: CallSite):
        """(callee param index, caller value ref) pairs feeding a sink."""
        feeds = []
        # The real restricted interface inherits estimate_reach, so the
        # receiver's class decides, not the defining class.
        receiver = (
            self.project.receiver_class(self.node, site.callee[1])
            if site.callee[0] == "method"
            else None
        )
        targets = self.project.callees_at(self.node.qname, index)
        for target in targets:
            target_node = self.project.functions[target]
            if self._is_restricted(receiver) or self._is_restricted(
                target_node.class_qname
            ):
                for position, ref in enumerate(site.args):
                    feeds.append((position, ref))
                for ref in site.keywords.values():
                    feeds.append((-1, ref))
            else:
                _, callee_sinks = self.summaries.get(
                    target, (frozenset(), frozenset())
                )
                for param in callee_sinks:
                    ref = _arg_ref_for_param(site, param)
                    if ref is not None:
                        feeds.append((param, ref))
        return feeds

    def _is_restricted(self, class_qname: str | None) -> bool:
        if class_qname is None:
            return False
        return any(
            self.project.is_subtype(class_qname, restricted)
            or class_qname == restricted
            for restricted in sorted(RESTRICTED_CLASSES)
        )

    def violations(self) -> Iterator[tuple[CallSite, str]]:
        """Sink call sites fed by genuinely tainted values."""
        if self.node.qname in DECLASSIFIERS:
            return
        for index, site in enumerate(self.node.summary.calls):
            for _, ref in self._sink_feeds(index, site):
                if _TAINTED in self.ref_tokens(ref):
                    name = (
                        site.callee[2]
                        if site.callee[0] == "method"
                        else site.callee[-1].rsplit(".", 1)[-1]
                    )
                    yield site, name
                    break


class _TaintProblem(SummaryProblem):
    def __init__(self, project: Project):
        self.project = project

    def bottom(self):
        return (frozenset(), frozenset())

    def transfer(self, qname, summaries):
        return _TaintState(
            self.project, self.project.functions[qname], summaries
        ).summary()


@project_rule(
    "taint/restricted-flow",
    "no sensitive demographic value may reach a restricted-interface "
    "call outside the audited core.audit measurement seam",
)
def check_restricted_flow(project: Project) -> Iterator[Finding]:
    nodes = project.repro_functions()
    summaries = fixpoint(nodes, project.callers(nodes), _TaintProblem(project))
    for qname in nodes:
        node = project.functions[qname]
        state = _TaintState(project, node, summaries)
        for site, name in state.violations():
            yield Finding(
                path=node.path,
                line=site.line,
                col=site.col,
                rule="taint/restricted-flow",
                message=(
                    f"sensitive demographic value flows into restricted-"
                    f"interface call {name}(); gender/age predicates may "
                    "meet the restricted interface only inside the audited "
                    "core.audit measurement seam"
                ),
            )


# -- exception flow -------------------------------------------------------


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


class _EscapeProblem(SummaryProblem):
    """Summary: frozenset of (type, path, line, col) escape witnesses."""

    def __init__(self, project: Project):
        self.project = project

    def bottom(self):
        return frozenset()

    def transfer(self, qname, summaries):
        project = self.project
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
                    if _survives_catches(
                        project, witness[0], site.caught, node.module
                    ):
                        escapes.add(witness)
        return frozenset(escapes)


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
    summaries = fixpoint(domain, project.callers(domain), _EscapeProblem(project))
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
