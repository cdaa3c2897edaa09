"""Determinism rules: ambient entropy and unordered iteration.

The reproduction's guarantees are stated in terms of bit-identical
audit records: the same seed must yield the same figures whether the
run was batched, chaos-injected, or resumed from a checkpoint.  Two
properties guard that:

``determinism/transitive-ambient``
    No code reaches ambient entropy: the wall clock (all simulated
    time flows through the transport's
    :class:`~repro.api.transport.VirtualClock`), OS entropy, a hidden
    global RNG, an RNG constructor given no seed, or a seed built from
    the builtin ``hash()``, which is salted per process for strings.
    :data:`AMBIENT_SOURCES` is the one table of such calls and
    :func:`ambient_source` the one classifier.  A direct read is
    flagged at the call -- a chain of length 1 -- anywhere in a
    module; a public function reaching one through calls is flagged
    at its definition with the call chain as witness.  A suppressed
    direct read is neither reported nor propagated.

``determinism/unordered-iteration``
    Iterating a hash-ordered collection (``set``/``frozenset``) or an
    OS-ordered listing (``os.listdir``) requires ``sorted(...)``, so
    the order cannot leak into serialized output.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.core import Finding, ModuleContext, project_rule, rule
from repro.analysis.dataflow import SummaryProblem, fixpoint, reachable

if TYPE_CHECKING:
    from repro.analysis.graph import Project

__all__ = ["AMBIENT_SOURCES", "ambient_source", "ambient_sites"]

AMBIENT = "determinism/transitive-ambient"

#: Remedy message per source kind; ``{name}`` is the resolved callee.
_REMEDIES = {
    "clock": "{name}() reads the wall clock; use the transport's "
    "VirtualClock or pass timestamps explicitly",
    "entropy": "{name}() draws OS entropy that no seed controls; derive "
    "ids/values from the experiment's seed tree instead",
    "unseeded": "{name}() without an explicit seed falls back to OS "
    "entropy; pass a seed derived from the experiment config",
    "random": "module-level {name}() uses the hidden global RNG; use a "
    "random.Random(seed) instance",
    "numpy": "{name}() uses numpy's hidden global state; use a "
    "default_rng(seed) Generator",
    "hash": "builtin hash() in an RNG seed is salted per process "
    "(PYTHONHASHSEED); derive the seed with zlib.crc32 instead",
}


def _table(kind: str, names: str, prefix: str = "", arg: int | None = None):
    return {f"{prefix}{name}": (kind, arg) for name in names.split()}


#: Every ambient-entropy call: resolved callee -> (kind, argument).
#: With an argument index the call is ambient only when that argument
#: (or ``seed=``) is missing or a literal ``None``: ``time.localtime(ts)``
#: converts a timestamp it was given, ``default_rng(seed)`` is seeded.
AMBIENT_SOURCES: dict[str, tuple[str, int | None]] = {
    **_table("clock", "time time_ns", "time."),
    **_table("clock", "now utcnow today", "datetime.datetime."),
    **_table("clock", "today", "datetime.date."),
    **_table("clock", "gmtime localtime ctime asctime", "time.", arg=0),
    **_table("clock", "strftime", "time.", arg=1),
    **_table(
        "entropy",
        "os.urandom os.getrandom uuid.uuid1 uuid.uuid4 random.SystemRandom",
    ),
    # Every secrets function but compare_digest, which draws nothing.
    **_table(
        "entropy",
        "choice randbelow randbits token_bytes token_hex token_urlsafe "
        "SystemRandom",
        "secrets.",
    ),
    **_table(
        "unseeded",
        "numpy.random.default_rng numpy.random.RandomState random.Random",
        arg=0,
    ),
    **_table(
        "random",
        "betavariate choice choices expovariate gammavariate gauss "
        "getrandbits lognormvariate normalvariate paretovariate randbytes "
        "randint random randrange sample seed shuffle triangular uniform "
        "vonmisesvariate weibullvariate",
        "random.",
    ),
    **_table(
        "numpy",
        "binomial bytes choice exponential normal permutation poisson rand "
        "randint randn random random_sample seed shuffle standard_normal "
        "uniform",
        "numpy.random.",
    ),
}

#: RNG constructors whose arguments are seed material.
_SEED_CONSUMERS = frozenset(
    {"numpy.random.SeedSequence", "numpy.random.default_rng", "random.Random"}
)


def _absent(call: ast.Call, index: int) -> bool:
    """True when argument ``index`` (or ``seed=``) is missing or ``None``."""
    for keyword in call.keywords:
        if keyword.arg is None:  # **kwargs: assume the caller passed it
            return False
        if keyword.arg == "seed":
            value = keyword.value
            break
    else:
        if len(call.args) <= index:
            return True
        value = call.args[index]
    return isinstance(value, ast.Constant) and value.value is None


def _is_builtin_hash(ctx: ModuleContext, func: ast.AST) -> bool:
    if isinstance(func, ast.Name) and func.id == "hash":
        return "hash" not in ctx.bindings
    return ctx.resolve(func) == "builtins.hash"


def ambient_source(
    ctx: ModuleContext, call: ast.Call, name: str | None, in_seed: bool
) -> tuple[str, str] | None:
    """``(source name, remedy message)`` when ``call`` reads ambient entropy.

    ``name`` is the call's resolved callee (``ctx.resolve(call.func)``);
    ``in_seed`` says the call sits in the arguments of an RNG
    constructor, where a builtin ``hash()`` makes the seed vary with
    ``PYTHONHASHSEED``.
    """
    if in_seed and _is_builtin_hash(ctx, call.func):
        return "builtins.hash", _REMEDIES["hash"]
    kind, arg = AMBIENT_SOURCES.get(name, (None, None))
    if kind is None or (arg is not None and not _absent(call, arg)):
        return None
    return name, _REMEDIES[kind].format(name=name)


def ambient_sites(
    ctx: ModuleContext,
) -> Iterator[tuple[Finding, str, ast.AST | None]]:
    """Every direct ambient read in a module, in one walk.

    Yields ``(finding, source name, scope)``, where ``scope`` is the
    innermost ``def`` whose call runs the read (``None`` for module
    and class-body code).  Decorators run in the enclosing scope; a
    ``def``'s defaults and annotations are counted as its own.
    """
    stack: list[tuple[ast.AST, ast.AST | None, bool]] = [(ctx.tree, None, False)]
    while stack:
        node, scope, in_seed = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend((d, scope, in_seed) for d in node.decorator_list)
            own = [node.args, *node.body, *filter(None, [node.returns])]
            stack.extend((child, node, in_seed) for child in own)
            continue
        if isinstance(node, ast.Call):
            name = ctx.resolve(node.func)
            hit = ambient_source(ctx, node, name, in_seed)
            if hit is not None:
                yield ctx.finding(AMBIENT, node, hit[1]), hit[0], scope
            in_seed = in_seed or name in _SEED_CONSUMERS
        stack.extend((child, scope, in_seed) for child in ast.iter_child_nodes(node))


class _AmbientProblem(SummaryProblem):
    """Summary: frozenset of ambient source names reachable."""

    def __init__(self, project: Project, nodes: set):
        self.project = project
        self.nodes = nodes

    def bottom(self):
        return frozenset()

    def transfer(self, qname, summaries):
        reach = set(self.project.functions[qname].summary.ambient)
        for _, targets in self.project.callees(qname):
            for target in targets:
                if target in self.nodes:
                    reach |= summaries[target]
        return frozenset(reach)


@project_rule(
    AMBIENT,
    "no ambient entropy (wall clock, OS entropy, global or unseeded RNG, "
    "salted hash() seed): direct reads are flagged at the call, public "
    "functions reaching one through calls at their definition",
)
def check_ambient(project: Project) -> Iterator[Finding]:
    for module in project.summaries:
        yield from module.ambient
    nodes = project.repro_functions()
    node_set = set(nodes)
    summaries = fixpoint(
        nodes, project.callers(nodes), _AmbientProblem(project, node_set)
    )

    def successors(qname):
        for _, targets in project.callees(qname):
            for target in targets:
                if target in node_set and summaries[target]:
                    yield target

    for qname in nodes:
        node = project.functions[qname]
        if not node.summary.is_public:
            continue
        reach = set().union(*(summaries[t] for t in successors(qname)))
        if not reach:
            continue
        witness = reachable(
            qname,
            successors,
            lambda q: q != qname and bool(project.functions[q].summary.ambient),
        )
        chain = (
            " -> ".join(step.rsplit(".", 1)[-1] + "()" for step in witness)
            if witness
            else node.summary.name + "()"
        )
        yield Finding(
            path=node.path,
            line=node.summary.line,
            col=node.summary.col,
            rule=AMBIENT,
            message=(
                f"public function {node.summary.name}() transitively "
                f"reaches ambient entropy source {sorted(reach)[0]}() via "
                f"{chain}; thread a seeded RNG or the VirtualClock through "
                "instead"
            ),
        )


# -- unordered iteration --------------------------------------------------

#: Wrappers that preserve (or deterministically permute) their input
#: order -- iterating through them is only as ordered as what they wrap.
_ORDER_PRESERVING = frozenset({"enumerate", "reversed", "list", "tuple", "iter"})


def _is_set_display(node: ast.AST) -> bool:
    return isinstance(node, (ast.Set, ast.SetComp))


class _UnorderedIteration(ast.NodeVisitor):
    """Flags iteration over hash/OS-ordered values not passed to sorted().

    Tracks, per function scope, names assigned a ``set``/``frozenset``
    value or an ``os.listdir`` result, and reports ``for`` loops and
    comprehensions that consume them (directly or through order-
    preserving wrappers) without a ``sorted(...)`` in between.
    Membership tests and order-insensitive reductions (``sum``,
    ``len``, ``min``...) are not iteration and are never flagged.
    """

    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._scopes: list[dict[str, str]] = [{}]

    # -- scope plumbing --

    def _enter(self, node: ast.AST) -> None:
        self._scopes.append({})
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _enter

    def _lookup(self, name: str) -> str | None:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    # -- classification --

    def _set_kind(self, node: ast.AST) -> str | None:
        """'set' / 'os.listdir' when the expression is unordered."""
        if _is_set_display(node):
            return "set"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            callee = node.func.id
            if callee in ("set", "frozenset") and callee not in self.ctx.bindings:
                return "set"
        if isinstance(node, ast.Call):
            if self.ctx.resolve(node.func) == "os.listdir":
                return "os.listdir"
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        return None

    def _check_iterable(self, node: ast.AST) -> None:
        while isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "sorted":
                return
            if node.func.id not in _ORDER_PRESERVING or not node.args:
                break
            node = node.args[0]
        kind = self._set_kind(node)
        if kind is not None:
            noun = "a set/frozenset" if kind == "set" else "an os.listdir() result"
            self.findings.append(
                self.ctx.finding(
                    "determinism/unordered-iteration",
                    node,
                    f"iterating {noun} whose order is not deterministic; "
                    "wrap it in sorted(...)",
                )
            )

    # -- assignments --

    def _record(self, target: ast.AST, value: ast.AST | None) -> None:
        if not isinstance(target, ast.Name):
            return
        kind = self._set_kind(value) if value is not None else None
        scope = self._scopes[-1]
        if kind is not None:
            scope[target.id] = kind
        else:
            scope.pop(target.id, None)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record(node.target, node.value)
        self.generic_visit(node)

    # -- iteration sites --

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        for generator in node.generators:
            self._check_iterable(generator.iter)
        self.generic_visit(node)

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _visit_comp


@rule(
    "determinism/unordered-iteration",
    "no iteration over sets or os.listdir() output without sorted(...)",
)
def check_unordered_iteration(ctx: ModuleContext) -> Iterator[Finding]:
    visitor = _UnorderedIteration(ctx)
    visitor.visit(ctx.tree)
    yield from visitor.findings
