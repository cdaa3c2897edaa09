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
    :func:`ambient_source` the one classifier.  Every read is
    flagged at its call, anywhere in a module.  Callers are not
    flagged: code can reach ambient entropy only through a read in
    some module, and that read already fails the lint unless a
    suppression accepts it at the site.  The id keeps its
    ``transitive`` name so existing suppressions stay valid.

``determinism/unordered-iteration``
    Iterating a hash-ordered collection (``set``/``frozenset``) or an
    OS-ordered listing (``os.listdir``) requires ``sorted(...)``, so
    the order cannot leak into serialized output.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, rule

__all__ = ["AMBIENT_SOURCES", "ambient_source"]

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


def _table(
    kind: str,
    names: str,
    prefix: str = "",
    arg: int | None = None,
    keywords: tuple[str, ...] = ("seed",),
):
    return {f"{prefix}{name}": (kind, arg, keywords) for name in names.split()}


#: Every ambient-entropy call: resolved callee -> (kind, argument,
#: keywords).  With an argument index the call is ambient only when that
#: argument, passed by position or by one of the keywords, is missing or
#: a literal ``None``: ``time.localtime(ts)`` converts a timestamp it was
#: given, ``default_rng(seed)`` and ``SeedSequence(entropy=x)`` are
#: seeded, and so is ``Philox(key=k)``.
AMBIENT_SOURCES: dict[str, tuple[str, int | None, tuple[str, ...]]] = {
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
        "default_rng RandomState PCG64 PCG64DXSM MT19937 SFC64",
        "numpy.random.",
        arg=0,
    ),
    **_table("unseeded", "Philox", "numpy.random.", 0, ("seed", "key")),
    **_table("unseeded", "SeedSequence", "numpy.random.", 0, ("entropy",)),
    **_table("unseeded", "Random", "random.", 0, ("x",)),
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
    name for name, (kind, _, _) in AMBIENT_SOURCES.items() if kind == "unseeded"
)


def _absent(call: ast.Call, index: int, keywords: tuple[str, ...]) -> bool:
    """True when argument ``index`` and every one of ``keywords`` is
    missing or a literal ``None``."""
    given = call.args[index : index + 1]
    for keyword in call.keywords:
        if keyword.arg is None:  # **kwargs: assume the caller passed it
            return False
        if keyword.arg in keywords:
            given.append(keyword.value)
    return all(isinstance(v, ast.Constant) and v.value is None for v in given)


def _is_builtin_hash(ctx: ModuleContext, func: ast.AST) -> bool:
    if isinstance(func, ast.Name) and func.id == "hash":
        return "hash" not in ctx.bindings
    return ctx.resolve(func) == "builtins.hash"


def ambient_source(
    ctx: ModuleContext, call: ast.Call, name: str | None, in_seed: bool
) -> str | None:
    """The remedy message when ``call`` reads ambient entropy, else ``None``.

    ``name`` is the call's resolved callee (``ctx.resolve(call.func)``);
    ``in_seed`` says the call sits in the arguments of an RNG
    constructor, where a builtin ``hash()`` makes the seed vary with
    ``PYTHONHASHSEED``.
    """
    if in_seed and _is_builtin_hash(ctx, call.func):
        return _REMEDIES["hash"]
    kind, arg, keywords = AMBIENT_SOURCES.get(name, (None, None, ()))
    if kind is None or (arg is not None and not _absent(call, arg, keywords)):
        return None
    return _REMEDIES[kind].format(name=name)


@rule(
    AMBIENT,
    "no ambient entropy (wall clock, OS entropy, global or unseeded RNG, "
    "salted hash() seed), flagged at the call",
)
def check_ambient(ctx: ModuleContext) -> Iterator[Finding]:
    calls = ctx.nodes(ast.Call)
    names = [ctx.resolve(call.func) for call in calls]
    # A call is in a seed when a strict ancestor call is an RNG
    # constructor: mark the calls under the few constructors.
    in_seed: set[int] = set()
    for call, name in zip(calls, names):
        if name in _SEED_CONSUMERS:
            in_seed.update(
                id(node)
                for node in ast.walk(call)
                if type(node) is ast.Call and node is not call
            )
    for call, name in zip(calls, names):
        remedy = ambient_source(ctx, call, name, id(call) in in_seed)
        if remedy is not None:
            yield ctx.finding(AMBIENT, call, remedy)


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
