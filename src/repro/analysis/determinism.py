"""Determinism rules: wall clocks, unseeded RNGs, unordered iteration.

The reproduction's guarantees are stated in terms of bit-identical
audit records: the same seed must yield the same figures whether the
run was batched, chaos-injected, or resumed from a checkpoint.  Three
classes of construct silently break that:

* reading the wall clock (all simulated time flows through the
  transport's :class:`~repro.api.transport.VirtualClock`);
* drawing entropy from outside the seed tree (module-level ``random``
  functions, ``default_rng()`` with no seed, ``os.urandom``,
  ``uuid.uuid4``, or a seed built from the builtin ``hash()``, which
  is salted per process for strings);
* iterating a hash-ordered collection (``set``/``frozenset``) or an
  OS-ordered listing (``os.listdir``) so the order can leak into
  serialized output.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, rule

__all__ = ["WALL_CLOCK_CALLS", "RANDOM_MODULE_FUNCTIONS", "NUMPY_GLOBAL_FUNCTIONS"]

#: Callables that read the host's wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Module-level ``random`` functions drawing from the hidden global RNG.
RANDOM_MODULE_FUNCTIONS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: ``numpy.random`` module-level functions using the hidden global state.
NUMPY_GLOBAL_FUNCTIONS = frozenset(
    {
        "binomial",
        "bytes",
        "choice",
        "exponential",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "seed",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)

#: RNG constructors that must be handed an explicit seed.
_SEED_REQUIRED = frozenset({"numpy.random.default_rng", "numpy.random.RandomState"})

#: Pure entropy sources with no seeded equivalent.
_ENTROPY_SOURCES = frozenset({"os.urandom", "uuid.uuid4"})

#: RNG constructors whose arguments are seed material.
_SEED_CONSUMERS = frozenset(
    {"numpy.random.SeedSequence", "numpy.random.default_rng", "random.Random"}
)


def _calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@rule(
    "determinism/wall-clock",
    "no wall-clock reads in src/ (simulated time lives on the VirtualClock)",
)
def check_wall_clock(ctx: ModuleContext) -> Iterator[Finding]:
    for call in _calls(ctx.tree):
        name = ctx.resolve(call.func)
        if name in WALL_CLOCK_CALLS:
            yield ctx.finding(
                "determinism/wall-clock",
                call,
                f"{name}() reads the wall clock; use the transport's "
                "VirtualClock or pass timestamps explicitly",
            )


def _is_unseeded(call: ast.Call) -> bool:
    """True when an RNG constructor got no usable seed argument."""
    for keyword in call.keywords:
        if keyword.arg == "seed":
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is None
            )
        if keyword.arg is None:  # **kwargs: assume the caller seeded it
            return False
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    return True


def _is_builtin_hash(ctx: ModuleContext, func: ast.AST) -> bool:
    if isinstance(func, ast.Name) and func.id == "hash":
        return "hash" not in ctx.bindings
    return ctx.resolve(func) == "builtins.hash"


def _salted_hashes(
    ctx: ModuleContext, name: str, call: ast.Call, seen: set[int]
) -> Iterator[ast.Call]:
    """Builtin ``hash(...)`` calls inside the seed of an RNG constructor.

    ``hash`` of a ``str`` or ``bytes`` is salted per process
    (``PYTHONHASHSEED``), so such a seed changes from run to run; use a
    stable digest such as ``zlib.crc32`` instead.  ``name`` is the
    resolved callee of ``call``; ``seen`` holds the ids of ``hash``
    calls already reported, so nested constructors report each once.
    """
    if name not in _SEED_CONSUMERS:
        return
    for arg in [*call.args, *(keyword.value for keyword in call.keywords)]:
        for node in ast.walk(arg):
            if (
                isinstance(node, ast.Call)
                and id(node) not in seen
                and _is_builtin_hash(ctx, node.func)
            ):
                seen.add(id(node))
                yield node


@rule(
    "determinism/unseeded-rng",
    "every RNG must descend from an explicit seed; no ambient entropy",
)
def check_unseeded_rng(ctx: ModuleContext) -> Iterator[Finding]:
    seen: set[int] = set()
    for call in _calls(ctx.tree):
        name = ctx.resolve(call.func)
        if name is None:
            continue
        for node in _salted_hashes(ctx, name, call, seen):
            yield ctx.finding(
                "determinism/unseeded-rng",
                node,
                "builtin hash() in an RNG seed is salted per process "
                "(PYTHONHASHSEED); derive the seed with zlib.crc32 instead",
            )
        if name in _ENTROPY_SOURCES or name == "random.SystemRandom":
            yield ctx.finding(
                "determinism/unseeded-rng",
                call,
                f"{name}() draws OS entropy that no seed controls; derive "
                "ids/values from the experiment's seed tree instead",
            )
        elif name in _SEED_REQUIRED or name == "random.Random":
            if _is_unseeded(call):
                yield ctx.finding(
                    "determinism/unseeded-rng",
                    call,
                    f"{name}() without an explicit seed falls back to OS "
                    "entropy; pass a seed derived from the experiment config",
                )
        elif (
            name.startswith("random.")
            and name.rpartition(".")[2] in RANDOM_MODULE_FUNCTIONS
            and name.count(".") == 1
        ):
            yield ctx.finding(
                "determinism/unseeded-rng",
                call,
                f"module-level {name}() uses the hidden global RNG; use a "
                "random.Random(seed) instance",
            )
        elif (
            name.startswith("numpy.random.")
            and name.rpartition(".")[2] in NUMPY_GLOBAL_FUNCTIONS
            and name.count(".") == 2
        ):
            yield ctx.finding(
                "determinism/unseeded-rng",
                call,
                f"{name}() uses numpy's hidden global state; use a "
                "default_rng(seed) Generator",
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
