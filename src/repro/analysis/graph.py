"""Whole-program symbol table and call graph for ``repro-lint``.

The per-file rules see one module at a time; the interprocedural
rule (:mod:`repro.analysis.flows`) needs to know *who calls whom*
across the whole ``population -> platforms -> api -> core ->
reporting/experiments`` DAG.  This module provides that in two
stages, the first per file and the second over the whole program:

1. **Extraction** (:func:`extract_summary`): one pass over a module's
   AST producing a :class:`ModuleSummary` -- imported-name aliases,
   classes with their bases and attribute types, and one
   :class:`FunctionSummary` per function with its ordered call sites
   and raise sites (each with the ``except`` context active at the
   site).  Summaries are plain data: the linker never sees an AST.

2. **Linking** (:class:`Project`): summaries from every file are
   joined into a global symbol table.  Aliases are followed through
   re-exports (``from repro.core.audit import AuditTarget`` in the
   ``repro.core`` package makes ``repro.core.AuditTarget`` resolve to
   the real class), constructor calls resolve to ``__init__``, ``self.m()``
   resolves through the MRO *and* fans out to subclass overrides
   (platform interfaces dispatch virtually), and
   ``functools.partial(f, ...)`` contributes an edge to ``f``.

Resolution is deliberately conservative: a receiver whose class
cannot be inferred produces no edge rather than a guessed one, so the
interprocedural rule stays false-positive-free on the clean tree.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.analysis.core import ModuleContext, dotted_name

__all__ = [
    "CallSite",
    "ClassSummary",
    "FunctionSummary",
    "ModuleSummary",
    "Project",
    "RaiseSite",
    "extract_summary",
]

#: Value-reference kinds of a call's first positional argument:
#: ``("var", name)`` a bare name other than a parameter,
#: ``("func", dotted)`` a name resolved through imports, ``("opaque",)``
#: anything else.
ValueRef = tuple

#: Callee-reference kinds: ``("dotted", name)`` resolved through
#: imports, ``("local", name)`` a module-level name, ``("method",
#: hint, name)`` an attribute call whose receiver class ``hint`` is
#: ``("self",)``, ``("class", ref)``, or ``None``; ``("opaque",)``.
CalleeRef = tuple


@dataclass
class CallSite:
    """One call expression inside a function body."""

    callee: CalleeRef
    #: Value ref of the first positional argument (the function a
    #: ``functools.partial`` wraps), or ``None`` when there is none.
    first_arg: ValueRef | None = None
    #: Exception-type refs caught by enclosing ``try`` bodies, outermost
    #: first; each entry is the handler-type list of one ``try``.
    caught: list[list[CalleeRef]] = field(default_factory=list)
    line: int = 0
    col: int = 0


@dataclass
class RaiseSite:
    """One ``raise`` statement inside a function body."""

    #: Exception type ref, or ``None`` for a bare/dynamic re-raise.
    exc: CalleeRef | None
    #: True when the raise re-raises the active handler's exception.
    reraise: bool
    caught: list[list[CalleeRef]] = field(default_factory=list)
    line: int = 0
    col: int = 0


@dataclass
class FunctionSummary:
    """Everything the escape rule needs about one function."""

    #: Qualified name local to the module (``fn``, ``Cls.m``,
    #: ``fn.<locals>.inner``).
    local_qname: str
    name: str
    line: int
    col: int
    params: list[str] = field(default_factory=list)
    #: Parameter annotations resolved to dotted refs where possible.
    annotations: dict[str, CalleeRef] = field(default_factory=dict)
    #: True when the function takes part in request dispatch (a param
    #: named ``request`` or annotated ``HttpRequest``).
    request_path: bool = False
    calls: list[CallSite] = field(default_factory=list)
    raises: list[RaiseSite] = field(default_factory=list)


@dataclass
class ClassSummary:
    """One class: bases, methods, and inferred attribute types."""

    local_qname: str
    name: str
    line: int
    bases: list[CalleeRef] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    #: ``self.attr`` types inferred from ``__init__`` constructor
    #: assignments and class-level annotations.
    attr_types: dict[str, CalleeRef] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """The per-file extraction product consumed by the linker."""

    path: str
    module: str
    is_package: bool
    #: Local dotted name -> imported/re-exported dotted target.
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)


# -- extraction -----------------------------------------------------------


def _annotation_ref(node: ast.expr | None, ctx: ModuleContext) -> CalleeRef | None:
    """Resolve a parameter/base annotation to a callee ref."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: keep the bare trailing name as a local ref.
        return ("local", node.value.split(".")[-1].strip())
    if isinstance(node, ast.Subscript):  # Optional[X] / list[X]: skip
        return None
    dotted = dotted_name(node, ctx.bindings)
    if dotted is not None:
        return ("dotted", dotted)
    if isinstance(node, ast.Name):
        return ("local", node.id)
    return None


class _FunctionExtractor(ast.NodeVisitor):
    """Walks one function body (not nested defs), collecting facts."""

    def __init__(
        self,
        ctx: ModuleContext,
        summary: FunctionSummary,
        class_name: str | None,
    ):
        self.ctx = ctx
        self.summary = summary
        self.class_name = class_name
        #: Stack of handler-type lists for enclosing try bodies.
        self._catch_stack: list[list[CalleeRef]] = []
        #: Names bound by ``except ... as name`` currently in scope.
        self._handler_names: list[str] = []
        #: Local variable -> inferred class ref (constructor calls and
        #: annotated assignments), flow-insensitive last-writer-wins.
        self._var_classes: dict[str, CalleeRef] = {}
        self._params = frozenset(summary.params)

    # -- reference classification --

    def _value_ref(self, node: ast.expr) -> ValueRef:
        if isinstance(node, ast.Name):
            return ("opaque",) if node.id in self._params else ("var", node.id)
        if isinstance(node, ast.Attribute):
            dotted = self.ctx.resolve(node)
            if dotted is not None:
                return ("func", dotted)
        return ("opaque",)

    def _receiver_hint(self, node: ast.expr) -> CalleeRef | None:
        """Inferred class of an attribute-call receiver, if any."""
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls") and self.class_name:
                return ("self",)
            annotated = self.summary.annotations.get(node.id)
            if annotated is not None:
                return annotated
            return self._var_classes.get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.class_name is not None
        ):
            return ("self-attr", node.attr)
        return None

    def _callee_ref(self, func: ast.expr) -> CalleeRef:
        dotted = self.ctx.resolve(func)
        if dotted is not None:
            return ("dotted", dotted)
        if isinstance(func, ast.Name):
            return ("local", func.id)
        if isinstance(func, ast.Attribute):
            hint = self._receiver_hint(func.value)
            return ("method", hint, func.attr)
        return ("opaque",)

    def _exception_ref(self, node: ast.expr) -> CalleeRef | None:
        target = node.func if isinstance(node, ast.Call) else node
        dotted = self.ctx.resolve(target)
        if dotted is not None:
            return ("dotted", dotted)
        if isinstance(target, ast.Name):
            return ("local", target.id)
        return None

    # -- visitors --

    def visit_FunctionDef(self, node):  # nested defs summarised separately
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        pass

    def visit_Try(self, node: ast.Try) -> None:
        handler_types: list[CalleeRef] = []
        for handler in node.handlers:
            if handler.type is None:
                handler_types.append(("dotted", "builtins.BaseException"))
                continue
            elements = (
                handler.type.elts
                if isinstance(handler.type, ast.Tuple)
                else [handler.type]
            )
            for element in elements:
                ref = self._exception_ref(element)
                if ref is not None:
                    handler_types.append(ref)
        self._catch_stack.append(handler_types)
        for statement in node.body:
            self.visit(statement)
        self._catch_stack.pop()
        # Handler bodies, orelse, and finally run outside the try's
        # protection; exceptions raised there propagate.
        for handler in node.handlers:
            if handler.name:
                self._handler_names.append(handler.name)
            for statement in handler.body:
                self.visit(statement)
            if handler.name:
                self._handler_names.pop()
        for statement in node.orelse + node.finalbody:
            self.visit(statement)

    visit_TryStar = visit_Try

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)  # inner calls first: args before use
        site = CallSite(
            callee=self._callee_ref(node.func),
            first_arg=self._value_ref(node.args[0]) if node.args else None,
            caught=[list(layer) for layer in self._catch_stack],
            line=node.lineno,
            col=node.col_offset,
        )
        self.summary.calls.append(site)

    def visit_Raise(self, node: ast.Raise) -> None:
        self.generic_visit(node)
        reraise = node.exc is None or (
            isinstance(node.exc, ast.Name) and node.exc.id in self._handler_names
        )
        exc = None if reraise else self._exception_ref(node.exc)
        self.summary.raises.append(
            RaiseSite(
                exc=exc,
                reraise=reraise,
                caught=[list(layer) for layer in self._catch_stack],
                line=node.lineno,
                col=node.col_offset,
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._note_var_class(target.id, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if isinstance(node.target, ast.Name):
            annotated = _annotation_ref(node.annotation, self.ctx)
            if annotated is not None:
                self._var_classes[node.target.id] = annotated
            elif node.value is not None:
                self._note_var_class(node.target.id, node.value)

    def _note_var_class(self, name: str, value: ast.expr) -> None:
        if isinstance(value, ast.BoolOp) and value.values:
            for operand in value.values:
                if isinstance(operand, ast.Call):
                    value = operand
                    break
        if isinstance(value, ast.Call):
            ref = self._callee_ref(value.func)
            if ref[0] in ("dotted", "local"):
                self._var_classes[name] = ref
                return
        self._var_classes.pop(name, None)

    def run(self, body: Sequence[ast.stmt]) -> None:
        for statement in body:
            self.visit(statement)


def _function_summary(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    local_qname: str,
    ctx: ModuleContext,
    class_name: str | None,
    enclosing: Mapping[str, CalleeRef] | None = None,
) -> FunctionSummary:
    """Summarise one function.

    ``enclosing`` holds the annotated names of the function this one is
    nested in.  A free name of a closure -- one it neither takes nor
    assigns -- keeps its enclosing annotation, so a route handler's
    ``codec.decode_batch(...)`` resolves through the factory's
    ``codec: RouteCodec`` parameter.
    """
    params = [
        a.arg
        for a in list(node.args.posonlyargs)
        + list(node.args.args)
        + list(node.args.kwonlyargs)
    ]
    annotations: dict[str, CalleeRef] = {}
    if enclosing:
        bound = set(params) | {
            sub.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
        }
        annotations.update(
            (name, ref) for name, ref in enclosing.items() if name not in bound
        )
    request_path = False
    for arg in (
        list(node.args.posonlyargs)
        + list(node.args.args)
        + list(node.args.kwonlyargs)
    ):
        ref = _annotation_ref(arg.annotation, ctx)
        if ref is not None:
            annotations[arg.arg] = ref
        annotation_name = getattr(arg.annotation, "id", None) or getattr(
            arg.annotation, "attr", None
        )
        if arg.arg == "request" or annotation_name == "HttpRequest":
            request_path = True
    summary = FunctionSummary(
        local_qname=local_qname,
        name=node.name,
        line=node.lineno,
        col=node.col_offset,
        params=params,
        annotations=annotations,
        request_path=request_path,
    )
    _FunctionExtractor(ctx, summary, class_name).run(node.body)
    return summary


def _class_attr_types(
    node: ast.ClassDef, ctx: ModuleContext, extractor_cls=None
) -> dict[str, CalleeRef]:
    """Infer ``self.attr`` classes from ``__init__`` and annotations."""
    attr_types: dict[str, CalleeRef] = {}
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            ref = _annotation_ref(statement.annotation, ctx)
            if ref is not None:
                attr_types[statement.target.id] = ref
    for statement in node.body:
        if (
            isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
            and statement.name == "__init__"
        ):
            for sub in ast.walk(statement):
                if not isinstance(sub, ast.Assign):
                    continue
                value = sub.value
                if isinstance(value, ast.BoolOp) and value.values:
                    calls = [v for v in value.values if isinstance(v, ast.Call)]
                    value = calls[0] if calls else value
                if not isinstance(value, ast.Call):
                    continue
                ref_target = value.func
                dotted = ctx.resolve(ref_target)
                ref: CalleeRef | None
                if dotted is not None:
                    ref = ("dotted", dotted)
                elif isinstance(ref_target, ast.Name):
                    ref = ("local", ref_target.id)
                else:
                    ref = None
                if ref is None:
                    continue
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attr_types[target.attr] = ref
    return attr_types


def extract_summary(ctx: ModuleContext) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one parsed module."""
    summary = ModuleSummary(
        path=ctx.path, module=ctx.module, is_package=ctx.is_package
    )
    summary.aliases = dict(ctx.bindings)

    def walk_body(
        body: Sequence[ast.stmt],
        prefix: str,
        class_name: str | None,
        enclosing: Mapping[str, CalleeRef] | None = None,
    ) -> None:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local_qname = f"{prefix}{statement.name}"
                function = summary.functions[local_qname] = _function_summary(
                    statement, local_qname, ctx, class_name, enclosing
                )
                walk_body(
                    statement.body,
                    f"{local_qname}.<locals>.",
                    class_name,
                    function.annotations,
                )
            elif isinstance(statement, ast.ClassDef):
                class_qname = f"{prefix}{statement.name}"
                bases: list[CalleeRef] = []
                for base in statement.bases:
                    dotted = ctx.resolve(base)
                    if dotted is not None:
                        bases.append(("dotted", dotted))
                    elif isinstance(base, ast.Name):
                        bases.append(("local", base.id))
                info = ClassSummary(
                    local_qname=class_qname,
                    name=statement.name,
                    line=statement.lineno,
                    bases=bases,
                    methods=[
                        s.name
                        for s in statement.body
                        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                    ],
                    attr_types=_class_attr_types(statement, ctx),
                )
                summary.classes[class_qname] = info
                for s in statement.body:
                    if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_qname = f"{class_qname}.{s.name}"
                        method = summary.functions[method_qname] = (
                            _function_summary(s, method_qname, ctx, class_qname)
                        )
                        walk_body(
                            s.body,
                            f"{method_qname}.<locals>.",
                            class_qname,
                            method.annotations,
                        )
            elif isinstance(statement, (ast.If, ast.Try)):
                walk_body(
                    list(getattr(statement, "body", []))
                    + list(getattr(statement, "orelse", []))
                    + list(getattr(statement, "finalbody", [])),
                    prefix,
                    class_name,
                    enclosing,
                )
            elif isinstance(statement, ast.Assign) and prefix == "":
                # Module-level re-export aliases: NAME = imported.name
                dotted = ctx.resolve(statement.value)
                if dotted is not None:
                    for target in statement.targets:
                        if isinstance(target, ast.Name):
                            summary.aliases[target.id] = dotted

    walk_body(ctx.tree.body, "", None)
    return summary


# -- linking --------------------------------------------------------------

_BUILTIN_EXCEPTIONS: dict[str, type] = {
    name: obj
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


@dataclass
class FunctionNode:
    """A linked function: its summary plus project-wide identity."""

    qname: str
    module: str
    path: str
    summary: FunctionSummary
    class_qname: str | None = None


@dataclass
class ClassNode:
    qname: str
    module: str
    summary: ClassSummary
    base_qnames: list[str] = field(default_factory=list)
    #: Builtin base names reached by the bases (e.g. ``ValueError``).
    builtin_bases: list[str] = field(default_factory=list)


class Project:
    """Whole-program view: symbol table, class hierarchy, call graph."""

    def __init__(self, summaries: Iterable[ModuleSummary]):
        #: Every linked summary, including any whose module name another
        #: file shadows in :attr:`modules`.
        self.summaries: list[ModuleSummary] = list(summaries)
        self.modules: dict[str, ModuleSummary] = {}
        self.functions: dict[str, FunctionNode] = {}
        self.classes: dict[str, ClassNode] = {}
        #: local dotted name -> target dotted name, across all modules.
        self._aliases: dict[str, str] = {}
        self._subclasses: dict[str, list[str]] = {}
        self._resolution_cache: dict[str, str | None] = {}
        self._edge_cache: dict[tuple[str, int], tuple[str, ...]] = {}
        for summary in self.summaries:
            self._add_module(summary)
        self._link_classes()

    # -- construction --

    def _add_module(self, summary: ModuleSummary) -> None:
        self.modules[summary.module] = summary
        for local, target in summary.aliases.items():
            self._aliases[f"{summary.module}.{local}"] = target
        for local_qname, func in summary.functions.items():
            qname = f"{summary.module}.{local_qname}"
            class_qname = None
            if "." in local_qname and "<locals>" not in local_qname:
                candidate = local_qname.rsplit(".", 1)[0]
                if candidate in summary.classes:
                    class_qname = f"{summary.module}.{candidate}"
            self.functions[qname] = FunctionNode(
                qname=qname,
                module=summary.module,
                path=summary.path,
                summary=func,
                class_qname=class_qname,
            )
        for local_qname, cls in summary.classes.items():
            qname = f"{summary.module}.{local_qname}"
            self.classes[qname] = ClassNode(
                qname=qname, module=summary.module, summary=cls
            )

    def _link_classes(self) -> None:
        for qname, node in self.classes.items():
            for base in node.summary.bases:
                resolved = self._resolve_ref_to_class(base, node.module)
                if resolved is not None:
                    node.base_qnames.append(resolved)
                    self._subclasses.setdefault(resolved, []).append(qname)
                elif base[0] == "dotted":
                    tail = base[1].rsplit(".", 1)[-1]
                    if tail in _BUILTIN_EXCEPTIONS:
                        node.builtin_bases.append(tail)
                elif base[0] == "local" and base[1] in _BUILTIN_EXCEPTIONS:
                    node.builtin_bases.append(base[1])

    # -- name resolution --

    def resolve_dotted(self, dotted: str) -> str | None:
        """Canonical symbol qname for a dotted name, following aliases.

        Handles chains through re-exports and facades: the longest
        resolvable prefix is rewritten and the remainder re-attached
        until the name lands on a known function/class/module (or
        nothing changes).
        """
        cached = self._resolution_cache.get(dotted)
        if cached is not None or dotted in self._resolution_cache:
            return cached
        seen: set[str] = set()
        current = dotted
        while current not in seen:
            seen.add(current)
            if current in self.functions or current in self.classes:
                self._resolution_cache[dotted] = current
                return current
            rewritten = self._rewrite_once(current)
            if rewritten is None:
                break
            current = rewritten
        result = (
            current
            if current in self.functions or current in self.classes
            else None
        )
        self._resolution_cache[dotted] = result
        return result

    def _rewrite_once(self, dotted: str) -> str | None:
        if dotted in self._aliases and self._aliases[dotted] != dotted:
            return self._aliases[dotted]
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            target = self._aliases.get(prefix)
            if target is not None and target != prefix:
                return ".".join([target] + parts[cut:])
        return None

    def _resolve_ref_to_class(
        self, ref: CalleeRef, module: str
    ) -> str | None:
        if ref[0] == "dotted":
            resolved = self.resolve_dotted(ref[1])
        elif ref[0] == "local":
            resolved = self.resolve_dotted(f"{module}.{ref[1]}")
        else:
            return None
        return resolved if resolved in self.classes else None

    # -- class hierarchy --

    def mro(self, class_qname: str) -> list[str]:
        """Linearised base-class chain (own class first, cycles cut)."""
        order: list[str] = []
        stack = [class_qname]
        seen: set[str] = set()
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            order.append(current)
            stack.extend(self.classes[current].base_qnames)
        return order

    def subclasses(self, class_qname: str) -> list[str]:
        """All transitive subclasses, in deterministic order."""
        result: list[str] = []
        stack = list(self._subclasses.get(class_qname, []))
        seen: set[str] = set()
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            result.append(current)
            stack.extend(self._subclasses.get(current, []))
        return sorted(result)

    def method_in_mro(self, class_qname: str, method: str) -> str | None:
        for cls in self.mro(class_qname):
            candidate = f"{cls}.{method}"
            if candidate in self.functions:
                return candidate
        return None

    def is_subtype(self, class_qname: str, ancestor_qname: str) -> bool:
        return ancestor_qname in self.mro(class_qname)

    def builtin_ancestors(self, class_qname: str) -> set[str]:
        """Builtin exception names the class (transitively) derives from."""
        names: set[str] = set()
        for cls in self.mro(class_qname):
            for name in self.classes[cls].builtin_bases:
                exc = _BUILTIN_EXCEPTIONS.get(name)
                while exc is not None and issubclass(exc, BaseException):
                    names.add(exc.__name__)
                    exc = exc.__bases__[0] if exc.__bases__ else None
        return names

    # -- exception-type resolution --

    def resolve_exception(
        self, ref: CalleeRef | None, module: str
    ) -> str | None:
        """Canonical name for an exception-type ref.

        Returns a project class qname, a ``builtins.X`` name, or
        ``None`` when unresolvable.
        """
        if ref is None:
            return None
        if ref[0] == "dotted":
            resolved = self.resolve_dotted(ref[1])
            if resolved in self.classes:
                return resolved
            tail = ref[1].rsplit(".", 1)[-1]
            if tail in _BUILTIN_EXCEPTIONS:
                return f"builtins.{tail}"
            return None
        if ref[0] == "local":
            resolved = self.resolve_dotted(f"{module}.{ref[1]}")
            if resolved in self.classes:
                return resolved
            if ref[1] in _BUILTIN_EXCEPTIONS:
                return f"builtins.{ref[1]}"
        return None

    def exception_caught_by(self, raised: str, caught: str) -> bool:
        """Would ``except <caught>`` catch an instance of ``raised``?"""
        if caught.startswith("builtins."):
            caught_type = _BUILTIN_EXCEPTIONS.get(caught.split(".", 1)[1])
            if caught_type is None:
                return False
            if raised.startswith("builtins."):
                raised_type = _BUILTIN_EXCEPTIONS.get(raised.split(".", 1)[1])
                return raised_type is not None and issubclass(
                    raised_type, caught_type
                )
            ancestors = self.builtin_ancestors(raised)
            # Project classes ultimately derive from Exception even when
            # no builtin base is spelled out.
            ancestors |= {"Exception", "BaseException"}
            return caught_type.__name__ in ancestors
        if raised.startswith("builtins."):
            return False
        return self.is_subtype(raised, caught)

    # -- call-graph edges --

    def _resolve_callee(
        self, node: FunctionNode, site: CallSite
    ) -> tuple[str, ...]:
        kind = site.callee[0]
        targets: list[str] = []
        if kind == "dotted":
            resolved = self.resolve_dotted(site.callee[1])
            if resolved in self.classes:
                init = self.method_in_mro(resolved, "__init__")
                targets += [init] if init else []
            elif resolved in self.functions:
                targets.append(resolved)
        elif kind == "local":
            resolved = self.resolve_dotted(f"{node.module}.{site.callee[1]}")
            if resolved is None:
                # A nested function: first a child of this function,
                # then a sibling in the same enclosing scope.
                own = node.summary.local_qname
                candidates = [f"{node.module}.{own}.<locals>.{site.callee[1]}"]
                if ".<locals>." in own:
                    enclosing = own.rsplit(".<locals>.", 1)[0]
                    candidates.append(
                        f"{node.module}.{enclosing}.<locals>.{site.callee[1]}"
                    )
                for nested in candidates:
                    if nested in self.functions:
                        resolved = nested
                        break
            if resolved in self.classes:
                init = self.method_in_mro(resolved, "__init__")
                targets += [init] if init else []
            elif resolved in self.functions:
                targets.append(resolved)
        elif kind == "method":
            hint, method = site.callee[1], site.callee[2]
            targets += self._resolve_method(node, hint, method)
        # functools.partial(f, ...) contributes an edge to f at the
        # partial's creation site.
        arg = site.first_arg
        if (
            kind in ("dotted", "local")
            and site.callee[-1].split(".")[-1] == "partial"
            and arg is not None
        ):
            if arg[0] == "func":
                resolved = self.resolve_dotted(arg[1])
            elif arg[0] == "var":
                # A bare name: an imported alias or module-level
                # function (a true local resolves to nothing).
                resolved = self.resolve_dotted(f"{node.module}.{arg[1]}")
            else:
                resolved = None
            if resolved in self.functions:
                targets.append(resolved)
        seen: set[str] = set()
        ordered = tuple(t for t in targets if not (t in seen or seen.add(t)))
        return ordered

    def receiver_class(
        self, node: FunctionNode, hint: CalleeRef | None
    ) -> str | None:
        """Class qname of a method call's receiver in ``node``, if known."""
        if hint is None:
            return None
        if hint[0] == "self":
            return node.class_qname
        if hint[0] == "self-attr":
            if node.class_qname is None:
                return None
            attr_ref = self.classes[node.class_qname].summary.attr_types.get(
                hint[1]
            )
            if attr_ref is None:
                return None
            return self._resolve_ref_to_class(attr_ref, node.module)
        return self._resolve_ref_to_class(hint, node.module)

    def _resolve_method(
        self, node: FunctionNode, hint: CalleeRef | None, method: str
    ) -> list[str]:
        class_qname = self.receiver_class(node, hint)
        if class_qname is None:
            return []
        targets: list[str] = []
        defined = self.method_in_mro(class_qname, method)
        if defined is not None:
            targets.append(defined)
        # Virtual dispatch: overrides in subclasses of the receiver.
        for sub in self.subclasses(class_qname):
            candidate = f"{sub}.{method}"
            if candidate in self.functions:
                targets.append(candidate)
        return targets

    def callees_at(self, qname: str, site_index: int) -> tuple[str, ...]:
        """Resolved target qnames of one call site (memoised)."""
        key = (qname, site_index)
        cached = self._edge_cache.get(key)
        if cached is None:
            node = self.functions[qname]
            cached = self._resolve_callee(node, node.summary.calls[site_index])
            self._edge_cache[key] = cached
        return cached

    def callees(self, qname: str) -> Iterator[tuple[CallSite, tuple[str, ...]]]:
        """(call site, resolved targets) pairs for one function."""
        node = self.functions[qname]
        for index, site in enumerate(node.summary.calls):
            yield site, self.callees_at(qname, index)

    def callers(self, nodes: Sequence[str]) -> dict[str, set[str]]:
        """Reverse call graph restricted to ``nodes``: callee -> callers."""
        wanted = set(nodes)
        reverse: dict[str, set[str]] = {}
        for qname in nodes:
            for _, targets in self.callees(qname):
                for target in targets:
                    if target in wanted:
                        reverse.setdefault(target, set()).add(qname)
        return reverse
