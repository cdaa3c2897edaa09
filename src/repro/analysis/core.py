"""Engine of ``repro-lint``: AST contexts, rules, findings, suppression.

Every headline claim the reproduction makes -- bit-identical records
across chaos profiles, resumable checkpoints, reproducible figures --
rests on conventions (seeded RNGs, the virtual clock, typed transport
errors, a one-directional package DAG) that plain tests cannot see
being eroded.  This module is the enforcement substrate: it parses
each source file once, walks the tree once into a :class:`ModuleContext`
(AST, nodes grouped by type, import statements, resolved import
bindings, suppression directives), and runs every registered
:class:`Rule` over it, collecting :class:`Finding` records.  Rules
read the context's node index rather than walking the tree again, and
only a file that mentions ``repro-lint:`` is tokenized for directives.

The rule set is pluggable: rules register themselves via the
:func:`rule` decorator and live in sibling modules grouped by family
(:mod:`repro.analysis.determinism`, :mod:`repro.analysis.layering`,
:mod:`repro.analysis.contracts`).  A finding is silenced by a
``# repro-lint: disable=<rule>`` comment -- trailing a line to silence
that line, or on a line of its own to silence the whole file.

This package is deliberately an island: it imports nothing from the
rest of :mod:`repro` (and the layering rules keep it that way), and
the ``repro`` facade it loads imports no layer at import time, so it
can lint the tree it lives in without importing it, even a tree that
does not parse (``tests/test_lint_clean.py`` checks both).
"""

from __future__ import annotations

import ast
import io
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "AnalysisReport",
    "FileResult",
    "Finding",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "module_name_for",
    "project_rule",
    "register",
    "rule",
]

#: Comment directive prefix recognised by the suppression scanner.
DIRECTIVE = "repro-lint:"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        return f"{self.location()}: {self.rule}: {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


RuleCheck = Callable[["ModuleContext"], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A named check run over one module's :class:`ModuleContext`."""

    id: str
    summary: str
    check: RuleCheck

    @property
    def family(self) -> str:
        """Rule family, the id segment before the slash."""
        return self.id.partition("/")[0]


_REGISTRY: dict[str, Rule] = {}


def register(new_rule: Rule) -> Rule:
    """Add a rule to the global registry (duplicate ids raise)."""
    if new_rule.id in _REGISTRY:
        raise ValueError(f"rule {new_rule.id!r} already registered")
    _REGISTRY[new_rule.id] = new_rule
    return new_rule


def rule(rule_id: str, summary: str) -> Callable[[RuleCheck], RuleCheck]:
    """Decorator registering a check function as a :class:`Rule`."""

    def decorate(check: RuleCheck) -> RuleCheck:
        register(Rule(id=rule_id, summary=summary, check=check))
        return check

    return decorate


def _load_builtin_rules() -> None:
    # Imported for their registration side effects only.
    from repro.analysis import (  # noqa: F401
        contracts,
        determinism,
        layering,
        obs_rules,
    )


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by id."""
    _load_builtin_rules()
    return tuple(_REGISTRY[key] for key in sorted(_REGISTRY))


# -- project rules --------------------------------------------------------

#: A project rule's check runs once over the linked
#: :class:`~repro.analysis.graph.Project` rather than per module.
ProjectCheck = Callable[[object], Iterable[Finding]]


@dataclass(frozen=True)
class ProjectRule:
    """A whole-program check run over the linked call graph."""

    id: str
    summary: str
    check: ProjectCheck

    @property
    def family(self) -> str:
        """Rule family, the id segment before the slash."""
        return self.id.partition("/")[0]


_PROJECT_REGISTRY: dict[str, ProjectRule] = {}


def project_rule(
    rule_id: str, summary: str
) -> Callable[[ProjectCheck], ProjectCheck]:
    """Decorator registering a check as a :class:`ProjectRule`."""

    def decorate(check: ProjectCheck) -> ProjectCheck:
        if rule_id in _PROJECT_REGISTRY or rule_id in _REGISTRY:
            raise ValueError(f"rule {rule_id!r} already registered")
        _PROJECT_REGISTRY[rule_id] = ProjectRule(
            id=rule_id, summary=summary, check=check
        )
        return check

    return decorate


def all_project_rules() -> tuple[ProjectRule, ...]:
    """Every registered project rule, sorted by id."""
    # Imported for their registration side effects only.
    from repro.analysis import flows  # noqa: F401

    return tuple(_PROJECT_REGISTRY[key] for key in sorted(_PROJECT_REGISTRY))


# -- import resolution ----------------------------------------------------


#: An import statement, as :attr:`ModuleContext.imports` lists them.
ImportNode = ast.Import | ast.ImportFrom


def import_base(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """Absolute module a ``from ... import`` statement imports from.

    Relative imports are resolved against ``module`` (the importing
    module's dotted name), so layer checks see absolute targets.
    """
    base = node.module or ""
    if not node.level:
        return base
    package_parts = module.split(".") if module else []
    if not is_package and package_parts:
        package_parts = package_parts[:-1]
    anchor = package_parts[: len(package_parts) - (node.level - 1)]
    return ".".join(anchor + ([base] if base else []))


def _collect_bindings(
    imports: Sequence[ImportNode], module: str, is_package: bool
) -> dict[str, str]:
    """Map local names to the dotted names their imports bound.

    ``import numpy as np`` binds ``np -> numpy``; ``from time import
    time`` binds ``time -> time.time``.  Function- and class-level
    imports are included: shadowing between scopes is rare enough in
    this codebase that a flat map keeps resolution simple without
    measurable false positives.
    """
    bindings: dict[str, str] = {}
    for node in imports:
        if type(node) is ast.Import:
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                bindings[local] = target
            continue
        base = import_base(node, module, is_package)
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            bindings[local] = f"{base}.{alias.name}" if base else alias.name
    return bindings


def dotted_name(node: ast.AST, bindings: Mapping[str, str]) -> str | None:
    """Resolve an attribute chain to a dotted name via import bindings.

    Returns ``None`` when the chain does not bottom out in an imported
    name -- a local variable, a call result, a subscript -- so callers
    never mistake ``self.time()`` for :func:`time.time`.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = bindings.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


# -- suppression directives ----------------------------------------------


def _matches(selector: str, rule_id: str) -> bool:
    if selector in ("all", "*"):
        return True
    if selector.endswith("/*"):
        return rule_id.partition("/")[0] == selector[:-2]
    return rule_id == selector or rule_id.startswith(selector + "/")


def _directive_selectors(comment: str) -> set[str] | None:
    """Selectors from one comment token, or ``None`` if not a directive."""
    text = comment.lstrip("#").strip()
    if not text.startswith(DIRECTIVE):
        return None
    text = text[len(DIRECTIVE) :].strip()
    if not text.startswith("disable="):
        return None
    return {
        part.strip()
        for part in text[len("disable=") :].split()[0].split(",")
        if part.strip()
    }


def _parse_directives(
    source: str,
) -> tuple[dict[int, set[str]], set[str]]:
    """(line -> selectors, file-wide selectors) from lint comments.

    A directive trailing a statement suppresses matching rules on
    every line of that *logical* statement -- a trailing directive on
    the first line of a multi-line call covers the whole call.  A
    directive on a line of its own at statement level suppresses for
    the whole file.  Tokenizing (rather than regex over lines) keeps
    directive-looking text inside string literals inert and lets
    logical-line extents come from NEWLINE/NL tokens instead of
    bracket-counting heuristics.  A source without the
    :data:`DIRECTIVE` text cannot hold a directive, so it is not
    tokenized at all.
    """
    per_line: dict[int, set[str]] = {}
    file_wide: set[str] = set()
    if DIRECTIVE not in source:
        return per_line, file_wide
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return per_line, file_wide
    skip = {
        tokenize.NL,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
    logical_start: int | None = None
    pending: set[str] = set()
    last_code_line = 0

    def flush(end_line: int) -> None:
        nonlocal logical_start, pending
        if pending and logical_start is not None:
            for line in range(logical_start, end_line + 1):
                per_line.setdefault(line, set()).update(pending)
        logical_start = None
        pending = set()

    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            selectors = _directive_selectors(tok.string)
            if selectors is None:
                continue
            if logical_start is None:
                file_wide.update(selectors)
            else:
                pending.update(selectors)
            continue
        if tok.type == tokenize.NEWLINE:
            flush(tok.start[0])
            continue
        if tok.type in skip:
            continue
        if logical_start is None:
            logical_start = tok.start[0]
        last_code_line = tok.end[0]
    flush(last_code_line)
    return per_line, file_wide


# -- module context -------------------------------------------------------


def _index(tree: ast.Module) -> tuple[dict[type, list[ast.AST]], list[ImportNode]]:
    """One ``ast.walk`` of ``tree``: its nodes by exact type, and its
    ``Import``/``ImportFrom`` statements, both in walk order."""
    by_type: dict[type, list[ast.AST]] = {}
    imports: list[ImportNode] = []
    for node in ast.walk(tree):
        kind = type(node)
        by_type.setdefault(kind, []).append(node)
        if kind is ast.Import or kind is ast.ImportFrom:
            imports.append(node)
    return by_type, imports


@dataclass
class ModuleContext:
    """Everything a rule needs to check one parsed module.

    The tree is walked once, when the context is built; rules that
    look at one node type read :meth:`nodes` or :attr:`imports`
    instead of walking it again.
    """

    path: str
    module: str
    is_package: bool
    tree: ast.Module
    #: Every node of ``tree`` grouped by exact type, in ``ast.walk`` order.
    by_type: Mapping[type, list[ast.AST]]
    #: The ``Import``/``ImportFrom`` statements, in ``ast.walk`` order.
    imports: Sequence[ImportNode]
    bindings: Mapping[str, str]
    line_suppressions: Mapping[int, set[str]]
    file_suppressions: frozenset[str]

    def nodes(self, kind: type) -> list[ast.AST]:
        """The nodes of exactly type ``kind``, in ``ast.walk`` order."""
        return self.by_type.get(kind, [])

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name an expression refers to, or ``None``."""
        return dotted_name(node, self.bindings)

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule_id,
            message=message,
        )

    def is_suppressed(self, finding: Finding) -> bool:
        selectors = self.line_suppressions.get(finding.line, set())
        for selector in selectors | set(self.file_suppressions):
            if _matches(selector, finding.rule):
                return True
        return False


def module_name_for(path: Path) -> tuple[str, bool]:
    """(dotted module name, is_package) for a file inside a package.

    Walks up while ``__init__.py`` siblings exist, so the result is
    independent of the directory the analyzer was invoked from.
    Files outside any package resolve to their bare stem.
    """
    path = path.resolve()
    is_package = path.name == "__init__.py"
    parts: list[str] = [] if is_package else [path.stem]
    current = path.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        current = current.parent
    return ".".join(reversed(parts)), is_package


# -- analysis entry points ------------------------------------------------


@dataclass
class AnalysisReport:
    """Outcome of one analyzer run over a set of paths."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files: int = 0
    parse_errors: list[str] = field(default_factory=list)
    #: Wall seconds spent linking + running whole-program rules.
    interprocedural_seconds: float = 0.0

    def rule_counts(self, rules: Sequence[Rule]) -> dict[str, int]:
        """Unsuppressed finding count per rule id (zeros included)."""
        counts = {item.id: 0 for item in rules}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def family_counts(self) -> dict[str, int]:
        """Unsuppressed finding count per rule family."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            family = finding.rule.partition("/")[0]
            counts[family] = counts.get(family, 0) + 1
        return counts

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors


def build_context(
    source: str,
    path: str = "<string>",
    module: str = "",
    is_package: bool = False,
) -> ModuleContext:
    """Parse one source string into a :class:`ModuleContext`.

    The one parse and the one walk of the file; the directive scan
    tokenizes only a source that mentions :data:`DIRECTIVE`.
    """
    tree = ast.parse(source, filename=path)
    by_type, imports = _index(tree)
    per_line, file_wide = _parse_directives(source)
    return ModuleContext(
        path=path,
        module=module,
        is_package=is_package,
        tree=tree,
        by_type=by_type,
        imports=imports,
        bindings=_collect_bindings(imports, module, is_package),
        line_suppressions=per_line,
        file_suppressions=frozenset(file_wide),
    )


def _run_module_rules(
    ctx: ModuleContext, rules: Sequence[Rule]
) -> tuple[list[Finding], list[Finding]]:
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for item in rules:
        for finding in item.check(ctx):
            (suppressed if ctx.is_suppressed(finding) else findings).append(finding)
    return sorted(findings), sorted(suppressed)


def analyze_source(
    source: str,
    path: str = "<string>",
    module: str = "",
    is_package: bool = False,
    rules: Sequence[Rule] | None = None,
) -> tuple[list[Finding], list[Finding]]:
    """Lint one source string; returns (findings, suppressed findings)."""
    rules = list(rules) if rules is not None else list(all_rules())
    ctx = build_context(source, path=path, module=module, is_package=is_package)
    return _run_module_rules(ctx, rules)


#: Per-path suppression maps gathered during extraction, consumed when
#: routing whole-program findings: path -> (line map, file-wide set).
SuppressionIndex = Mapping[str, tuple[Mapping[int, set[str]], frozenset[str]]]


def run_project_rules(
    project: object,
    project_rules: Sequence[ProjectRule],
    suppressions: SuppressionIndex,
) -> tuple[list[Finding], list[Finding]]:
    """Run whole-program rules; route findings through suppressions."""
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for item in project_rules:
        for finding in item.check(project):
            per_line, file_wide = suppressions.get(
                finding.path, ({}, frozenset())
            )
            selectors = set(per_line.get(finding.line, set())) | set(file_wide)
            if any(_matches(s, finding.rule) for s in selectors):
                suppressed.append(finding)
            else:
                findings.append(finding)
    return sorted(findings), sorted(suppressed)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Python files under the given files/directories, sorted."""
    seen: list[Path] = []
    for path in paths:
        if path.is_dir():
            seen.extend(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py":
            seen.append(path)
    yield from sorted(set(seen))


@dataclass
class FileResult:
    """Product of the per-file pass over one module."""

    path: str
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    #: The module's :class:`~repro.analysis.graph.ModuleSummary`, the
    #: only per-file product the whole-program link needs.
    summary: object = None
    #: (line map, file-wide set) routing whole-program findings.
    suppressions: tuple[Mapping[int, set[str]], frozenset[str]] = ({}, frozenset())
    parse_error: str | None = None


def analyze_file(
    source: str,
    path: str,
    module: str,
    is_package: bool,
    rules: Sequence[Rule],
) -> FileResult:
    """The per-file pass: parse, run the module rules, extract a summary."""
    from repro.analysis import graph

    try:
        ctx = build_context(source, path=path, module=module, is_package=is_package)
    except SyntaxError as exc:
        return FileResult(path, parse_error=f"{path}: {exc}")
    findings, suppressed = _run_module_rules(ctx, rules)
    return FileResult(
        path,
        findings,
        suppressed,
        graph.extract_summary(ctx),
        (ctx.line_suppressions, ctx.file_suppressions),
    )


def _link(
    results: Iterable[FileResult],
    project_rules: Sequence[ProjectRule] | None,
) -> AnalysisReport:
    """Gather per-file results, link them, and run the project rules."""
    from repro.analysis.graph import Project

    if project_rules is None:
        project_rules = all_project_rules()
    report = AnalysisReport()
    summaries = []
    suppressions: dict[str, tuple[Mapping[int, set[str]], frozenset[str]]] = {}
    for result in results:
        report.files += 1
        if result.parse_error is not None:
            report.parse_errors.append(result.parse_error)
            continue
        report.findings.extend(result.findings)
        report.suppressed.extend(result.suppressed)
        summaries.append(result.summary)
        suppressions[result.path] = result.suppressions
    started = time.perf_counter()
    project = Project(summaries)
    findings, suppressed = run_project_rules(project, project_rules, suppressions)
    report.interprocedural_seconds = time.perf_counter() - started
    report.findings.extend(findings)
    report.suppressed.extend(suppressed)
    report.findings.sort()
    report.suppressed.sort()
    return report


def analyze_paths(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    root: str | Path | None = None,
    project_rules: Sequence[ProjectRule] | None = None,
) -> AnalysisReport:
    """Lint every Python file under ``paths``.

    ``root`` anchors the paths reported in findings (defaults to the
    current directory; absolute paths are reported when a file lies
    outside it).  After the per-module pass, the modules are linked
    into a :class:`~repro.analysis.graph.Project` and every project
    rule runs over the whole-program call graph.
    """
    rules = list(rules) if rules is not None else list(all_rules())
    root = (Path(root) if root is not None else Path.cwd()).resolve()

    def results() -> Iterator[FileResult]:
        for file_path in iter_python_files(Path(p) for p in paths):
            try:
                display = file_path.resolve().relative_to(root).as_posix()
            except ValueError:
                display = file_path.as_posix()
            try:
                source = file_path.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                yield FileResult(display, parse_error=f"{display}: {exc}")
                continue
            module, is_package = module_name_for(file_path)
            yield analyze_file(source, display, module, is_package, rules)

    return _link(results(), project_rules)


def analyze_project(
    files: Sequence[tuple[str, str, str]],
    rules: Sequence[Rule] | None = None,
    project_rules: Sequence[ProjectRule] | None = None,
) -> tuple[list[Finding], list[Finding]]:
    """Lint a multi-module fixture given ``(path, module, source)`` triples.

    Runs the same pipeline as :func:`analyze_paths` over in-memory
    sources; used by tests to exercise interprocedural rules without
    touching the filesystem.
    """
    rules = list(rules) if rules is not None else list(all_rules())
    report = _link(
        (
            analyze_file(source, path, module, path.endswith("__init__.py"), rules)
            for path, module, source in files
        ),
        project_rules,
    )
    if report.parse_errors:
        raise SyntaxError(report.parse_errors[0])
    return report.findings, report.suppressed
