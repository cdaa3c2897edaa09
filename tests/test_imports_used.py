"""Tier-1 gate: no module in ``src/repro`` or ``tests/`` imports a name it never uses.

``test_ruff_clean`` runs ruff's F401 where ruff is installed; this AST
check holds the same line everywhere.  Only module-level imports are
checked.  A name listed in ``__all__``, imported under
``if TYPE_CHECKING:``, or a ``from __future__`` feature is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
ROOTS = (REPO_ROOT / "src" / "repro", REPO_ROOT / "tests")


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def top_level_imports(body: list[ast.stmt]):
    """``(bound name, line)`` of every module-level import outside TYPE_CHECKING."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.If) and _is_type_checking(node):
            continue
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for part in ("body", "orelse", "finalbody"):
                yield from top_level_imports(getattr(node, part, []))
            for handler in getattr(node, "handlers", []):
                yield from top_level_imports(handler.body)


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def used_names(tree: ast.Module) -> set[str]:
    """Names the module loads, including inside string annotations and ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            names = ast.walk(node.value)
            used |= {c.value for c in names if isinstance(c, ast.Constant)}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [(n, line) for n, line in top_level_imports(tree.body) if n not in used]


def test_no_unused_top_level_imports():
    unused = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
        for root in ROOTS
        for path in sorted(root.rglob("*.py"))
        for name, line in unused_imports(path.read_text())
    ]
    assert unused == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.getcwd()\n", []),
        ("from a import b as c\nb = 1\n", ["c"]),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from a import B\ndef f(x: 'list[B]') -> None: ...\n", []),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import a\n", []),
        ("try:\n    import a\nexcept ImportError:\n    import b\nb\n", ["a"]),
        ("def f():\n    import os\n", []),
    ],
)
def test_check_finds_seeded_unused_import(source, expected):
    assert [name for name, _ in unused_imports(source)] == expected
