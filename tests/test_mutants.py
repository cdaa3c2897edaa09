"""Every mutant in :mod:`tests.mutants` is still applicable and killed.

Tier-1 checks the catalogue against the tree: each old text occurs
exactly once in its file, and each named test exists.  The ``slow``
tests apply each mutant to a copy of ``src`` and ``tests`` and run its
named tests in a subprocess on that copy: each must fail, and each must
pass on the unmutated copy.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tests.mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent


def test_mutant_ids_are_unique():
    ids = [mutant.id for mutant in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_old_text_occurs_exactly_once(mutant: Mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_catalogue_names_existing_tests_and_entries(mutant: Mutant):
    assert mutant.kills
    for node_id in mutant.kills:
        path, *names = node_id.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            defined = rf"^\s*(def|class) {re.escape(name.split('[')[0])}\b"
            assert re.search(defined, source, re.M), node_id
    assert mutant.recorded in (ROOT / "CHANGES.md").read_text(encoding="utf-8")


def _copy_tree(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    return dest


def _outcomes(root: Path, node_ids: list[str]) -> dict[str, str]:
    """Run ``node_ids`` on the tree at ``root``: node id -> outcome."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
            "-o", "addopts=", *node_ids,
        ],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
    )
    outcomes = {}
    for line in result.stdout.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASSED", "FAILED", "ERROR"):
            outcomes[rest.split(" - ")[0]] = status
    missing = [n for n in node_ids if n not in outcomes]
    assert not missing, (missing, result.stdout[-2000:], result.stderr[-2000:])
    return outcomes


@pytest.mark.slow
def test_unmutated_tree_passes_every_kill(tmp_path):
    node_ids = list(dict.fromkeys(n for m in MUTANTS for n in m.kills))
    outcomes = _outcomes(_copy_tree(tmp_path), node_ids)
    assert {n: s for n, s in outcomes.items() if s != "PASSED"} == {}


@pytest.mark.slow
@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_mutant_is_killed(mutant: Mutant, tmp_path):
    root = _copy_tree(tmp_path)
    target = root / mutant.path
    source = target.read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
    outcomes = _outcomes(root, list(mutant.kills))
    assert {n: s for n, s in outcomes.items() if s != "FAILED"} == {}
