"""Tier-1 gate: ``repro-lint`` finds nothing unsuppressed in ``src/``.

This is the standing correctness gate for refactors: a stray
``time.time()``, unseeded RNG, upward import, broad except, library
``print``, or whole-program violation (a foreign exception escaping a
transport request path) anywhere under ``src/`` fails this test with
the rule name and ``file:line`` of the violation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    all_project_rules,
    all_rules,
    analyze_paths,
    main,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: One seeded violation per registered rule: rule id -> (package files
#: under ``src/``, the ``file:line:col`` of every finding they must
#: raise).  Adding or deleting a rule must change this table.
SEEDED_VIOLATIONS: dict[str, tuple[dict[str, str], list[str]]] = {
    "determinism/transitive-ambient": (
        {
            "repro/core/audit.py": (
                "import time\n\n\ndef stamp():\n    return time.time()\n"
            ),
            # The per-process salted hash() in a nested seed: one finding.
            "repro/population/audiences.py": (
                "import numpy as np\n"
                "\n"
                "\n"
                "def visitors(seed, pixel_id):\n"
                "    return np.random.default_rng(\n"
                "        np.random.SeedSequence([seed, hash(pixel_id) & 0x7FFFFFFF])\n"
                "    )\n"
            ),
            "repro/core/clocky.py": (
                "import time\n"
                "\n"
                "\n"
                "def _stamp():\n"
                "    return time.time()\n"
                "\n"
                "\n"
                "def snapshot():\n"
                "    return _stamp()\n"
            ),
        },
        ["audiences.py:6:38", "audit.py:5:11", "clocky.py:5:11"],
    ),
    "determinism/unordered-iteration": (
        {
            "repro/core/order.py": (
                "def names(items):\n    return [item for item in set(items)]\n"
            )
        },
        ["order.py:2:29"],
    ),
    "errors/broad-except": (
        {
            "repro/core/swallow.py": (
                "def safe(fn):\n"
                "    try:\n"
                "        return fn()\n"
                "    except Exception:\n"
                "        return None\n"
            )
        },
        ["swallow.py:4:4"],
    ),
    "errors/print": (
        {"repro/core/chatty.py": "def shout():\n    print('x')\n"},
        ["chatty.py:2:4"],
    ),
    "errors/transport-escape": (
        {
            "repro/api/wire.py": (
                "def _explode():\n"
                '    raise RuntimeError("boom")\n'
                "\n"
                "\n"
                "def handler(request):\n"
                "    return _explode()\n"
                "\n"
                "\n"
                "class RouteCodec:\n"
                "    def decode_batch(self, items):\n"
                "        return list(items)\n"
                "\n"
                "\n"
                "class GoogleWireCodec(RouteCodec):\n"
                "    def decode_batch(self, items):\n"
                '        raise KeyError("7")\n'
            ),
            # A route-handler closure reaches the codec through the
            # factory's annotated parameter, and virtual dispatch
            # reaches the subclass's batch decoder.
            "repro/api/routes.py": (
                "from repro.api.wire import RouteCodec\n"
                "\n"
                "\n"
                "def _batch_handler(codec: RouteCodec):\n"
                "    def handler(request):\n"
                "        return codec.decode_batch(request.body)\n"
                "\n"
                "    return handler\n"
            ),
        },
        ["wire.py:16:8", "wire.py:2:4"],
    ),
    "layering/reporting-internals": (
        {"repro/experiments/fig.py": "from repro.reporting.text import render\n"},
        ["fig.py:1:0"],
    ),
    "layering/test-import": (
        {"repro/core/helper.py": "import pytest\n"},
        ["helper.py:1:0"],
    ),
    "layering/upward-import": (
        {"repro/population/up.py": "from repro.core import audit\n"},
        ["up.py:1:0"],
    ),
    "obs/ambient-instrumentation": (
        {
            "repro/core/traced.py": (
                "from repro.obs import Tracer\n"
                "\n"
                "\n"
                "def build():\n"
                "    return Tracer('mine')\n"
            )
        },
        ["traced.py:5:11"],
    ),
}


def test_src_tree_is_lint_clean():
    report = analyze_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    assert not report.parse_errors, report.parse_errors
    details = "\n".join(finding.render() for finding in report.findings)
    assert report.findings == [], f"repro-lint found violations:\n{details}"


def test_every_rule_family_is_loaded():
    families = {rule.family for rule in all_rules() + all_project_rules()}
    assert families == {
        "determinism",
        "layering",
        "errors",
        "obs",
    }
    assert len(all_rules()) == 8
    assert len(all_project_rules()) == 1
    assert sorted(SEEDED_VIOLATIONS) == sorted(
        rule.id for rule in all_rules() + all_project_rules()
    )


def test_cli_exits_zero_on_clean_tree(capsys):
    code = main(
        [str(REPO_ROOT / "src"), "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["findings"] == []
    assert payload["parse_errors"] == []
    expected = {rule.id for rule in all_rules()}
    expected |= {rule.id for rule in all_project_rules()}
    assert set(payload["rules"]) == expected
    assert all(count == 0 for count in payload["rules"].values())
    assert payload["families"] == {}
    assert payload["files"] >= 60
    assert payload["wall_seconds"] > 0
    assert payload["interprocedural_seconds"] > 0


def test_cli_fails_on_seeded_violation(tmp_path, capsys):
    """A wall-clock read injected into a core-like module fails the CLI."""
    victim = tmp_path / "audit.py"
    victim.write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n",
        encoding="utf-8",
    )
    code = main([str(victim)])
    out = capsys.readouterr().out
    assert code == 1
    assert "determinism/transitive-ambient" in out
    assert "audit.py:5" in out


def test_cli_fails_on_salted_hash_seed(tmp_path, capsys):
    """An RNG seeded from the per-process salted ``hash()`` fails the CLI."""
    victim = tmp_path / "audiences.py"
    victim.write_text(
        "import numpy as np\n"
        "\n"
        "\n"
        "def visitors(seed, pixel_id):\n"
        "    return np.random.default_rng(\n"
        "        np.random.SeedSequence([seed, hash(pixel_id) & 0x7FFFFFFF])\n"
        "    )\n",
        encoding="utf-8",
    )
    code = main([str(victim)])
    out = capsys.readouterr().out
    assert code == 1
    assert "audiences.py:6" in out
    assert out.count("determinism/transitive-ambient") == 1


def _write_module(root: Path, rel: str, source: str) -> Path:
    """Write a module inside a real package tree under ``root``."""
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    current = path.parent
    while current != root:
        (current / "__init__.py").touch()
        current = current.parent
    path.write_text(source, encoding="utf-8")
    return path


def _seed_tree(root: Path, rule_ids) -> None:
    for rule_id in rule_ids:
        for rel, source in SEEDED_VIOLATIONS[rule_id][0].items():
            _write_module(root, rel, source)


@pytest.mark.parametrize("rule_id", sorted(SEEDED_VIOLATIONS))
def test_cli_fails_on_each_rules_seeded_violation(tmp_path, capsys, rule_id):
    """Each rule's seeded fixture fails the CLI with that rule alone."""
    root = tmp_path / "src"
    _seed_tree(root, [rule_id])
    code = main([str(root)])
    out = capsys.readouterr().out
    flagged = [line.split(": ") for line in out.splitlines() if ": " in line]
    assert code == 1, out
    assert {parts[1] for parts in flagged} == {rule_id}, out
    locations = sorted(parts[0].rsplit("/", 1)[-1] for parts in flagged)
    assert locations == SEEDED_VIOLATIONS[rule_id][1], out


def test_cli_fails_on_seeded_whole_program_violations(tmp_path, capsys):
    """The whole-program fixtures still fire when linked as one tree."""
    root = tmp_path / "src"
    _seed_tree(root, [rule.id for rule in all_project_rules()])
    code = main([str(root)])
    out = capsys.readouterr().out
    assert code == 1
    for rule in all_project_rules():
        assert rule.id in out


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (["nosuchdir"], 2),
        (["empty"], 2),
        (["--rules", "determinism", "t"], 2),
        (["t", "--rules", "determinsm"], 2),
        (["t", "--rules", "determinism", "nosuchrule"], 2),
        (["t", "--rules", "determinism"], 1),
    ],
)
def test_cli_rejects_mistyped_targets(tmp_path, monkeypatch, capsys, argv, code):
    """A missing path, an unknown rule or no Python file is a usage error."""
    (tmp_path / "t").mkdir()
    (tmp_path / "t" / "audit.py").write_text(
        "import time\n\nstamp = time.time()\n", encoding="utf-8"
    )
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "notes.txt").write_text("", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    assert status == code
    if code == 2:
        assert "repro-lint: error:" in captured.err
    else:
        assert "t/audit.py:3:8: determinism/transitive-ambient" in captured.out


def test_cli_writes_no_file(tmp_path, monkeypatch, capsys):
    victim = tmp_path / "audit.py"
    victim.write_text("def stamp():\n    return 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["audit.py"]) == 0
    assert main(["audit.py", "--format", "json"]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["audit.py"]
    capsys.readouterr()


def _run_python(args: list[str], cwd: Path, src: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_lints_a_tree_it_cannot_import(tmp_path):
    """The analyzer runs from a tree whose simulator does not parse.

    Importing ``repro.analysis`` loads the ``repro`` facade, so a
    facade that imported the simulator would die on the broken module
    before linting anything.
    """
    src = tmp_path / "src"
    shutil.copytree(
        REPO_ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__")
    )
    wire = src / "repro" / "api" / "wire.py"
    wire.write_text(
        wire.read_text(encoding="utf-8") + "\n\ndef broken(:\n    pass\n",
        encoding="utf-8",
    )
    result = _run_python(
        ["-m", "repro.analysis", "--format", "json", "src"], tmp_path, src
    )
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr, result.stderr
    errors = json.loads(result.stdout)["parse_errors"]
    assert len(errors) == 1, errors
    assert errors[0].startswith("src/repro/api/wire.py: invalid syntax"), errors


def test_analysis_and_obs_do_not_import_the_simulator():
    """``repro.analysis`` and ``repro.obs`` stay islands at run time."""
    result = _run_python(
        [
            "-c",
            "import json, sys, repro.analysis, repro.obs.report; "
            "print(json.dumps(sorted(sys.modules)))",
        ],
        REPO_ROOT,
        REPO_ROOT / "src",
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    heavy = ("numpy", "repro.api", "repro.platforms", "repro.population", "repro.core")
    offenders = [
        name
        for name in loaded
        if any(name == top or name.startswith(top + ".") for top in heavy)
    ]
    assert offenders == []


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    result = subprocess.run(
        ["ruff", "check", "src", "tests"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
