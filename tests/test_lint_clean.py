"""Tier-1 gate: ``repro-lint`` finds nothing unsuppressed in ``src/``.

This is the standing correctness gate for refactors: a stray
``time.time()``, unseeded RNG, upward import, broad except, library
``print``, or whole-program violation (demographic taint reaching a
restricted interface, a foreign exception escaping a transport
request path, transitively reachable ambient entropy) anywhere under
``src/`` fails this test with the rule name and ``file:line`` of the
violation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import time
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    all_project_rules,
    all_rules,
    analyze_paths,
    main,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "lint_baseline.json"


def test_src_tree_is_lint_clean():
    report = analyze_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    assert not report.parse_errors, report.parse_errors
    new, _, stale = Baseline.load(BASELINE).apply(report.findings)
    details = "\n".join(finding.render() for finding in new)
    assert not new, f"repro-lint found unbaselined violations:\n{details}"
    assert not stale, f"stale baseline entries: {stale}"


def test_every_rule_family_is_loaded():
    families = {rule.family for rule in all_rules() + all_project_rules()}
    assert families == {
        "determinism",
        "layering",
        "errors",
        "obs",
        "taint",
    }
    assert len(all_rules()) == 9
    assert len(all_project_rules()) == 3


def test_cli_exits_zero_on_clean_tree(capsys):
    code = main(
        [
            str(REPO_ROOT / "src"),
            "--baseline",
            str(BASELINE),
            "--no-cache",
            "--format",
            "json",
        ]
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
    code = main([str(victim), "--no-baseline", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 1
    assert "determinism/wall-clock" in out
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
    code = main([str(victim), "--no-baseline", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 1
    assert "audiences.py:6" in out
    assert out.count("determinism/unseeded-rng") == 1


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


def test_cli_fails_on_seeded_whole_program_violations(tmp_path, capsys):
    """One seeded fixture per interprocedural family trips the CLI."""
    root = tmp_path / "src"
    _write_module(
        root,
        "repro/platforms/facebook.py",
        "class FacebookRestrictedInterface:\n"
        "    def estimate_reach(self, spec):\n"
        "        return 0\n",
    )
    _write_module(
        root,
        "repro/population/demographics.py",
        "class Gender:\n    FEMALE = 1\n",
    )
    _write_module(
        root,
        "repro/core/leak.py",
        "from repro.platforms.facebook import FacebookRestrictedInterface\n"
        "from repro.population.demographics import Gender\n"
        "\n"
        "\n"
        "def probe(iface: FacebookRestrictedInterface, spec):\n"
        "    tainted = spec.with_gender(Gender.FEMALE)\n"
        "    return iface.estimate_reach(tainted)\n",
    )
    _write_module(
        root,
        "repro/api/wire.py",
        "def _explode():\n"
        '    raise RuntimeError("boom")\n'
        "\n"
        "\n"
        "def handler(request):\n"
        "    return _explode()\n",
    )
    _write_module(
        root,
        "repro/core/clocky.py",
        "import time\n"
        "\n"
        "\n"
        "def _stamp():\n"
        "    return time.time()\n"
        "\n"
        "\n"
        "def snapshot():\n"
        "    return _stamp()\n",
    )
    code = main([str(root), "--no-baseline", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 1
    assert "taint/restricted-flow" in out
    assert "errors/transport-escape" in out
    assert "determinism/transitive-ambient" in out
    assert "snapshot() -> _stamp()" in out


def test_cli_sarif_output_carries_findings(tmp_path, capsys):
    victim = tmp_path / "audit.py"
    victim.write_text(
        "import time\n\nstamp = time.time()\n", encoding="utf-8"
    )
    code = main(
        [str(victim), "--no-baseline", "--no-cache", "--format", "sarif"]
    )
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert "taint/restricted-flow" in rule_ids
    results = run["results"]
    assert [r["ruleId"] for r in results] == ["determinism/wall-clock"]
    region = results[0]["locations"][0]["physicalLocation"]["region"]
    assert (region["startLine"], region["startColumn"]) == (3, 9)


def test_warm_cache_and_changed_mode_are_fast(tmp_path, capsys):
    """A warm ``--changed`` run over the full tree stays under 0.5s."""
    cache = tmp_path / "cache.json"
    base_args = [
        str(REPO_ROOT / "src"),
        "--baseline",
        str(BASELINE),
        "--cache",
        str(cache),
        "--format",
        "json",
    ]
    assert main(base_args) == 0  # cold run populates the cache
    cold = json.loads(capsys.readouterr().out)
    assert cold["cache"]["cache_misses"] == cold["files"]

    started = time.perf_counter()
    code = main(base_args + ["--changed"])
    elapsed = time.perf_counter() - started
    warm = json.loads(capsys.readouterr().out)
    assert code == 0
    assert warm["cache"]["cache_hits"] == warm["files"]
    assert warm["cache"]["changed_files"] == 0
    assert elapsed < 0.5, f"warm --changed run took {elapsed:.2f}s"


def test_cache_is_rewritten_only_when_a_file_changes(tmp_path, capsys):
    victim = tmp_path / "audit.py"
    victim.write_text("def stamp():\n    return 1\n", encoding="utf-8")
    cache = tmp_path / "cache.json"
    args = [str(victim), "--no-baseline", "--cache", str(cache)]
    assert main(args) == 0
    written = cache.stat().st_ino
    assert main(args) == 0
    assert cache.stat().st_ino == written  # all hits: no rewrite
    victim.write_text("def stamp():\n    return 2\n", encoding="utf-8")
    assert main(args) == 0
    assert cache.stat().st_ino != written
    capsys.readouterr()


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    result = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
