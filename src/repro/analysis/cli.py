"""``repro-lint`` console entry point.

Runs every registered rule -- per-module and whole-program -- over the
given paths (default: ``src``) and reports findings as
``path:line:col: rule: message`` lines, as a JSON document
(``--format json``), or as SARIF 2.1.0 (``--format sarif``) for
editor and CI annotation surfaces.  Exit status is 0 when the tree is
clean -- no unsuppressed, non-baselined findings, no parse errors, no
stale baseline entries -- and 1 otherwise.

Per-file work is cached in ``.repro-lint-cache.json`` keyed by source
fingerprint, so warm re-runs only re-analyze edited files (the
whole-program link always runs; it is cheap).  ``--changed`` narrows
reporting to edited files for the pre-commit loop.

Usage::

    repro-lint src
    repro-lint --format sarif src tests
    repro-lint --changed
    repro-lint --no-cache src
    repro-lint --rules determinism taint src
    repro-lint --write-baseline lint_baseline.json src
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Mapping, Sequence

from repro.analysis.baseline import Baseline
from repro.analysis.core import (
    AnalysisReport,
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    analyze_paths,
)
from repro.analysis.incremental import CACHE_FILENAME, incremental_analyze
from repro.analysis.sarif import sarif_document

__all__ = ["json_payload", "main", "run_lint", "select_rules"]

#: Baseline file picked up automatically when it exists in the
#: current directory and ``--baseline``/``--no-baseline`` is absent.
DEFAULT_BASELINE = "lint_baseline.json"


def select_rules(
    selectors: Sequence[str] | None,
) -> tuple[Rule | ProjectRule, ...]:
    """Registered rules matching the ids/families given (all if none).

    Covers both the per-module and the whole-program registries, so
    ``--rules taint`` selects the interprocedural taint family.
    """
    rules: tuple[Rule | ProjectRule, ...] = tuple(
        sorted(all_rules() + all_project_rules(), key=lambda item: item.id)
    )
    if not selectors:
        return rules
    chosen = tuple(
        rule
        for rule in rules
        if any(rule.id == s or rule.family == s for s in selectors)
    )
    if not chosen:
        raise SystemExit(f"no rules match {', '.join(selectors)!s}")
    return chosen


def _split_rules(
    rules: Sequence[Rule | ProjectRule],
) -> tuple[list[Rule], list[ProjectRule]]:
    module_rules = [item for item in rules if isinstance(item, Rule)]
    project_rules = [item for item in rules if isinstance(item, ProjectRule)]
    return module_rules, project_rules


def json_payload(
    report: AnalysisReport,
    rules: Sequence[Rule | ProjectRule],
    wall_seconds: float,
    baselined: int = 0,
    stale_baseline: int = 0,
    cache_stats: Mapping[str, int] | None = None,
) -> dict[str, object]:
    """The ``--format json`` document (also recorded by benchmarks)."""
    payload: dict[str, object] = {
        "files": report.files,
        "wall_seconds": round(wall_seconds, 4),
        "interprocedural_seconds": round(report.interprocedural_seconds, 4),
        "rules": report.rule_counts(rules),
        "families": report.family_counts(),
        "findings": [finding.to_json() for finding in report.findings],
        "suppressed": len(report.suppressed),
        "baselined": baselined,
        "stale_baseline_entries": stale_baseline,
        "parse_errors": list(report.parse_errors),
    }
    if cache_stats is not None:
        payload["cache"] = dict(cache_stats)
    return payload


def run_lint(
    paths: Sequence[str | Path],
    rules: Sequence[Rule | ProjectRule] | None = None,
    root: str | Path | None = None,
) -> tuple[AnalysisReport, float]:
    """Analyze ``paths`` uncached; returns the report and wall time.

    ``rules`` may mix per-module and whole-program rules; when given,
    only the listed whole-program rules run (none if none listed).
    """
    started = time.perf_counter()
    if rules is None:
        report = analyze_paths(paths, root=root)
    else:
        module_rules, project_rules = _split_rules(rules)
        report = analyze_paths(
            paths, rules=module_rules, root=root, project_rules=project_rules
        )
    return report, time.perf_counter() - started


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "whole-program determinism, taint, and architecture analyzer "
            "for the reproduction; see DESIGN.md for the conventions "
            "enforced."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories to lint"
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--rules",
        nargs="+",
        default=None,
        metavar="RULE",
        help="run only these rule ids or families",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=(
            "grandfathered-findings file (default: ./lint_baseline.json "
            "when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="write current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "report only files whose fingerprint differs from the cache "
            "(git dirty set when no cache exists); stale-baseline "
            "detection is skipped"
        ),
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help=f"fingerprint cache file (default: ./{CACHE_FILENAME})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the fingerprint cache",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    args = parser.parse_args(argv)

    rules = select_rules(args.rules)
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id}: {rule.summary}")
        return 0

    module_rules, project_rules = _split_rules(rules)
    cache_path: Path | None
    if args.no_cache:
        cache_path = None
    elif args.cache is not None:
        cache_path = Path(args.cache)
    else:
        cache_path = Path(CACHE_FILENAME)

    started = time.perf_counter()
    report, cache_stats = incremental_analyze(
        args.paths,
        module_rules,
        root=Path.cwd(),
        cache_path=cache_path,
        changed_only=args.changed,
        project_rules=project_rules,
    )
    wall = time.perf_counter() - started

    if args.write_baseline:
        Baseline.from_findings(report.findings).save(args.write_baseline)
        print(
            f"wrote {len(report.findings)} finding(s) to {args.write_baseline}"
        )
        return 0

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        candidate = Path(DEFAULT_BASELINE)
        baseline_path = candidate if candidate.exists() else None
    new, matched, stale = (report.findings, [], [])
    if baseline_path is not None and not args.no_baseline:
        new, matched, stale = Baseline.load(baseline_path).apply(report.findings)
    if args.changed:
        # A changed-files run sees only a slice of the tree, so absent
        # baseline entries prove nothing about staleness.
        stale = []

    failed = bool(new or report.parse_errors or stale)
    if args.format == "json":
        print(
            json.dumps(
                json_payload(
                    report,
                    rules,
                    wall,
                    baselined=len(matched),
                    stale_baseline=len(stale),
                    cache_stats=cache_stats,
                ),
                indent=2,
            )
        )
        return 1 if failed else 0
    if args.format == "sarif":
        print(json.dumps(sarif_document(new, rules), indent=2))
        return 1 if failed else 0

    for finding in new:
        print(finding.render())
    for error in report.parse_errors:
        print(f"parse error: {error}")
    for entry in stale:
        print(
            f"stale baseline entry ({entry.rule} in {entry.path}); "
            "remove it from the baseline"
        )
    summary = (
        f"{report.files} file(s), {len(new)} finding(s), "
        f"{len(report.suppressed)} suppressed, {len(matched)} baselined, "
        f"{wall:.2f}s (interprocedural {report.interprocedural_seconds:.2f}s, "
        f"cache {cache_stats['cache_hits']}/{report.files})"
    )
    print(("FAIL " if failed else "ok ") + summary)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
