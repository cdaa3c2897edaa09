"""``repro-lint`` console entry point.

Runs every registered rule -- per-module and whole-program -- over the
given paths (default: ``src``) and reports findings as
``path:line:col: rule: message`` lines, or as a JSON document
(``--format json``).  Exit status is 0 when the tree is clean -- no
unsuppressed findings, no parse errors -- and 1 otherwise.  A path
that does not exist, a rule selector that matches no rule, or a run
that finds no Python file is a usage error (status 2).  The run reads
the tree and writes nothing.

Usage::

    repro-lint src
    repro-lint --format json src tests
    repro-lint src --rules determinism errors/transport-escape
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Sequence

from repro.analysis.core import (
    AnalysisReport,
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    analyze_paths,
)

__all__ = ["json_payload", "main", "select_rules"]

# perfbench/proc.py times the run by rebinding this name; main() must
# call the analyser through it.
incremental_analyze = analyze_paths


def select_rules(
    selectors: Sequence[str] | None,
) -> tuple[Rule | ProjectRule, ...]:
    """Registered rules matching the ids/families given (all if none).

    Covers both the per-module and the whole-program registries, so
    ``--rules errors`` selects the interprocedural
    ``errors/transport-escape`` beside the per-module ``errors`` rules.
    A selector that matches no rule raises :class:`ValueError`.
    """
    rules: tuple[Rule | ProjectRule, ...] = tuple(
        sorted(all_rules() + all_project_rules(), key=lambda item: item.id)
    )
    if not selectors:
        return rules

    def matches(item: Rule | ProjectRule, selector: str) -> bool:
        return selector in (item.id, item.family)

    unknown = [s for s in selectors if not any(matches(r, s) for r in rules)]
    if unknown:
        raise ValueError(f"no rule matches {', '.join(unknown)}")
    return tuple(
        item for item in rules if any(matches(item, s) for s in selectors)
    )


def json_payload(
    report: AnalysisReport,
    rules: Sequence[Rule | ProjectRule],
    wall_seconds: float,
) -> dict[str, object]:
    """The ``--format json`` document."""
    return {
        "files": report.files,
        "wall_seconds": round(wall_seconds, 4),
        "interprocedural_seconds": round(report.interprocedural_seconds, 4),
        "rules": report.rule_counts(rules),
        "families": report.family_counts(),
        "findings": [finding.to_json() for finding in report.findings],
        "suppressed": len(report.suppressed),
        "parse_errors": list(report.parse_errors),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "whole-program determinism, error-flow and architecture analyzer "
            "for the reproduction; see DESIGN.md for the conventions "
            "enforced."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories to lint"
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--rules",
        nargs="+",
        default=None,
        metavar="RULE",
        help="run only these rule ids or families (put paths before it)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    args = parser.parse_args(argv)

    try:
        rules = select_rules(args.rules)
    except ValueError as exc:
        parser.error(str(exc))
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id}: {rule.summary}")
        return 0
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")

    started = time.perf_counter()
    report = incremental_analyze(
        args.paths,
        rules=[item for item in rules if isinstance(item, Rule)],
        project_rules=[item for item in rules if isinstance(item, ProjectRule)],
    )
    wall = time.perf_counter() - started
    if not report.files:
        parser.error(f"no Python files under {', '.join(args.paths)}")

    failed = not report.clean
    if args.format == "json":
        print(json.dumps(json_payload(report, rules, wall), indent=2))
        return 1 if failed else 0

    for finding in report.findings:
        print(finding.render())
    for error in report.parse_errors:
        print(f"parse error: {error}")
    summary = (
        f"{report.files} file(s), {len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed, {wall:.2f}s "
        f"(interprocedural {report.interprocedural_seconds:.2f}s)"
    )
    print(("FAIL " if failed else "ok ") + summary)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
