"""Incremental fingerprint cache and parallel extraction driver.

The per-file pass (parsing, module rules, summary extraction) is a
pure function of one file's bytes and the rule set, so its result is
cached keyed by a sha256 fingerprint.  A warm re-run re-extracts only
edited files, relinks the whole program from cached summaries (the
interprocedural pass is global but costs tens of milliseconds), and
``--changed`` further narrows *reporting* to edited files -- the
pre-commit loop a one-file edit should pay for.

Cold or large runs can fan extraction out over processes with
``--jobs N``: workers receive (path, display, module) triples and
return JSON records, so nothing but stdlib types crosses the pipe.
The pool is short-lived and shares no state, which is why this module
is the one sanctioned exception to routing process fan-out through
:mod:`repro.parallel` -- the analysis island may not import it.

Cache layout (``.repro-lint-cache.json``, gitignored)::

    {"version": <schema+rules hash>, "files": {display: record}}

where each record holds the fingerprint, per-file findings (kept and
suppressed), the module summary, and the suppression maps needed to
route whole-program findings.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.analysis.core import (
    AnalysisReport,
    Finding,
    Rule,
    all_project_rules,
    all_rules,
    build_context,
    _run_module_rules,
    iter_python_files,
    module_name_for,
    run_project_rules,
)
from repro.analysis.graph import ModuleSummary, Project

__all__ = [
    "CACHE_FILENAME",
    "FileRecord",
    "cache_version",
    "fingerprint",
    "git_dirty_files",
    "incremental_analyze",
    "load_cache",
    "save_cache",
]

CACHE_FILENAME = ".repro-lint-cache.json"

#: Bump when record layout or extraction semantics change.
_SCHEMA = 2


def fingerprint(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def cache_version(rule_ids: Sequence[str]) -> str:
    """Cache key covering the schema and the active rule set."""
    digest = hashlib.sha256()
    digest.update(str(_SCHEMA).encode())
    for rule_id in sorted(rule_ids):
        digest.update(rule_id.encode())
    return digest.hexdigest()[:16]


class FileRecord:
    """Cached per-file extraction product (JSON-round-trippable)."""

    def __init__(
        self,
        display: str,
        module: str,
        is_package: bool,
        digest: str,
        findings: list[Finding],
        suppressed: list[Finding],
        summary: ModuleSummary | None,
        line_suppressions: Mapping[int, set[str]],
        file_suppressions: frozenset[str],
        parse_error: str | None = None,
    ):
        self.display = display
        self.module = module
        self.is_package = is_package
        self.digest = digest
        self.findings = findings
        self.suppressed = suppressed
        self.summary = summary
        self.line_suppressions = line_suppressions
        self.file_suppressions = file_suppressions
        self.parse_error = parse_error

    def to_json(self) -> dict[str, Any]:
        return {
            "display": self.display,
            "module": self.module,
            "is_package": self.is_package,
            "digest": self.digest,
            "findings": [f.to_json() for f in self.findings],
            "suppressed": [f.to_json() for f in self.suppressed],
            "summary": self.summary.to_json() if self.summary else None,
            "line_suppressions": {
                str(line): sorted(sel)
                for line, sel in self.line_suppressions.items()
            },
            "file_suppressions": sorted(self.file_suppressions),
            "parse_error": self.parse_error,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FileRecord":
        return cls(
            display=data["display"],
            module=data["module"],
            is_package=data["is_package"],
            digest=data["digest"],
            findings=[Finding(**f) for f in data["findings"]],
            suppressed=[Finding(**f) for f in data["suppressed"]],
            summary=(
                ModuleSummary.from_json(data["summary"])
                if data["summary"]
                else None
            ),
            line_suppressions={
                int(line): set(sel)
                for line, sel in data["line_suppressions"].items()
            },
            file_suppressions=frozenset(data["file_suppressions"]),
            parse_error=data["parse_error"],
        )


def extract_record(
    source: str,
    display: str,
    module: str,
    is_package: bool,
    rules: Sequence[Rule],
) -> FileRecord:
    """Run the full per-file pass on one source string."""
    digest = fingerprint(source)
    try:
        ctx = build_context(
            source, path=display, module=module, is_package=is_package
        )
    except SyntaxError as exc:
        return FileRecord(
            display, module, is_package, digest, [], [], None, {}, frozenset(),
            parse_error=f"{display}: {exc}",
        )
    from repro.analysis.graph import extract_summary

    findings, suppressed = _run_module_rules(ctx, rules)
    return FileRecord(
        display=display,
        module=module,
        is_package=is_package,
        digest=digest,
        findings=findings,
        suppressed=suppressed,
        summary=extract_summary(ctx),
        line_suppressions=dict(ctx.line_suppressions),
        file_suppressions=frozenset(ctx.file_suppressions),
    )


def _extract_worker(task: tuple[str, str, str, bool, tuple[str, ...]]) -> dict:
    """Pool worker: (path, display, module, is_package, rule ids) -> JSON."""
    path, display, module, is_package, rule_ids = task
    wanted = set(rule_ids)
    rules = [item for item in all_rules() if item.id in wanted]
    try:
        source = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        record = FileRecord(
            display, module, is_package, "", [], [], None, {}, frozenset(),
            parse_error=f"{display}: {exc}",
        )
        return record.to_json()
    return extract_record(source, display, module, is_package, rules).to_json()


def load_cache(path: Path, version: str) -> dict[str, FileRecord]:
    """Cached records when the file exists and the version matches."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if data.get("version") != version:
        return {}
    records = {}
    try:
        for display, record in data.get("files", {}).items():
            records[display] = FileRecord.from_json(record)
    except (KeyError, TypeError, ValueError):
        return {}
    return records


def save_cache(
    path: Path, version: str, records: Mapping[str, FileRecord]
) -> None:
    payload = {
        "version": version,
        "files": {
            display: record.to_json()
            for display, record in sorted(records.items())
        },
    }
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    tmp.replace(path)


def git_dirty_files(root: Path) -> set[str] | None:
    """Paths ``git status`` reports as dirty, relative to ``root``.

    The fallback changed-set when no cache exists yet; returns ``None``
    when git is unavailable or the directory is not a work tree.
    """
    try:
        result = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    dirty: set[str] = set()
    for line in result.stdout.splitlines():
        if len(line) > 3:
            name = line[3:].split(" -> ")[-1].strip().strip('"')
            if name.endswith(".py"):
                dirty.add(name)
    return dirty


def incremental_analyze(
    paths: Sequence[str | Path],
    rules: Sequence[Rule],
    root: Path,
    cache_path: Path | None,
    jobs: int = 1,
    changed_only: bool = False,
    project_rules: Sequence | None = None,
) -> tuple[AnalysisReport, dict[str, int]]:
    """Cached, optionally parallel equivalent of ``analyze_paths``.

    Returns the report plus cache statistics (hits/misses/changed).
    With ``changed_only`` the report contains only findings in files
    whose fingerprint differs from the cache (falling back to git's
    dirty set when no cache exists); the whole-program pass still
    links every file so cross-file flows stay visible.
    """
    version = cache_version([item.id for item in rules])
    cached = (
        load_cache(cache_path, version) if cache_path is not None else {}
    )
    had_cache = bool(cached)

    work: list[tuple[str, str, str, bool]] = []
    sources: dict[str, str] = {}
    ordered: list[str] = []
    records: dict[str, FileRecord] = {}
    report = AnalysisReport()
    for file_path in iter_python_files(Path(p) for p in paths):
        report.files += 1
        try:
            display = file_path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            display = file_path.as_posix()
        ordered.append(display)
        try:
            source = file_path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            report.parse_errors.append(f"{display}: {exc}")
            continue
        previous = cached.get(display)
        if previous is not None and previous.digest == fingerprint(source):
            records[display] = previous
            continue
        module, is_package = module_name_for(file_path)
        sources[display] = source
        work.append((str(file_path), display, module, is_package))

    changed = {display for _, display, _, _ in work}
    if changed_only and not had_cache:
        dirty = git_dirty_files(root)
        if dirty is not None:
            changed &= dirty

    rule_ids = tuple(item.id for item in rules)
    if jobs > 1 and len(work) > 1:
        import multiprocessing  # repro-lint: disable=parallel/direct-multiprocessing

        tasks = [task + (rule_ids,) for task in work]
        with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
            for task, payload in zip(tasks, pool.map(_extract_worker, tasks)):
                records[task[1]] = FileRecord.from_json(payload)
    else:
        for path, display, module, is_package in work:
            records[display] = extract_record(
                sources[display], display, module, is_package, rules
            )

    summaries = []
    suppressions: dict[str, tuple[Mapping[int, set[str]], frozenset[str]]] = {}
    for display in ordered:
        record = records.get(display)
        if record is None:
            continue
        if record.parse_error is not None:
            report.parse_errors.append(record.parse_error)
            continue
        if not changed_only or display in changed:
            report.findings.extend(record.findings)
            report.suppressed.extend(record.suppressed)
        if record.summary is not None:
            summaries.append(record.summary)
            suppressions[display] = (
                record.line_suppressions,
                record.file_suppressions,
            )

    if project_rules is None:
        project_rules = all_project_rules()
    started = time.perf_counter()
    project = Project(summaries)
    project_findings, project_suppressed = run_project_rules(
        project, project_rules, suppressions
    )
    report.interprocedural_seconds = time.perf_counter() - started
    if changed_only:
        project_findings = [f for f in project_findings if f.path in changed]
        project_suppressed = [
            f for f in project_suppressed if f.path in changed
        ]
    report.findings.extend(project_findings)
    report.suppressed.extend(project_suppressed)
    report.findings.sort()
    report.suppressed.sort()

    if cache_path is not None:
        save_cache(cache_path, version, records)
    stats = {
        "cache_hits": len(ordered) - len(work),
        "cache_misses": len(work),
        "changed_files": len(changed),
    }
    return report, stats
