"""Whole-run benchmark of the reproduction (see ``perfbench/README.md``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_full --seed 42 --seconds 10 --trace 0

Each pass spawns the workload's process(es) in a fresh directory under
``.perfbench_tmp/``, times them from spawn to exit and checks their
output against the committed reference of the seed.  Passes repeat while
another one is expected to finish within ``--seconds`` (at least one
runs).  Every metric is printed by name with its unit; the last line of
standard output is the JSON result.  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

#: Program seeds with a committed reference.  ``--seed n`` runs program
#: seed ``42 + (n - 42) mod 10``: 42 reproduces ``results_full_run.txt``.
REFERENCE_SEEDS = tuple(range(42, 52))

#: ``results_full_run.txt``'s configuration.
PAPER_FULL = ["--scale", "full", "--records", "100000", "--compositions", "500"]
#: The same registry over a population a 40th the size, with the
#: compositions scaled down to keep 24 records per composition (12,000
#: records at the paper's 500): the query pipeline does nearly all the work.
QUERY_HEAVY = ["--scale", "full", "--records", "2400", "--compositions", "100"]
#: fig1, fig2 and table1 over 30,000 records at 60 compositions: the
#: two session builds are about half of a killed-and-resumed pair.
STORM = ["--scale", "full", "--records", "30000", "--compositions", "60"]
STORM_EXPERIMENTS = ["fig1", "fig2", "table1"]
#: The killed storm process sees a permanent outage after this many
#: requests, about half of an uninterrupted storm run's 18,829 (seed 42).
STORM_OUTAGE_AFTER = 9_000
#: Processes that are killed this way end in one of these errors.
KILL_ERRORS = ("CircuitOpenError", "ApiError")

#: Experiments whose output is known to differ between processes, with
#: the cause.  They still count as failed operations; only ``correct``
#: stays true when they are the only failures.
KNOWN_DEFECTS = {
    "ext_lookalike": (
        "known defect: create_pixel_audience in src/repro/platforms/"
        "audiences.py seeds the pixel audience with hash(pixel.pixel_id), "
        "which Python salts per process"
    ),
}

HEADER = re.compile(r"^== (\S+): (.*) \(\d+(?:\.\d+)?s\) ==$")
FOOTERS = ("Total simulated API requests:", "Total wall time:")


class BenchError(Exception):
    """A workload could not run; no result is printed."""


@dataclass
class Pass:
    """One measured pass of a workload."""

    run_s: float
    setup_s: float
    peak_rss_mb: float
    attempted: int
    #: Failed operations, each with its reason.
    failures: list[str] = field(default_factory=list)
    #: Run-level checks that failed (counts, crashes); ``correct`` is false.
    problems: list[str] = field(default_factory=list)
    api_requests: int | None = None
    virtual_s: float | None = None
    resume_s: float | None = None
    startup_s: float | None = None
    attributed_share: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)


def program_seed(seed: int) -> int:
    first = REFERENCE_SEEDS[0]
    return first + (seed - first) % len(REFERENCE_SEEDS)


def report_sections(text: str) -> dict[str, str]:
    """sha256 of each experiment's rendered section, wall times stripped."""
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        match = HEADER.match(line)
        if match:
            current = sections[match.group(1)] = [
                f"== {match.group(1)}: {match.group(2)} =="
            ]
        elif line.startswith(FOOTERS):
            current = None
        elif current is not None:
            current.append(line)
    return {
        name: hashlib.sha256("\n".join(lines).strip().encode()).hexdigest()
        for name, lines in sections.items()
    }


def load_reference(name: str) -> dict:
    path = REFS / f"{name}.json"
    if not path.exists():
        raise BenchError(f"missing reference {path}")
    return json.loads(path.read_text())


def spawn(root: Path, work: Path, spec: dict, traced: bool) -> tuple[float, dict]:
    """Run one workload process; returns its wall time and its result."""
    index = len(list(work.glob("spec*.json")))
    spec = dict(spec, traced=traced, result=str(work / f"result{index}.json"))
    spec_path = work / f"spec{index}.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with open(work / f"stdout{index}.txt", "w") as out, open(
        work / f"stderr{index}.txt", "w"
    ) as err:
        started = perf_counter()
        spec["spawned"] = started
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "proc.py"), str(spec_path)],
            cwd=work,
            env=env,
            stdout=out,
            stderr=err,
        )
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - started
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.exists():
        tail = (work / f"stderr{index}.txt").read_text()[-2000:]
        raise BenchError(f"workload process exited {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    result["stdout"] = (work / f"stdout{index}.txt").read_text()
    return wall, result


def check_audit(
    report: Path, sections: dict[str, str], names: list[str]
) -> list[str]:
    """Failed experiments: missing, or rendered unlike the reference."""
    got = report_sections(report.read_text()) if report.exists() else {}
    failures = []
    for name in names:
        if name not in got:
            failures.append(f"{name}: no output")
        elif got[name] != sections[name]:
            cause = KNOWN_DEFECTS.get(name, "unexpected")
            failures.append(f"{name}: output differs from the reference ({cause})")
    return failures


def is_known(failure: str) -> bool:
    name = failure.split(":", 1)[0]
    return name in KNOWN_DEFECTS and failure.endswith(f"({KNOWN_DEFECTS[name]})")


def check_counts(result: dict, expected: dict, label: str) -> list[str]:
    problems = [f"{label}: raised {result['error']}"] if result["error"] else []
    for key in ("api_requests", "virtual_s"):
        if result[key] != expected[key]:
            problems.append(
                f"{label}: {key} {result[key]!r} != reference {expected[key]!r}"
            )
    return problems


# -- workloads -------------------------------------------------------------------


def audit_pass(
    root: Path, work: Path, seed: int, traced: bool, ref_name: str, argv: list[str]
) -> Pass:
    ref = load_reference(ref_name)["seeds"][str(seed)]
    out = work / "report.txt"
    wall, result = spawn(
        root,
        work,
        {"mode": "audit", "argv": argv + ["--seed", str(seed), "--jobs", "1",
                                          "--out", str(out)]},
        traced,
    )
    names = list(ref["sections"])
    return Pass(
        run_s=wall,
        setup_s=result["setup_s"],
        peak_rss_mb=result["peak_rss_mb"],
        attempted=len(names),
        failures=check_audit(out, ref["sections"], names),
        problems=check_counts(result, ref, "run"),
        api_requests=result["api_requests"],
        virtual_s=result["virtual_s"],
        startup_s=result["startup_s"],
        attributed_share=result.get("attributed_share", 0.0),
        layers=result.get("layers", {}),
    )


def paper_full(root: Path, work: Path, seed: int, traced: bool) -> Pass:
    return audit_pass(root, work, seed, traced, "paper_full", PAPER_FULL)


def query_heavy(root: Path, work: Path, seed: int, traced: bool) -> Pass:
    return audit_pass(root, work, seed, traced, "query_heavy", QUERY_HEAVY)


def storm_resume(root: Path, work: Path, seed: int, traced: bool) -> Pass:
    ref = load_reference("storm_resume")["seeds"][str(seed)]
    checkpoint = work / "run.ckpt.json"
    argv = STORM + [
        "--seed", str(seed), "--jobs", "1", "--only", *STORM_EXPERIMENTS,
        "--chaos", "storm", "--checkpoint", str(checkpoint),
    ]
    killed_wall, killed = spawn(
        root,
        work,
        {"mode": "audit", "argv": argv, "outage_after": STORM_OUTAGE_AFTER},
        traced,
    )
    if killed["error"] not in KILL_ERRORS or not checkpoint.exists():
        raise BenchError(f"storm run was not killed (error={killed['error']!r})")
    killed["error"] = None
    out = work / "report.txt"
    resume_wall, resumed = spawn(
        root,
        work,
        {"mode": "audit", "argv": argv + ["--out", str(out)]},
        traced,
    )
    failures = check_audit(out, ref["sections"], STORM_EXPERIMENTS)
    problems = check_counts(killed, ref["killed"], "killed run")
    problems += check_counts(resumed, ref["resumed"], "resumed run")
    layers = merge_layers(killed.get("layers", {}), resumed.get("layers", {}))
    return Pass(
        run_s=killed_wall + resume_wall,
        setup_s=killed["setup_s"] + resumed["setup_s"],
        peak_rss_mb=max(killed["peak_rss_mb"], resumed["peak_rss_mb"]),
        attempted=len(STORM_EXPERIMENTS),
        failures=failures,
        problems=problems,
        api_requests=killed["api_requests"] + resumed["api_requests"],
        virtual_s=killed["virtual_s"] + resumed["virtual_s"],
        resume_s=resume_wall,
        startup_s=killed["startup_s"],
        attributed_share=(
            killed.get("attributed_share", 0.0) * killed_wall
            + resumed.get("attributed_share", 0.0) * resume_wall
        ) / (killed_wall + resume_wall),
        layers=layers,
    )


def merge_layers(killed: dict, resumed: dict) -> dict:
    """Per-layer figures of a killed-and-resumed pair of processes.

    Times and counts add up, the checkpoint size is the larger one, and
    ratios pool their numerators and denominators.  Only the resumed
    process can re-query what its checkpoint held.
    """
    if not resumed:
        return {}
    merged = {}
    for key in resumed.keys() - {"ratios", "spans"}:
        if key == "core.requeried":
            merged[key] = resumed[key]
        elif key == "core.checkpoint_bytes":
            merged[key] = max(killed.get(key, 0), resumed[key])
        else:
            merged[key] = killed.get(key, 0) + resumed[key]
    merged["ratios"] = {
        key: [a + b for a, b in zip(killed["ratios"][key], pair)]
        for key, pair in resumed["ratios"].items()
    }
    merged["spans"] = {
        name: killed["spans"].get(name, 0) + resumed["spans"].get(name, 0)
        for name in killed["spans"].keys() | resumed["spans"].keys()
    }
    return merged


def lint_cold(root: Path, work: Path, seed: int, traced: bool) -> Pass:
    # A fresh copy of the tree in a fresh directory: no fingerprint
    # cache (``.repro-lint-cache.json`` lands in the working directory)
    # and no baseline, as on a first run.
    shutil.copytree(
        root / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    wall, result = spawn(
        root, work, {"mode": "lint", "argv": ["--format", "json", "src"]}, traced
    )
    payload = json.loads(result["stdout"])
    if payload.get("cache", {}).get("cache_hits", 0):
        raise BenchError("lint pass was not cold")
    flagged = {finding["path"] for finding in payload["findings"]}
    flagged |= {error.split(":", 1)[0] for error in payload["parse_errors"]}
    failures = [f"{path}: findings or parse errors" for path in sorted(flagged)]
    problems = []
    if result["exit"] != 0 and not failures:
        problems.append(f"repro-lint exited {result['exit']} with a clean tree")
    return Pass(
        run_s=wall,
        setup_s=result["startup_s"],
        peak_rss_mb=result["peak_rss_mb"],
        attempted=payload["files"],
        failures=failures,
        problems=problems,
        startup_s=result["startup_s"],
        attributed_share=result.get("attributed_share", 0.0),
        layers=result.get("layers", {}),
    )


#: The experiment registry of ``repro-audit``, in run order.
EXPERIMENTS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1", "tables23",
    "methodology", "ext_lookalike", "ext_mitigation",
)

#: Entry points (span names) each workload must reach in a traced pass;
#: one that reads zero means a wrapper missed a binding.
_AUDIT = (
    "setup.session", "population.generate", "population.realise_attribute",
    "bitsets.intersect_counts", "platforms.build_suite", "platforms.prime_counts",
    "platforms.estimate_reach", "api.transport", "api.route", "api.codec",
    "api.client", "core.audit_many", "core.plan", "core.discovery", "core.overlap",
    "reporting.render",
)
ENTRY_POINTS = {
    "paper_full": _AUDIT + ("core.removal",) + tuple(
        f"experiments.{name}" for name in EXPERIMENTS
    ),
    "storm_resume": _AUDIT + (
        "api.backoff", "core.checkpoint_save", "core.checkpoint_load",
        "core.checkpoint_attach",
    ) + tuple(f"experiments.{name}" for name in STORM_EXPERIMENTS),
    "lint_cold": (
        "analysis.lint", "analysis.extract", "analysis.extract_summary",
        "analysis.project",
    ),
}
ENTRY_POINTS["query_heavy"] = ENTRY_POINTS["paper_full"]


def check_entry_points(workload: str, one: Pass) -> list[str]:
    spans = one.layers.get("spans", {})
    return [
        f"traced pass: entry point {name} was never called"
        for name in ENTRY_POINTS[workload]
        if not spans.get(name)
    ]


WORKLOADS = {
    "paper_full": paper_full,
    "query_heavy": query_heavy,
    "storm_resume": storm_resume,
    "lint_cold": lint_cold,
}

#: Every per-layer metric, as ``BENCHMARK.json`` lists them; a layer a
#: workload does not reach reads 0 there.
PER_LAYER = (
    "population.generate_s", "population.realise_calls", "population.realise_s",
    "bitsets.intersect_calls", "bitsets.intersect_s", "bitsets.bytes_computed",
    "platforms.catalog_s", "platforms.prime_calls", "platforms.prime_s",
    "platforms.estimate_s", "platforms.queries", "platforms.resolution_hit_rate",
    "api.transport_s", "api.routes_s", "api.codec_s", "api.codec_calls",
    "api.client_s", "api.items_per_request", "api.ok_ratio",
    "core.audit_many_calls", "core.plan_s", "core.cache_hit_rate",
    "core.discovery_s", "core.removal_s", "core.overlap_s",
    *(f"experiments.{name}_s" for name in EXPERIMENTS),
    "reporting.render_s",
    "analysis.files", "analysis.extract_s", "analysis.summary_s",
    "analysis.project_s",
    "api_requests", "virtual_s",
    "startup_s", "trace.attributed_share", "trace.overhead",
)

#: Per-layer metrics only ``storm_resume`` moves.  That workload is not
#: in ``BENCHMARK.json`` (see README.md), so these appear in its text
#: output only.
STORM_LAYER = (
    "api.retries", "api.faults", "api.backoff_virtual_s",
    "core.checkpoint_save_s", "core.checkpoint_load_s", "core.checkpoint_bytes",
    "core.requeried", "resume_s",
)


# -- aggregation -----------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(ordered) * (100 - pct) / 100 >= 10:
            rank = math.ceil(len(ordered) * pct / 100) - 1
            return pct, ordered[max(rank, 0)]
    return None


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict[str, float]:
    """Medians over the traced passes, plus the whole-run figures.

    ``api_requests``, ``virtual_s`` and ``resume_s`` come from the
    untraced passes; the first two are exact and equal in both kinds.
    """
    found: dict[str, list[float]] = {}
    for one in traced:
        layers = dict(one.layers)
        layers.pop("spans", None)
        for key, (num, den) in layers.pop("ratios", {}).items():
            layers[key] = num / den if den else 0.0
        for key, value in layers.items():
            found.setdefault(key, []).append(value)
    metrics = {
        key: statistics.median(found.get(key, [0])) for key in PER_LAYER + STORM_LAYER
    }
    metrics["api_requests"] = untraced[0].api_requests or 0
    metrics["virtual_s"] = untraced[0].virtual_s or 0.0
    metrics["resume_s"] = statistics.median(p.resume_s or 0.0 for p in untraced)
    metrics["startup_s"] = statistics.median(p.startup_s or 0.0 for p in traced)
    metrics["trace.attributed_share"] = statistics.median(
        p.attributed_share for p in traced
    )
    metrics["trace.overhead"] = (
        statistics.median(p.run_s for p in traced)
        / statistics.median(p.run_s for p in untraced)
        - 1
    )
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_rate", "_ratio", "_share", "overhead")):
        return "ratio"
    if name.endswith(("bytes_computed", "_bytes")):
        return "bytes"
    if name.endswith("_per_request"):
        return "items/request"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            root: Path) -> dict:
    run_pass = WORKLOADS[workload]
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    untraced: list[Pass] = []
    traced: list[Pass] = []
    started = perf_counter()
    try:
        while True:
            for is_traced in ((False, True) if trace else (False,)):
                work = Path(tempfile.mkdtemp(dir=run_dir))
                try:
                    one = run_pass(root, work, seed, is_traced)
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                if is_traced:
                    one.problems += check_entry_points(workload, one)
                (traced if is_traced else untraced).append(one)
            elapsed = perf_counter() - started
            rounds = len(untraced)
            if elapsed + elapsed / rounds > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    problems = [f for p in passes for f in p.problems]
    attempted = sum(p.attempted for p in passes)
    runs = [p.run_s for p in untraced]
    lines = [f"workload {workload}  seed {seed}  passes {len(untraced)}"
             + (f" untraced + {len(traced)} traced" if trace else "")]
    end_to_end = {
        "run_s": statistics.median(runs),
        "setup_s": statistics.median(p.setup_s for p in untraced),
        "peak_rss_mb": max(p.peak_rss_mb for p in untraced),
    }
    tail = tail_percentile(runs)
    lines.append(
        f"  run_s          {end_to_end['run_s']:.4f} s   median of n={len(runs)}; "
        + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
           "no percentile has ten samples beyond it")
    )
    lines.append(f"  setup_s        {end_to_end['setup_s']:.4f} s   median")
    lines.append(f"  peak_rss_mb    {end_to_end['peak_rss_mb']:.1f} MB  highest")
    first = untraced[0]
    if first.api_requests is not None:
        lines.append(f"  api_requests   {first.api_requests} count (exact)")
        lines.append(f"  virtual_s      {first.virtual_s!r} s (exact, simulated)")
    if first.resume_s is not None:
        resume = statistics.median(p.resume_s for p in untraced)
        lines.append(f"  resume_s       {resume:.4f} s   median")
    lines.append(f"  operations     {attempted} attempted, {len(failures)} failed")
    for failure in failures:
        lines.append(f"    FAILED {failure}")
    for problem in problems:
        lines.append(f"  CHECK FAILED {problem}")
    if trace:
        measured = per_layer(untraced, traced)
        lines.append("  per-layer (traced passes):")
        for key, value in measured.items():
            if key in PER_LAYER or workload == "storm_resume":
                lines.append(f"    {key:32s} {value!r} {unit_of(key)}")
        metrics = {key: measured[key] for key in PER_LAYER}
    else:
        metrics = end_to_end
    return {
        "lines": lines,
        "result": {
            "correct": not problems and all(is_known(f) for f in failures),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {
                key: {"value": value, "unit": unit_of(key)}
                for key, value in metrics.items()
            },
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").exists():
        print(f"perfbench: no src/repro under {root}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        outcome = measure(args.workload, program_seed(args.seed), args.seconds,
                          bool(args.trace), root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(outcome["lines"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
