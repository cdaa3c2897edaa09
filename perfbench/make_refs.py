"""Regenerate the committed reference outputs in ``perfbench/refs``.

Usage, from the root of a checkout::

    python3 perfbench/make_refs.py [--workloads paper_full ...] [--seeds 42 43]

For every reference seed this runs each audit workload once, untraced,
and stores its API request count, final virtual time and the sha256 of
every rendered experiment section (wall times stripped).  Seed 42 of
``paper_full`` takes its sections from ``results_full_run.txt`` itself
and reports where a fresh run differs from it.  ``storm_resume``'s
sections come from a calm run of the same experiments and
configuration, and its killed and resumed processes add their own
request counts and virtual times.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def audit_reference(root: Path, work: Path, seed: int, argv: list[str]) -> dict:
    out = work / "report.txt"
    wall, result = run.spawn(
        root, work,
        {"mode": "audit", "argv": argv + ["--seed", str(seed), "--jobs", "1",
                                          "--out", str(out)]},
        False,
    )
    print(f"  seed {seed}: {wall:.1f}s, {result['api_requests']} requests",
          flush=True)
    return {
        "api_requests": result["api_requests"],
        "virtual_s": result["virtual_s"],
        "sections": run.report_sections(out.read_text()),
    }


def storm_reference(root: Path, work: Path, seed: int) -> dict:
    calm = audit_reference(
        root, work, seed, run.STORM + ["--only", *run.STORM_EXPERIMENTS]
    )
    checkpoint = work / "run.ckpt.json"
    argv = run.STORM + [
        "--seed", str(seed), "--jobs", "1", "--only", *run.STORM_EXPERIMENTS,
        "--chaos", "storm", "--checkpoint", str(checkpoint),
    ]
    _, killed = run.spawn(
        root, work,
        {"mode": "audit", "argv": argv, "outage_after": run.STORM_OUTAGE_AFTER},
        False,
    )
    _, resumed = run.spawn(root, work, {"mode": "audit", "argv": argv}, False)
    print(f"  seed {seed}: killed by {killed['error']} after "
          f"{killed['api_requests']} requests, resumed with "
          f"{resumed['api_requests']}", flush=True)
    return {
        "sections": calm["sections"],
        "killed": {k: killed[k] for k in ("api_requests", "virtual_s")},
        "resumed": {k: resumed[k] for k in ("api_requests", "virtual_s")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["paper_full", "query_heavy", "storm_resume"])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(run.REFERENCE_SEEDS))
    args = parser.parse_args()
    root = Path.cwd()
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    configs = {
        "paper_full": run.PAPER_FULL,
        "query_heavy": run.QUERY_HEAVY,
        "storm_resume": run.STORM,
    }
    for name in args.workloads:
        path = run.REFS / f"{name}.json"
        payload = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
        print(name, flush=True)
        for seed in args.seeds:
            work = Path(tempfile.mkdtemp(dir=scratch))
            try:
                if name == "storm_resume":
                    entry = storm_reference(root, work, seed)
                else:
                    entry = audit_reference(root, work, seed, configs[name])
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if name == "paper_full" and seed == 42:
                golden = run.report_sections((root / "results_full_run.txt").read_text())
                differ = sorted(k for k in golden if golden[k] != entry["sections"][k])
                print(f"  differs from results_full_run.txt in: {differ}")
                entry["sections"] = golden
            payload["argv"] = configs[name]
            payload["seeds"][str(seed)] = entry
            payload["seeds"] = dict(sorted(payload["seeds"].items()))
            run.REFS.mkdir(exist_ok=True)
            path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    try:
        scratch.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
