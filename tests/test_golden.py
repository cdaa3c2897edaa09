"""Golden-output gate: the rendered report must not drift.

Every experiment section of a ``repro-audit`` run is reduced to a
sha256 digest of its text, with the ``(N.Ns)`` wall time stripped from
its header, and compared against ``tests/golden/tiny.json`` together
with the run's total simulated API requests.  The same digests must
come out of a fresh process under another ``PYTHONHASHSEED``, and the
paper-scale run must reproduce ``results_full_run.txt`` line for line
apart from wall times (a ``slow`` test).

Below the rendered text, every audit record the tiny run creates is
digested too (``tests/golden/tiny_records.json``): per experiment, the
count and one sha256 over each record serialised by ``audit_to_json``
with sorted keys, in creation order.  The records are every row of
every ``AuditTarget.audit_many`` result and every single
``AuditTarget.audit`` record.  A change to any record then fails even
when no rendered digit moves.

Below the records, every request the tiny run sends over the simulated
HTTP transport is digested as well (``tests/golden/tiny_wire.json``):
per route, the request count and one sha256 over each ``[method,
request body, status, response body]`` serialised as JSON with sorted
keys, in send order.  A codec or server change that moves one byte on
the wire then fails even when every estimate is unchanged.  The
second-``PYTHONHASHSEED`` subprocess checks these digests too.

Regenerate the golden files only for a change that is meant to alter
results (or, for the wire digests, the wire format)::

    PYTHONPATH=src python tests/test_golden.py > tests/golden/tiny.json
    PYTHONPATH=src python tests/test_golden.py --records \
        > tests/golden/tiny_records.json
    PYTHONPATH=src python tests/test_golden.py --wire \
        > tests/golden/tiny_wire.json
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden" / "tiny.json"
RECORDS = GOLDEN.with_name("tiny_records.json")
WIRE = GOLDEN.with_name("tiny_wire.json")
FULL_RUN = ROOT / "results_full_run.txt"
FULL_ARGS = ["--scale", "full", "--records", "100000", "--compositions", "500"]

_HEADER = re.compile(r"^== (\w+): (.*) \(\d+\.\ds\) ==$")
_TOTAL = re.compile(r"^Total simulated API requests: ([\d,]+) ")


def _untimed(line: str) -> str:
    """``line`` with a section header's wall time removed."""
    return _HEADER.sub(r"== \1: \2 ==", line)


def digest_report(text: str) -> dict:
    """Per-experiment sha256 digests and the request total of a report."""
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    total = None
    for line in text.splitlines():
        header = _HEADER.match(line)
        footer = _TOTAL.match(line)
        if header:
            current = sections.setdefault(header.group(1), [])
        elif footer:
            total = int(footer.group(1).replace(",", ""))
            current = None
        if current is not None:
            current.append(_untimed(line))
    return {
        "total_api_requests": total,
        "sections": {
            name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for name, lines in sections.items()
        },
    }


def _digest_lines(groups: dict[str, list[str]], count: str) -> dict:
    """Per group, its line count and one sha256 over its lines."""
    return {
        name: {
            count: len(lines),
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        }
        for name, lines in groups.items()
    }


@contextmanager
def recording_wire():
    """Record every transport exchange, per ``"METHOD /path"`` route.

    Yields the route map, filled as requests are sent; each exchange
    is one ``[method, body, status, response body]`` JSON line.
    """
    from repro.api.transport import FakeTransport

    request = FakeTransport.request
    wire: dict[str, list[str]] = {}

    def recording(self, http_request):
        response = request(self, http_request)
        wire.setdefault(
            f"{http_request.method} {http_request.path}", []
        ).append(
            json.dumps(
                [
                    http_request.method,
                    http_request.body,
                    response.status,
                    response.body,
                ],
                sort_keys=True,
            )
        )
        return response

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FakeTransport, "request", recording)
        yield wire


def digest_wire(wire: dict[str, list[str]]) -> dict:
    """Request count and sha256 of each route's exchanges, by route."""
    return _digest_lines(dict(sorted(wire.items())), "requests")


def _run_cli(args: list[str], hash_seed: str, wire: bool = False) -> str:
    """The CLI's output; with ``wire``, plus a last line of wire digests."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    command = (
        [__file__, "--wire-cli"] if wire else ["-m", "repro.experiments.runner"]
    )
    result = subprocess.run(
        [sys.executable, *command, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def _tiny_run() -> tuple[str, dict, dict]:
    """The rendered tiny run and the digests of its records and wire."""
    from repro.core.audit import AuditTarget
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import EXPERIMENTS, run_all
    from repro.reporting.serialize import audit_to_json

    audit_many, audit = AuditTarget.audit_many, AuditTarget.audit
    records: dict[str, list[str]] = {}
    current = ""

    def record(audits):
        records[current].extend(
            json.dumps(audit_to_json(a), sort_keys=True) for a in audits
        )

    def recording_many(self, *args, **kwargs):
        made = audit_many(self, *args, **kwargs)
        record(made.audits)
        return made

    def recording(self, *args, **kwargs):
        made = audit(self, *args, **kwargs)
        record([made])
        return made

    def scoped(name, runner):
        def run(ctx):
            nonlocal current
            current = name
            records[name] = []
            return runner(ctx)

        return run

    with pytest.MonkeyPatch.context() as patch, recording_wire() as wire:
        patch.setattr(AuditTarget, "audit_many", recording_many)
        patch.setattr(AuditTarget, "audit", recording)
        for name, (title, runner) in list(EXPERIMENTS.items()):
            patch.setitem(EXPERIMENTS, name, (title, scoped(name, runner)))
        text = run_all(ExperimentConfig.tiny()).render()
    return text, _digest_lines(records, "audits"), digest_wire(wire)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def tiny_run() -> tuple[str, dict, dict]:
    return _tiny_run()


@pytest.fixture(scope="module")
def tiny_digests(tiny_run) -> dict:
    return digest_report(tiny_run[0])


def test_golden_covers_the_whole_registry(golden):
    from repro.experiments.runner import EXPERIMENTS

    assert list(golden["sections"]) == list(EXPERIMENTS)


def test_tiny_run_matches_golden_digests(tiny_digests, golden):
    assert tiny_digests["sections"] == golden["sections"]


def test_tiny_run_matches_golden_request_total(tiny_digests, golden):
    assert tiny_digests["total_api_requests"] == golden["total_api_requests"]


def test_tiny_run_matches_golden_record_digests(tiny_run):
    assert tiny_run[1] == json.loads(RECORDS.read_text())


def test_tiny_run_matches_golden_wire_digests(tiny_run):
    assert tiny_run[2] == json.loads(WIRE.read_text())


def test_digests_stable_under_another_hash_seed(golden):
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    output = _run_cli(["--scale", "tiny"], seed, wire=True)
    report, _, wire = output.rstrip("\n").rpartition("\n")
    assert digest_report(report) == golden
    assert json.loads(wire) == json.loads(WIRE.read_text())


def test_digest_ignores_only_header_wall_times():
    a = "== fig1: Figure 1 (x) (0.7s) ==\nbody\n\nTotal simulated API requests: 5 (p)"
    b = a.replace("(0.7s)", "(12.3s)")
    assert digest_report(a) == digest_report(b)
    assert digest_report(a) != digest_report(a.replace("body", "bodY"))


@pytest.mark.slow
def test_full_scale_run_reproduces_results_full_run():
    def comparable(text: str) -> list[str]:
        return [
            _untimed(line)
            for line in text.splitlines()
            if not line.startswith("Total wall time:")
        ]

    produced = _run_cli(FULL_ARGS, os.environ.get("PYTHONHASHSEED", "0"))
    assert comparable(produced) == comparable(FULL_RUN.read_text())


if __name__ == "__main__":
    if sys.argv[1:2] == ["--wire-cli"]:
        from repro.experiments.runner import main

        with recording_wire() as exchanges:
            main(sys.argv[2:])
        print(json.dumps(digest_wire(exchanges)))
        sys.exit(0)
    text, records, wire = _tiny_run()
    golden_file = {
        "--records": records, "--wire": wire
    }.get(" ".join(sys.argv[1:]), digest_report(text))
    print(json.dumps(golden_file, indent=2))
