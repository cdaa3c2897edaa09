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

Beside the digests, which only detect change, a record oracle checks
that the run's sizes are right.  Every size the audit used -- each
value of every audit record and every ``AuditTarget.measure`` result,
which covers ``intersection_size`` and the base sizes -- is recorded as
(interface, spec, slice, reported size) and recomputed from the
population's own bitsets: the option vectors and the slice's
demographic vectors are ANDed as raw words, popcounted with numpy, and
only the interface's value hook and ``RoundingPolicy.round`` are
applied.  The oracle uses no client, codec, transport, route, memo,
``prime_counts`` or audit cache.

The in-process run is traced, since tracing changes nothing a run
computes; ``tests/test_obs_overhead.py`` reads its trace through the
session fixture ``traced_tiny_run`` instead of making a run of its
own.  The subprocess run is untraced, so both modes meet the digests.

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
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro.obs import Tracer
from repro.platforms.google import MOST_RESTRICTIVE_CAP
from repro.platforms.targeting import TargetingSpec

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


def audit_to_json(audit) -> dict:
    """One audit record as the dict its digest is taken over."""
    return {
        "options": list(audit.options),
        "attribute": audit.attribute.name,
        "sizes": {v.label: int(s) for v, s in audit.sizes.items()},
        "bases": {v.label: int(b) for v, b in audit.bases.items()},
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


class TinyRun(NamedTuple):
    """One traced ``--scale tiny`` run, as the golden gates read it."""

    text: str
    records: dict
    wire: dict
    tracer: Tracer
    #: ``time.process_time`` seconds of the traced run and its render.
    cpu_s: float
    #: Every size the audit used: ``(experiment, interface key, spec,
    #: sensitive value or None, exclude, reported size)``.
    sizes: list
    #: Audit records whose sizes are in :attr:`sizes`, per experiment.
    audited: dict
    #: The run's platform suite, for the oracle.
    suite: object


def tiny_run() -> TinyRun:
    """The rendered tiny run, the digests of its records and wire, and
    its trace.

    The run is traced so that the tracing-cost gate
    (``tests/test_obs_overhead.py``) can share it; tracing never
    changes what a run computes, and the second-``PYTHONHASHSEED``
    test checks an untraced run against the same digests.
    """
    from repro.core.audit import AuditTarget
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.context import ExperimentContext
    from repro.experiments.runner import EXPERIMENTS, run_all

    audit_many, audit = AuditTarget.audit_many, AuditTarget.audit
    measure, context_init = AuditTarget.measure, ExperimentContext.__init__
    records: dict[str, list[str]] = {}
    sizes: list[tuple] = []
    audited: dict[str, int] = {}
    contexts: list[ExperimentContext] = []
    current = ""

    def record(target, audits):
        records[current].extend(
            json.dumps(audit_to_json(a), sort_keys=True) for a in audits
        )
        key = target.measure_client.interface_key
        everyone = TargetingSpec.everyone()
        for a in audits:
            spec = TargetingSpec.of(*a.options)
            sizes.extend((current, key, spec, v, False, n) for v, n in a.sizes.items())
            sizes.extend(
                (current, key, everyone, v, False, n) for v, n in a.bases.items()
            )
        audited[current] += len(audits)

    def recording_many(self, *args, **kwargs):
        made = audit_many(self, *args, **kwargs)
        record(self, made.audits)
        return made

    def recording(self, *args, **kwargs):
        made = audit(self, *args, **kwargs)
        record(self, [made])
        return made

    def measuring(self, spec, value=None, exclude=False):
        size = measure(self, spec, value, exclude)
        key = self.measure_client.interface_key
        sizes.append((current, key, spec, value, exclude, size))
        return size

    def capturing(self, *args, **kwargs):
        context_init(self, *args, **kwargs)
        contexts.append(self)

    def scoped(name, runner):
        def run(ctx):
            nonlocal current
            current = name
            records[name] = []
            audited[name] = 0
            return runner(ctx)

        return run

    with pytest.MonkeyPatch.context() as patch, recording_wire() as wire:
        patch.setattr(AuditTarget, "audit_many", recording_many)
        patch.setattr(AuditTarget, "audit", recording)
        patch.setattr(AuditTarget, "measure", measuring)
        patch.setattr(ExperimentContext, "__init__", capturing)
        for name, (title, runner) in list(EXPERIMENTS.items()):
            patch.setitem(EXPERIMENTS, name, (title, scoped(name, runner)))
        tracer = Tracer("golden")
        started = time.process_time()
        text = run_all(ExperimentConfig.tiny(), tracer=tracer).render()
        cpu_s = time.process_time() - started
    (context,) = contexts
    return TinyRun(
        text,
        _digest_lines(records, "audits"),
        digest_wire(wire),
        tracer,
        cpu_s,
        sizes,
        audited,
        context.session.suite,
    )


class BitsetOracle:
    """Reported sizes recomputed from a suite's population bitsets.

    Uses only each interface's population index, catalog, registered
    audiences (as ``AudienceService`` holds them), value hook and
    rounding policy.  The audit's estimate options are the clients':
    Google's most restrictive frequency cap; Facebook's objective does
    not move its user counts.
    """

    def __init__(self, suite):
        self.suite = suite
        self._platforms = {
            "facebook": suite.facebook,
            "facebook_restricted": suite.facebook,
            "google": suite.google,
            "linkedin": suite.linkedin,
        }
        self._options = {"google": {"frequency_cap": MOST_RESTRICTIVE_CAP}}

    def _words(self, key: str, option_id: str) -> np.ndarray:
        interface = self.suite.interfaces[key]
        if option_id.startswith("audience:"):
            return self._platforms[key].audiences.get(option_id).members.words
        index = interface.population.index
        demographic = interface.catalog.get(option_id).demographic_value
        if demographic is not None:  # LinkedIn's gender and age facets
            return index.demographic(demographic).words
        return index.attribute(option_id).words

    @staticmethod
    def _any_of(index, values) -> np.ndarray:
        return np.bitwise_or.reduce([index.demographic(v).words for v in values])

    def size(self, key: str, spec: TargetingSpec, value, exclude: bool) -> int:
        interface = self.suite.interfaces[key]
        index = interface.population.index
        audience = index.everyone.words.copy()
        for clause in spec.clauses:
            audience &= np.bitwise_or.reduce(
                [self._words(key, option) for option in clause]
            )
        for option in spec.exclusions:
            audience &= ~self._words(key, option)
        for values in (spec.genders, spec.age_ranges):
            if values is not None:
                audience &= self._any_of(index, values)
        if value is not None:
            values = [value]
            if exclude:
                values = [v for v in type(value) if v is not value]
            audience &= self._any_of(index, values)
        users = int(np.bitwise_count(audience).sum()) * interface.population.scale
        reported = interface._reported_value(users, **self._options.get(key, {}))
        return interface.rounding.round(reported)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def tiny_digests(traced_tiny_run) -> dict:
    return digest_report(traced_tiny_run.text)


def test_golden_covers_the_whole_registry(golden):
    from repro.experiments.runner import EXPERIMENTS

    assert list(golden["sections"]) == list(EXPERIMENTS)


def test_tiny_run_matches_golden_digests(tiny_digests, golden):
    assert tiny_digests["sections"] == golden["sections"]


def test_tiny_run_matches_golden_request_total(tiny_digests, golden):
    assert tiny_digests["total_api_requests"] == golden["total_api_requests"]


def test_tiny_run_matches_golden_record_digests(traced_tiny_run):
    assert traced_tiny_run.records == json.loads(RECORDS.read_text())


def test_tiny_run_matches_golden_wire_digests(traced_tiny_run):
    assert traced_tiny_run.wire == json.loads(WIRE.read_text())


def test_every_recorded_size_matches_the_bitset_oracle(traced_tiny_run):
    """Each size the tiny run used is the one its population implies."""
    oracle = BitsetOracle(traced_tiny_run.suite)
    expected: dict[tuple, int] = {}
    wrong = []
    for experiment, key, spec, value, exclude, size in traced_tiny_run.sizes:
        # Gender and AgeRange are IntEnums that compare equal across
        # types, so the slot carries the value's type.
        slot = (key, spec, type(value), value, exclude)
        if slot not in expected:
            expected[slot] = oracle.size(key, spec, value, exclude)
        if size != expected[slot]:
            wrong.append((experiment, *slot, size, expected[slot]))
    assert not wrong, f"{len(wrong)} sizes differ, first: {wrong[:3]}"
    counts = {
        name: digest["audits"]
        for name, digest in json.loads(RECORDS.read_text()).items()
    }
    assert traced_tiny_run.audited == counts
    # table1 makes no audit record; its intersections reach the oracle.
    assert any(experiment == "table1" for experiment, *_ in traced_tiny_run.sizes)


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
    run = tiny_run()
    golden_file = {
        "--records": run.records, "--wire": run.wire
    }.get(" ".join(sys.argv[1:]), digest_report(run.text))
    print(json.dumps(golden_file, indent=2))
