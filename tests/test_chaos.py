"""Fault-matrix suite: chaos in, bit-identical audit records out.

The contract under test (see ``repro.api.chaos``): injected faults
only delay or deny, so a resilient client retried to completion
produces audit records **bit-identical** to a fault-free run, for
every fault profile.  Also covers seeded-replay determinism of the
fault stream, partial-batch retry parity, and checkpoint/resume after
a circuit-breaker kill -- including the paper-pipeline (fig2) run with
no-duplicate-query accounting.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import build_audit_session
from repro.api import (
    FAULT_PROFILES,
    ChaosTransport,
    FakeTransport,
    FaultProfile,
    VirtualClock,
    build_clients,
    mount_suite_routes,
)
from repro.core import EstimateCheckpoint, build_audit_targets
from repro.core.checkpoint import spec_from_wire, spec_to_wire
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.runner import run_all
from repro.platforms.errors import ApiError, PlatformError
from repro.platforms.targeting import TargetingSpec
from repro.population.demographics import SENSITIVE_ATTRIBUTES
from tests.checkpoints import read_checkpoint, write_checkpoint

pytestmark = pytest.mark.chaos

GENDER = SENSITIVE_ATTRIBUTES["gender"]

#: Every named profile that actually injects something.
FAULTY_PROFILES = sorted(set(FAULT_PROFILES) - {"calm"})


def _build_stack(suite, profile=None, chaos_seed=1031):
    """Fresh transport + clients + targets over a shared suite."""
    transport = FakeTransport(clock=VirtualClock(), rate=None)
    mount_suite_routes(transport, suite)
    if profile is not None:
        transport = ChaosTransport(transport, profile, seed=chaos_seed)
    clients = build_clients(transport)
    return transport, clients, build_audit_targets(clients)


#: Request-denying faults share one cumulative roll, so their boosted
#: probabilities must sum well below 1.0 or every request is denied
#: and the retry budget (then the breaker) exhausts.
_DENY_PROBS = ("throttle_prob", "server_error_prob", "reset_prob", "timeout_prob")
#: Payload-corrupting / delaying faults draw independently and never
#: deny the request outright, so they can be boosted much harder.
_SOFT_BOOSTS = {
    "latency_spike_prob": 0.75,
    "truncate_prob": 0.75,
    # Kept moderate: per-item failures must clear within the partial-
    # batch retry budget for every pending item.
    "item_failure_prob": 0.35,
}


def _boosted(profile: FaultProfile) -> FaultProfile:
    """Raise active fault probabilities so short batched runs inject."""
    overrides = {}
    active_deny = [n for n in _DENY_PROBS if getattr(profile, n) > 0]
    for name in active_deny:
        overrides[name] = max(getattr(profile, name), 0.45 / len(active_deny))
    for name, boost in _SOFT_BOOSTS.items():
        if getattr(profile, name) > 0:
            overrides[name] = max(getattr(profile, name), boost)
    return replace(profile, **overrides)


def _audit_facebook(suite, profile=None, chaos_seed=1031, n=20):
    transport, _, targets = _build_stack(suite, profile, chaos_seed)
    target = targets["facebook"]
    ids = target.study_option_ids()
    comps = [(a, b) for a, b in zip(ids, ids[1:])][:n]
    return target.audit_many(comps, GENDER), transport


@pytest.fixture(scope="module")
def fb_baseline(session_small):
    """Fault-free facebook records the matrix compares against."""
    records, _ = _audit_facebook(session_small.suite)
    return records


class TestFaultMatrix:
    @pytest.mark.parametrize("profile_name", FAULTY_PROFILES)
    def test_records_bit_identical_under_faults(
        self, profile_name, session_small, fb_baseline
    ):
        """Every profile, several fault sequences, one answer.

        Batching keeps the request count low, so a single seed may
        dodge a low-probability fault entirely; three seeds make the
        injection assertion meaningful while every run must still
        reproduce the fault-free records exactly.
        """
        profile = _boosted(FAULT_PROFILES[profile_name])
        injected = []
        for chaos_seed in (11, 12, 13):
            records, transport = _audit_facebook(
                session_small.suite, profile, chaos_seed=chaos_seed
            )
            assert records == fb_baseline, f"seed {chaos_seed} diverged"
            injected += transport.fault_log
        assert injected, f"profile {profile_name!r} injected nothing"

    def test_calm_profile_is_transparent(self, session_small, fb_baseline):
        records, transport = _audit_facebook(
            session_small.suite, FAULT_PROFILES["calm"]
        )
        assert records == fb_baseline
        assert transport.fault_log == []
        # Calm chaos adds zero virtual time beyond plain latency.
        _, plain = _audit_facebook(session_small.suite)
        assert transport.clock.now() == plain.clock.now()

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "interface_key", ["facebook_restricted", "google", "linkedin"]
    )
    def test_storm_bit_identical_on_every_interface(
        self, interface_key, session_small
    ):
        suite = session_small.suite

        def run(profile=None):
            _, clients, targets = _build_stack(suite, profile, chaos_seed=7)
            for client in clients.values():
                # A storm needs a deeper retry budget than the default:
                # every breaker open-window wait consumes an attempt.
                client.max_retries = 48
            target = targets[interface_key]
            ids = target.study_option_ids()
            comps = [(a, b) for a, b in zip(ids, ids[1:])][:12]
            return target.audit_many(comps, GENDER)

        assert run(_boosted(FAULT_PROFILES["storm"])) == run()


class TestSeededReplay:
    def test_same_seed_replays_the_same_faults(self, session_small):
        profile = _boosted(FAULT_PROFILES["storm"])
        records_a, ta = _audit_facebook(session_small.suite, profile, chaos_seed=99)
        records_b, tb = _audit_facebook(session_small.suite, profile, chaos_seed=99)
        assert ta.fault_log == tb.fault_log
        assert ta.fault_log  # the replay check is vacuous otherwise
        assert records_a == records_b
        assert ta.clock.now() == tb.clock.now()

    def test_different_seed_diverges(self, session_small):
        profile = _boosted(FAULT_PROFILES["storm"])
        _, ta = _audit_facebook(session_small.suite, profile, chaos_seed=99)
        _, tb = _audit_facebook(session_small.suite, profile, chaos_seed=100)
        assert ta.fault_log != tb.fault_log


def _comparable(results):
    """Estimates as they are, error items as ``(type, message)``:
    exception instances never compare equal."""
    return [
        (type(r), str(r)) if isinstance(r, PlatformError) else r for r in results
    ]


class TestPartialBatchRetry:
    @pytest.mark.parametrize("platform", ["facebook", "google", "linkedin"])
    def test_estimate_many_parity_across_chunks(self, session_small, platform):
        """~2 chunks of per-item faults + truncation, values unchanged,
        in each platform's batch envelope."""
        suite = session_small.suite
        _, clients, _ = _build_stack(suite)
        calm_client = clients[platform]
        ids = [o.option_id for o in calm_client.catalog()][:40]
        specs = [TargetingSpec.of(a) for a in ids]
        specs += [TargetingSpec.of(a, b) for a, b in zip(ids, ids[1:])]
        assert len(specs) > calm_client.batch_size  # force multiple chunks
        expected = calm_client.estimate_many(specs)

        profile = replace(FAULT_PROFILES["truncation"], item_failure_prob=0.15)
        transport, chaos_clients, _ = _build_stack(suite, profile, chaos_seed=5)
        chaotic = chaos_clients[platform].estimate_many(specs)
        assert _comparable(chaotic) == _comparable(expected)
        assert transport.fault_log.count("truncate") > 0
        assert transport.fault_log.count("item_failure") > 0

    def test_streaming_callback_sees_every_item_once(self, session_small):
        _, clients, _ = _build_stack(
            session_small.suite,
            FAULT_PROFILES["item_failures"],
            chaos_seed=5,
        )
        client = clients["facebook"]
        ids = [o.option_id for o in client.catalog()][:30]
        specs = [TargetingSpec.of(a) for a in ids]
        seen: dict[int, int] = {}
        results = client.estimate_many(
            specs, on_result=lambda i, v: seen.setdefault(i, v)
        )
        assert sorted(seen) == list(range(len(specs)))
        assert [seen[i] for i in range(len(specs))] == results


class TestCheckpoint:
    def test_spec_wire_round_trip(self, session_small):
        _, clients, _ = _build_stack(session_small.suite)
        ids = [o.option_id for o in clients["facebook"].catalog()][:4]
        specs = [
            TargetingSpec.everyone(),
            TargetingSpec.of(*ids[:2]),
            TargetingSpec(clauses=(), exclusions=frozenset(ids[2:])),
        ]
        for spec in specs:
            assert spec_from_wire(spec_to_wire(spec)) == spec

    def test_save_load_round_trip(self, tmp_path, session_small):
        _, clients, _ = _build_stack(session_small.suite)
        ids = [o.option_id for o in clients["facebook"].catalog()][:3]
        entries = [
            ("facebook", TargetingSpec.of(option), 1000 * (index + 1))
            for index, option in enumerate(ids)
        ]
        path = write_checkpoint(tmp_path / "run.ckpt.json", entries)

        loaded = EstimateCheckpoint(path)
        assert len(loaded) == 3
        assert loaded.shard("facebook") == {spec: n for _, spec, n in entries}
        assert read_checkpoint(loaded.save(tmp_path / "again.ckpt.json")) == entries

    def test_failed_save_keeps_the_previous_file(
        self, tmp_path, session_small, monkeypatch
    ):
        _, clients, _ = _build_stack(session_small.suite)
        ids = [o.option_id for o in clients["facebook"].catalog()][:3]
        path = write_checkpoint(
            tmp_path / "run.ckpt.json",
            [("facebook", TargetingSpec.of(option), 1000) for option in ids],
        )
        before = path.read_bytes()
        store = EstimateCheckpoint(path)
        calls = []

        def failing(spec):
            calls.append(spec)
            if len(calls) == 2:
                raise OSError("disk full")
            return spec_to_wire(spec)

        monkeypatch.setattr("repro.core.checkpoint.spec_to_wire", failing)
        with pytest.raises(OSError, match="disk full"):
            store.save()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt.json"]

    def test_outage_kill_then_resume_without_duplicate_queries(
        self, session_small, fault_profile
    ):
        """The acceptance invariant at the audit-target level.

        Run 1 dies mid-plan on an exhausted breaker during a permanent
        outage; run 2 resumes from the checkpoint and issues exactly
        the queries run 1 never completed -- counted at the platform
        interface, where every computed estimate increments
        ``query_count``.
        """
        suite = session_small.suite
        iface = suite.facebook.normal

        def run(profile=None, ckpt=None, budget=None):
            transport, clients, targets = _build_stack(suite, profile)
            if budget is not None:
                for client in clients.values():
                    client.max_retries = budget
            target = targets["facebook"]
            if ckpt is not None:
                target.attach_checkpoint(ckpt)
            ids = target.study_option_ids()
            comps = [(a, b) for a in ids[:10] for b in ids if a != b][:80]
            return target.audit_many(comps, GENDER), clients["facebook"]

        before = iface.query_count
        baseline, _ = run()
        baseline_queries = iface.query_count - before

        ckpt = EstimateCheckpoint()
        before = iface.query_count
        with pytest.raises(ApiError):
            run(fault_profile(outage_after=2), ckpt, budget=6)
        killed_queries = iface.query_count - before
        assert 0 < killed_queries < baseline_queries
        assert len(ckpt) == killed_queries

        before = iface.query_count
        resumed, client = run(ckpt=ckpt)
        resumed_queries = iface.query_count - before
        assert resumed == baseline
        assert killed_queries + resumed_queries == baseline_queries

    def test_breaker_opened_during_the_kill(self, session_small, fault_profile):
        suite = session_small.suite
        transport, clients, targets = _build_stack(
            suite, fault_profile(outage_after=2)
        )
        for client in clients.values():
            client.max_retries = 6
        target = targets["facebook"]
        ids = target.study_option_ids()
        comps = [(a, b) for a in ids[:10] for b in ids if a != b][:80]
        with pytest.raises(ApiError):
            target.audit_many(comps, GENDER)
        transitions = clients["facebook"].breaker.transitions
        assert ("closed", "open") in {(old, new) for _, old, new in transitions}


def _platform_queries(suite):
    """Size queries issued across every interface of a platform suite."""
    interfaces = (*suite.interfaces.values(), suite.google.search_campaign)
    return sum(interface.query_count for interface in interfaces)


@pytest.mark.slow
class TestRunnerKillResume:
    """ISSUE acceptance: kill fig2 mid-run, resume, bit-identical output."""

    CONFIG = ExperimentConfig.tiny().with_records(5_000)

    def _run(self, chaos=None, checkpoint=None, budget=None):
        session = build_audit_session(
            n_records=self.CONFIG.n_records,
            seed=self.CONFIG.seed,
            chaos=chaos,
        )
        if budget is not None:
            for client in session.clients.values():
                client.max_retries = budget
        context = ExperimentContext(self.CONFIG, session=session)
        report = run_all(
            config=self.CONFIG,
            only=["fig2"],
            context=context,
            checkpoint=checkpoint,
        )
        return report, session

    def test_fig2_mid_run_kill_and_resume(self, tmp_path, fault_profile):
        baseline_report, baseline_session = self._run()
        baseline_queries = _platform_queries(baseline_session.suite)

        path = tmp_path / "fig2.ckpt.json"
        outage = fault_profile(outage_after=6)
        with pytest.raises(PlatformError):
            self._run(chaos=outage, checkpoint=EstimateCheckpoint(path), budget=6)
        # The checkpoint survived the kill on disk.
        assert path.exists()
        killed = EstimateCheckpoint(path)
        assert len(killed) > 0

        resumed_report, resumed_session = self._run(checkpoint=EstimateCheckpoint(path))
        # Compare the rendered experiment output, not the report
        # wrapper: its header carries wall-clock timings and the
        # request footer legitimately differs on a resumed run.
        assert (
            resumed_report.results["fig2"].render()
            == baseline_report.results["fig2"].render()
        )
        # No duplicate platform queries: the resumed run only issued
        # what the killed run never completed.  (The killed run's own
        # session is gone, so account via the checkpoint size.)
        assert (
            len(killed) + _platform_queries(resumed_session.suite)
            == baseline_queries
        )
