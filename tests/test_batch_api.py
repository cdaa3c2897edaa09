"""Tests for the batched reach-estimation pipeline.

Covers the three layers the batch path adds: the server-side batch
endpoints (per-item results and errors, envelope limits, rate-limit
cost accounting), the clients' ``estimate_many`` (chunking, 429
back-off, typed per-item errors), and the audit core's query planner
(dedup, and bit-identical parity with direct per-composition audits).
"""

from __future__ import annotations

import pytest

from repro.api import FakeTransport, build_clients, mount_suite_routes
from repro.api.wire import MAX_BATCH_SIZE, BatchEnvelope
from repro.core.audit import build_audit_targets
from repro.platforms.errors import (
    BadRequestError,
    DisallowedTargetingError,
    PlatformError,
    UnsupportedCompositionError,
)
from repro.platforms.targeting import TargetingSpec
from repro.population.demographics import SENSITIVE_ATTRIBUTES, Gender


@pytest.fixture(scope="module")
def clients(session_small):
    return session_small.clients


@pytest.fixture(scope="module")
def study_ids(session_small):
    """Study option ids per interface key (fresh targets, shared clients)."""
    targets = build_audit_targets(session_small.clients)
    return {key: t.study_option_ids() for key, t in targets.items()}


def _specs(ids, n=5):
    return [TargetingSpec.of(option) for option in ids[:n]]


class TestBatchEndpoints:
    @pytest.mark.parametrize(
        "key", ["facebook", "facebook_restricted", "google", "linkedin"]
    )
    def test_batch_matches_single_calls(self, clients, study_ids, key):
        """Happy path: estimate_many equals per-spec estimate() calls."""
        client = clients[key]
        specs = _specs(study_ids[key])
        singles = [client.estimate(s) for s in specs]
        batched = client.estimate_many(specs)
        assert batched == singles

    def test_mixed_item_errors_do_not_fail_batch(self, clients, study_ids):
        """Inexpressible specs come back as typed per-item errors."""
        client = clients["facebook_restricted"]
        good = TargetingSpec.of(study_ids["facebook_restricted"][0])
        bad = good.with_gender(Gender.MALE)  # restricted: no demographics
        results = client.estimate_many([good, bad, good])
        assert isinstance(results[0], int)
        assert isinstance(results[1], DisallowedTargetingError)
        assert results[2] == results[0]

    def test_google_composition_error_is_per_item(self, clients, study_ids):
        """Same-feature AND on Google errors that item only."""
        client = clients["google"]
        ids = study_ids["google"]
        features = {o.option_id: o.feature for o in client.catalog()}
        same = [i for i in ids if features[i] == features[ids[0]]][:2]
        cross = [ids[0], next(i for i in ids if features[i] != features[ids[0]])]
        results = client.estimate_many(
            [TargetingSpec.of(*cross), TargetingSpec.of(*same)]
        )
        assert isinstance(results[0], int)
        assert isinstance(results[1], UnsupportedCompositionError)

    def test_oversized_batch_rejected(self, session_small, study_ids):
        """More than MAX_BATCH_SIZE items in one envelope is a 400."""
        from repro.api.transport import HttpRequest

        spec = TargetingSpec.of(study_ids["facebook"][0])
        client = session_small.clients["facebook"]
        items = [client._encode_item(spec)] * (MAX_BATCH_SIZE + 1)
        response = session_small.transport.request(
            HttpRequest(
                method="POST",
                path="/facebook/delivery_estimates",
                body=BatchEnvelope.encode_request(items),
            )
        )
        assert response.status == 400
        assert str(MAX_BATCH_SIZE) in response.body["error"]

    def test_client_chunks_large_spec_lists(self, clients, study_ids):
        """estimate_many transparently chunks past the envelope limit."""
        client = clients["linkedin"]
        specs = _specs(study_ids["linkedin"]) * 20  # 100 specs -> 2 chunks
        before = client.request_count
        results = client.estimate_many(specs)
        assert len(results) == len(specs)
        assert all(isinstance(r, int) for r in results)
        assert client.request_count - before == 2
        # Order survives chunking: repeated specs repeat their estimate.
        assert results[:5] * 20 == results


class TestRateLimiting:
    def _limited_session(self, session_small, rate, burst):
        """Clients on a fresh rate-limited transport over the same suite."""
        transport = FakeTransport(rate=rate, burst=burst)
        mount_suite_routes(transport, session_small.suite)
        return transport, build_clients(transport)

    def test_backs_off_on_429_between_batches(self, session_small, study_ids):
        """A mid-run 429 is absorbed by virtual-clock back-off."""
        transport, clients = self._limited_session(
            session_small, rate=2.0, burst=8
        )
        client = clients["facebook"]
        specs = _specs(study_ids["facebook"]) * 26  # 130 specs -> 3 chunks
        results = client.estimate_many(specs)
        assert all(isinstance(r, int) for r in results)
        stats = transport.stats()["POST /facebook/delivery_estimates"]
        assert stats["rate_limited"] >= 1
        assert transport.clock.now() > transport.latency * 3

    def test_batch_cost_charged_per_item(self, session_small, study_ids):
        """A batch drains 1 + 0.1*(n-1) tokens, far less than n singles."""
        # Near-zero refill rate so the bucket level isolates the cost.
        transport, clients = self._limited_session(
            session_small, rate=0.001, burst=40
        )
        bucket = transport._bucket("audit")
        client = clients["linkedin"]
        spec = TargetingSpec.of(study_ids["linkedin"][0])
        start = bucket.available
        client.estimate(spec)
        assert bucket.available == pytest.approx(start - 1.0, abs=0.01)
        start = bucket.available
        client.estimate_many([spec] * 11)
        assert bucket.available == pytest.approx(start - 2.0, abs=0.01)
        start = bucket.available
        client.estimate_many([spec] * 64)
        assert bucket.available == pytest.approx(start - 7.3, abs=0.01)


class TestQueryPlanner:
    def test_planner_dedups_repeated_compositions(self, session_small, study_ids):
        """Duplicate compositions cost no extra server queries."""
        target = build_audit_targets(session_small.clients)["facebook"]
        attribute = SENSITIVE_ATTRIBUTES["gender"]
        a, b = study_ids["facebook"][:2]
        once = build_audit_targets(session_small.clients)["facebook"]
        client = once.client
        before = client.request_count
        once.audit_many([(a,), (b,)], attribute)
        unique_cost = client.request_count - before
        before = client.request_count
        target.audit_many([(a,), (b,), (a,), (b,), (a,)], attribute)
        assert client.request_count - before == unique_cost
        assert target.cache_hits > 0

    def test_warm_cache_issues_no_requests(self, session_small, study_ids):
        target = build_audit_targets(session_small.clients)["facebook"]
        attribute = SENSITIVE_ATTRIBUTES["age"]
        compositions = [(i,) for i in study_ids["facebook"][:3]]
        target.audit_many(compositions, attribute)
        before = target.client.request_count
        again = target.audit_many(compositions, attribute)
        assert target.client.request_count == before
        assert len(again) == 3

    @pytest.mark.parametrize(
        "key", ["facebook", "facebook_restricted", "google", "linkedin"]
    )
    @pytest.mark.parametrize("attribute_name", ["gender", "age"])
    def test_batched_parity_with_sequential(
        self, session_small, study_ids, key, attribute_name
    ):
        """Batched audits equal a loop of direct ``audit`` calls."""
        ids = study_ids[key]
        compositions = [
            (ids[0],),
            (ids[0], ids[-1]),
            (ids[1], ids[-2]),
            (ids[2], ids[2]),  # duplicate option: skipped by both
            (ids[3], ids[-4]),
        ]
        attribute = SENSITIVE_ATTRIBUTES[attribute_name]
        batched = build_audit_targets(session_small.clients)[key].audit_many(
            compositions, attribute
        )
        target = build_audit_targets(session_small.clients)[key]
        sequential = [
            target.audit(options, attribute)
            for options in compositions
            if target.can_compose(options)
        ]
        assert batched.audits == sequential

    def test_error_parity_without_skip(self, session_small, study_ids):
        """audit_many raises where the direct ``audit`` loop raises."""
        ids = study_ids["google"]
        client = session_small.clients["google"]
        features = {o.option_id: o.feature for o in client.catalog()}
        same = tuple(i for i in ids if features[i] == features[ids[0]])[:2]
        compositions = [(ids[0],), same, (ids[1],)]
        attribute = SENSITIVE_ATTRIBUTES["gender"]
        target = build_audit_targets(session_small.clients)["google"]
        with pytest.raises(UnsupportedCompositionError) as batched:
            target.audit_many(compositions, attribute, skip_uncomposable=False)

        target = build_audit_targets(session_small.clients)["google"]
        audited = []
        with pytest.raises(UnsupportedCompositionError) as direct:
            for options in compositions:
                audited.append(target.audit(options, attribute))
        assert len(audited) == 1  # raised at ``same``, the second one
        assert str(batched.value) == str(direct.value)


class TestServerPriming:
    def test_primed_estimates_match_unprimed(self, session_small, study_ids):
        """prime_counts changes nothing about the returned estimates."""
        interface = session_small.suite.facebook.normal
        specs = [
            TargetingSpec.of(i).with_gender(Gender.MALE)
            for i in study_ids["facebook"][:4]
        ]
        unprimed = [interface.estimate_value(s) for s in specs]
        interface.prime_counts(specs)
        assert [interface.estimate_value(s) for s in specs] == unprimed
        assert not interface._count_memo  # consumed on use

    def test_prime_skips_invalid_specs(self, session_small, study_ids):
        """Invalid specs stay unprimed so the per-item path raises."""
        interface = session_small.suite.linkedin.interface
        bad = TargetingSpec.of(study_ids["linkedin"][0]).with_gender(Gender.MALE)
        unknown = TargetingSpec.of("nope:no-such-option")
        interface.prime_counts([bad, unknown])
        assert not interface._count_memo
        with pytest.raises(DisallowedTargetingError):
            interface.estimate_value(bad)
        with pytest.raises(PlatformError):
            interface.estimate_value(unknown)

    def test_resolution_memo_shared_across_slices(self, session_small, study_ids):
        """Demographic slices of one rule resolve the rule once."""
        interface = session_small.suite.google.display
        spec = TargetingSpec.of(study_ids["google"][7])
        before = interface.resolution_stats()
        interface.estimate_value(spec.with_gender(Gender.MALE))
        mid = interface.resolution_stats()
        interface.estimate_value(spec.with_gender(Gender.FEMALE))
        after = interface.resolution_stats()
        assert mid["misses"] == before["misses"] + 1
        assert after["misses"] == mid["misses"]
        assert after["hits"] == mid["hits"] + 1


class TestBatchEnvelope:
    def test_round_trip(self):
        items = [{"a": 1}, {"b": 2}]
        assert BatchEnvelope.decode_request(
            BatchEnvelope.encode_request(items)
        ) == items
        results = [
            BatchEnvelope.item_ok({"x": 1}),
            BatchEnvelope.item_error(400, "nope", "TargetingError"),
        ]
        entries = BatchEnvelope.decode_response(
            BatchEnvelope.encode_response(results), expected=2
        )
        assert entries[0] == {"result": {"x": 1}}
        assert entries[1]["error"]["kind"] == "TargetingError"

    def test_empty_and_mismatched_envelopes_rejected(self):
        with pytest.raises(BadRequestError):
            BatchEnvelope.decode_request({"batch": []})
        with pytest.raises(BadRequestError):
            BatchEnvelope.decode_response({"results": [{}]}, expected=2)
