"""Tests for the audit-side API clients against mounted routes."""

from __future__ import annotations

import pytest

from repro.api import FakeTransport, mount_suite_routes
from repro.api.client import FacebookReachClient
from repro.platforms.errors import (
    ApiError,
    DisallowedTargetingError,
    UnsupportedCompositionError,
)
from repro.platforms.targeting import TargetingSpec
from repro.population.demographics import Gender


@pytest.fixture(scope="module")
def clients(session_small):
    return session_small.clients


class TestClientEstimates:
    def test_estimates_match_interface(self, session_small):
        """Client-side estimates equal direct interface estimates."""
        fb_client = session_small.clients["facebook"]
        fb_interface = session_small.suite.facebook.normal
        spec = TargetingSpec.of(fb_interface.study_option_ids()[0]).with_gender(
            Gender.MALE
        )
        assert fb_client.estimate(spec) == fb_interface.estimate_reach(
            spec
        ).estimate

    def test_google_client_caps_frequency(self, session_small):
        """The Google client pins the most restrictive frequency cap, so
        its impressions approximate users."""
        client = session_small.clients["google"]
        display = session_small.suite.google.display
        spec = TargetingSpec.everyone()
        users = display.exact_users(spec)
        assert client.estimate(spec) == display.rounding.round(users)

    def test_linkedin_demographic_facets(self, session_small):
        client = session_small.clients["linkedin"]
        male = client.demographic_option_id("male")
        age = client.demographic_option_id("55+")
        assert male != age
        assert client.estimate(TargetingSpec.of(male)) > 0
        with pytest.raises(KeyError):
            client.demographic_option_id("unknown")

    def test_catalog_counts(self, clients):
        assert len(clients["facebook"].catalog()) == 667
        assert len(clients["facebook_restricted"].catalog()) == 393
        assert len(clients["google"].catalog()) == 873 + 2424
        assert len(clients["linkedin"].catalog()) == 552 + 6

    def test_catalog_cached(self, clients):
        client = clients["facebook"]
        before = client.transport.total_requests
        client.catalog()
        client.catalog()
        assert client.transport.total_requests <= before + 1

    def test_option_names(self, clients):
        names = clients["facebook_restricted"].option_names()
        assert "fb:interests:interests--cars" in names
        assert names["fb:interests:interests--cars"] == "Interests — Cars"


class TestClientErrors:
    def test_restricted_gender_targeting_typed_error(self, clients):
        spec = TargetingSpec.everyone().with_gender(Gender.MALE)
        with pytest.raises(DisallowedTargetingError):
            clients["facebook_restricted"].estimate(spec)

    def test_google_same_feature_typed_error(self, session_small):
        client = session_small.clients["google"]
        audiences = [
            o.option_id for o in client.catalog() if o.feature == "audiences"
        ]
        with pytest.raises(UnsupportedCompositionError):
            client.estimate(TargetingSpec.of(*audiences[:2]))

    def test_free_form_search(self, clients):
        results = clients["facebook"].search("Marie Claire")
        assert any(o.free_form for o in results)

    def test_restricted_has_no_search(self, clients):
        with pytest.raises(DisallowedTargetingError):
            clients["facebook_restricted"].search("anything")


class TestClientRetry:
    def test_client_backs_off_and_succeeds(self, session_small):
        """With a rate limit, clients sleep the virtual clock and retry."""
        transport = FakeTransport(rate=2.0, burst=2, latency=0.0)
        mount_suite_routes(transport, session_small.suite)
        client = FacebookReachClient(transport, restricted=False)
        spec = TargetingSpec.everyone()
        values = [client.estimate(spec) for _ in range(10)]
        assert len(set(values)) == 1
        assert transport.clock.now() > 0  # back-off really advanced time

    def test_retry_budget_exhausts(self, session_small):
        class StubbornClock:
            """Clock whose sleep does not advance time."""

            def __init__(self):
                self._now = 0.0

            def now(self):
                return self._now

            def advance(self, seconds):
                pass

            def sleep(self, seconds):
                pass

        transport = FakeTransport(rate=0.001, burst=1, latency=0.0)
        transport.clock = StubbornClock()
        mount_suite_routes(transport, session_small.suite)
        client = FacebookReachClient(transport, restricted=False)
        client.max_retries = 3
        spec = TargetingSpec.everyone()
        client.estimate(spec)  # consumes the burst token
        with pytest.raises(ApiError):
            client.estimate(spec)
