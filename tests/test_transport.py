"""Tests for the fake HTTP transport, virtual clock, and rate limiter."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.api.ratelimit import TokenBucket
from repro.api.transport import (
    FakeTransport,
    HttpRequest,
    HttpResponse,
    VirtualClock,
)
from repro.obs import Tracer
from repro.platforms.errors import (
    BadRequestError,
    NoSizeEstimateError,
    TargetingError,
)


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.sleep(0.5)
        assert clock.now() == 2.0

    def test_no_time_travel(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)


class TestTokenBucket:
    def test_burst_then_throttle(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert wait > 0.0

    def test_refills_over_time(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=2.0, burst=1, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0
        clock.advance(0.5)
        assert bucket.try_acquire() == 0.0

    def test_capacity_capped(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=100.0, burst=3, clock=clock)
        clock.advance(100)
        assert bucket.available == 3.0

    def test_validation(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1, clock=clock)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0, clock=clock)
        bucket = TokenBucket(rate=1, burst=2, clock=clock)
        with pytest.raises(ValueError):
            bucket.try_acquire(0)
        with pytest.raises(ValueError):
            bucket.try_acquire(3)


def request(path="/x", body=None, account="a"):
    return HttpRequest(method="POST", path=path, body=body, account=account)


def request_statuses(tracer):
    """``(route, status)`` counts of a trace's ``transport.request`` events."""
    counts = Counter()
    for span in tracer.export():
        for event in span["events"]:
            if event["name"] == "transport.request":
                attrs = event["attrs"]
                route = f"{attrs['platform']}/{attrs['endpoint']}"
                counts[route, attrs["status"]] += 1
    return counts


class TestFakeTransport:
    def make(self, rate=None, tracer=None):
        transport = FakeTransport(rate=rate, latency=0.01, tracer=tracer)
        transport.register("POST", "/x", lambda req: {"ok": True})
        return transport

    def test_dispatch(self):
        transport = self.make()
        response = transport.request(request())
        assert response.ok and response.body == {"ok": True}

    def test_latency_advances_clock(self):
        transport = self.make()
        transport.request(request())
        transport.request(request())
        assert transport.clock.now() == pytest.approx(0.02)

    def test_unknown_route_404(self):
        transport = self.make()
        assert transport.request(request(path="/nope")).status == 404

    def test_duplicate_route_rejected(self):
        transport = self.make()
        with pytest.raises(ValueError):
            transport.register("POST", "/x", lambda req: {})

    def test_targeting_error_maps_to_400_with_kind(self):
        transport = FakeTransport(rate=None)

        def boom(req):
            raise TargetingError("bad targeting")

        transport.register("POST", "/t", boom)
        response = transport.request(request(path="/t"))
        assert response.status == 400
        assert response.body["kind"] == "TargetingError"

    def test_no_size_maps_to_422(self):
        transport = FakeTransport(rate=None)

        def no_size(req):
            raise NoSizeEstimateError("nope")

        transport.register("POST", "/t", no_size)
        assert transport.request(request(path="/t")).status == 422

    def test_bad_request_maps_to_400(self):
        transport = FakeTransport(rate=None)

        def bad(req):
            raise BadRequestError("malformed")

        transport.register("POST", "/t", bad)
        assert transport.request(request(path="/t")).status == 400

    def test_rate_limit_429_with_retry_after(self):
        transport = FakeTransport(rate=1.0, burst=1, latency=0.0)
        transport.register("POST", "/x", lambda req: {"ok": True})
        assert transport.request(request()).ok
        limited = transport.request(request())
        assert limited.status == 429
        assert limited.body["retry_after"] > 0

    def test_rate_limit_is_per_account(self):
        transport = FakeTransport(rate=1.0, burst=1, latency=0.0)
        transport.register("POST", "/x", lambda req: {"ok": True})
        assert transport.request(request(account="a")).ok
        assert transport.request(request(account="b")).ok

    def test_stats(self):
        """Per-route counts are the trace's ``transport.request`` events."""
        tracer = Tracer("transport")
        transport = self.make(tracer=tracer)
        transport.request(request())
        transport.request(request())
        transport.request(request(path="/nope"))
        assert request_statuses(tracer) == {("x/", 200): 2, ("nope/", 404): 1}
        assert transport.total_requests == 3

    def test_response_ok_property(self):
        assert HttpResponse(204, {}).ok
        assert not HttpResponse(400, {}).ok


class TestTokenBucketRefillDrift:
    """Regression: sleeping exactly the advertised wait must suffice.

    ``try_acquire`` returns ``(need - tokens) / rate`` seconds; for
    most rates IEEE doubles round ``wait * rate`` slightly *below*
    ``need - tokens``, so an exact-wait sleeper came back fractionally
    short and was told to wait again (and again).  The bucket now
    absorbs that drift with a refill tolerance.
    """

    def test_exact_wait_sleep_refills_for_awkward_rates(self):
        for step in range(1, 60):
            rate = step / 7.0
            clock = VirtualClock()
            bucket = TokenBucket(rate=rate, burst=1, clock=clock)
            assert bucket.try_acquire() == 0.0
            wait = bucket.try_acquire()
            assert wait > 0.0
            clock.advance(wait)
            assert bucket.try_acquire() == 0.0, f"rate {rate} still short"

    def test_429_backoff_sleep_refills_the_bucket(self):
        """One 429 per rate-limited call, never two.

        The client sleeps the platform's ``retry_after`` hint (plus
        slack) on the shared clock; that sleep must refill the token
        bucket so the retry is admitted immediately.
        """
        from repro.api.client import FacebookReachClient

        tracer = Tracer("backoff")
        transport = FakeTransport(rate=0.3, burst=1, latency=0.0, tracer=tracer)
        transport.register("POST", "/facebook/delivery_estimate", lambda req: {"ok": 1})
        client = FacebookReachClient(transport)
        for _ in range(5):
            assert client._call("POST", "/facebook/delivery_estimate", {}) == {"ok": 1}
        # First call rides the initial burst; each later call pays
        # exactly one 429 before its retry is admitted.
        assert transport.total_requests == 5 + 4
        statuses = request_statuses(tracer)
        assert statuses[("facebook/delivery_estimate", 429)] == 4
