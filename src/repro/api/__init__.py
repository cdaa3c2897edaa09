"""Advertiser-facing API layer over the simulated platforms.

The paper does not scrape UIs by hand: the authors identified the
underlying API calls the targeting UIs make and automated them with a
Python script, respecting rate limits (Section 3, "Automating size
queries").  This package reproduces that layer:

``transport``
    A virtual-clock fake HTTP transport with per-account rate limiting
    and request accounting (no real sockets, no real sleeping).
``ratelimit``
    Token-bucket rate limiter driven by the virtual clock.
``wire``
    The wire contract: Facebook's and LinkedIn's plain-JSON codecs, the
    batch envelope, and every interface's route paths.  Each codec
    works an envelope at a time; a single estimate is a chunk of one.
``obfuscation``
    Google's obfuscated-JSON request/response codec.
``client``
    Per-platform reach-estimate clients used by the audit core, with a
    full resilience layer: retry policies, circuit breakers, and
    partial-batch retry.
``resilience``
    Retry policies (exponential back-off, seeded jitter) and circuit
    breakers, all deterministic on the virtual clock.
``chaos``
    Deterministic fault injection: a seeded transport wrapper that
    throttles, fails, resets, times out, and corrupts batch envelopes
    without ever changing a successful payload.
``routes``
    Server-side request handlers mounted on the transport.
"""

from repro.api.chaos import FAULT_PROFILES, ChaosTransport, FaultProfile
from repro.api.client import (
    FacebookReachClient,
    GoogleReachClient,
    LinkedInReachClient,
    ReachClient,
    build_clients,
)
from repro.api.obfuscation import GoogleWireCodec
from repro.api.ratelimit import TokenBucket
from repro.api.resilience import CircuitBreaker, RetryPolicy
from repro.api.routes import mount_suite_routes
from repro.api.transport import FakeTransport, HttpRequest, HttpResponse, VirtualClock

__all__ = [
    "FAULT_PROFILES",
    "ChaosTransport",
    "CircuitBreaker",
    "FacebookReachClient",
    "FakeTransport",
    "FaultProfile",
    "GoogleReachClient",
    "GoogleWireCodec",
    "HttpRequest",
    "HttpResponse",
    "LinkedInReachClient",
    "ReachClient",
    "RetryPolicy",
    "TokenBucket",
    "VirtualClock",
    "build_clients",
    "mount_suite_routes",
]
