"""Deterministic fault injection for the fake HTTP transport.

The paper's measurement pipeline hammered three live ad platforms
whose size-estimate APIs throttle, fail, and time out; Section 6's
methodology study exists precisely because the endpoints are flaky.
:class:`ChaosTransport` wraps a :class:`~repro.api.transport.FakeTransport`
and injects that flakiness on demand -- latency spikes, 429 storms,
500/503 bursts, connection resets, timeouts, truncated batch
envelopes, and per-item batch failures -- driven entirely by a seeded
RNG and the shared virtual clock, so any fault sequence replays
bit-identically from its seed.

The key invariant the chaos layer preserves: faults only *delay or
deny*, they never alter a successful payload.  A resilient client that
retries to completion therefore produces audit records bit-identical
to a fault-free run, which ``tests/test_chaos.py`` enforces across the
whole fault matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.api.obfuscation import GoogleWireCodec
from repro.api.transport import FakeTransport, HttpRequest, HttpResponse, VirtualClock
from repro.api.wire import PLAIN_ENVELOPE
from repro.platforms.errors import ConnectionLostError, RequestTimeoutError

__all__ = ["FaultProfile", "FAULT_PROFILES", "ChaosTransport"]

#: Every batch envelope a route answers in; a response is a batch
#: response when one of these finds its entry list under its key.
_ENVELOPES = (PLAIN_ENVELOPE, GoogleWireCodec.envelope)


@dataclass(frozen=True)
class FaultProfile:
    """Probabilities and shapes of the injected faults.

    All probabilities are per-request (or per batch item for
    ``item_failure_prob``) and drawn from the chaos transport's seeded
    RNG.  ``*_burst`` faults continue for that many consecutive
    requests once triggered, modelling storms rather than isolated
    blips.  ``outage_after`` switches the platform to a permanent
    500/503 outage after that many requests have been seen -- the
    deterministic way to kill a run mid-experiment for checkpoint and
    resume tests.
    """

    name: str = "calm"
    #: Extra round-trip seconds added with ``latency_spike_prob``.
    latency_spike_prob: float = 0.0
    latency_spike: float = 2.0
    #: Injected 429 responses carrying ``throttle_retry_after``.
    throttle_prob: float = 0.0
    throttle_retry_after: float = 0.5
    throttle_burst: int = 3
    #: Injected 500/503 responses.
    server_error_prob: float = 0.0
    server_error_burst: int = 2
    #: Connection reset mid-request (no HTTP response, exception).
    reset_prob: float = 0.0
    #: Client-visible timeout; the clock still advances by ``timeout``.
    timeout_prob: float = 0.0
    timeout: float = 5.0
    #: Drop a random-length tail from a batch response envelope.
    truncate_prob: float = 0.0
    #: Replace individual batch items with injected 503 errors.
    item_failure_prob: float = 0.0
    #: Permanent outage switch (request count threshold), or ``None``.
    outage_after: int | None = None


#: Named profiles covering each fault in isolation plus a combined
#: storm; the fault-matrix test suite parametrises over all of them.
FAULT_PROFILES: dict[str, FaultProfile] = {
    "calm": FaultProfile(name="calm"),
    "latency": FaultProfile(name="latency", latency_spike_prob=0.3),
    "throttle": FaultProfile(name="throttle", throttle_prob=0.12),
    "flaky_5xx": FaultProfile(name="flaky_5xx", server_error_prob=0.12),
    "resets": FaultProfile(name="resets", reset_prob=0.12),
    "timeouts": FaultProfile(name="timeouts", timeout_prob=0.1),
    "truncation": FaultProfile(name="truncation", truncate_prob=0.25),
    "item_failures": FaultProfile(name="item_failures", item_failure_prob=0.08),
    "storm": FaultProfile(
        name="storm",
        latency_spike_prob=0.1,
        throttle_prob=0.08,
        server_error_prob=0.08,
        reset_prob=0.05,
        timeout_prob=0.04,
        truncate_prob=0.1,
        item_failure_prob=0.04,
    ),
}


class ChaosTransport:
    """A fault-injecting proxy in front of a :class:`FakeTransport`.

    Quacks like the wrapped transport (``register`` / ``routes`` /
    ``clock`` / ``tracer`` / ``request``), so clients and route mounting
    are oblivious to it.  Pre-dispatch faults (throttles, 5xx, resets,
    timeouts) deny the request before it reaches the inner transport's
    handlers; post-dispatch faults corrupt successful *batch* envelopes
    only, by truncating the results list or replacing items with
    injected 503 errors -- like a flaky proxy, it understands the
    envelope framing but never the payloads.

    ``fault_log`` records every injected fault in order; two chaos
    transports with the same seed driven by the same request sequence
    produce identical logs (the determinism guarantee).
    """

    def __init__(
        self,
        inner: FakeTransport,
        profile: FaultProfile | None = None,
        seed: int = 1031,
    ):
        self.inner = inner
        self.profile = profile or FAULT_PROFILES["calm"]
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        #: Injected faults in order, e.g. ``["throttle", "http_503", ...]``.
        self.fault_log: list[str] = []
        #: Requests seen at the chaos edge (inner counts dispatched only).
        self.total_requests = 0
        self._burst_kind: str | None = None
        self._burst_left = 0

    # -- FakeTransport surface (delegated) ---------------------------------

    @property
    def clock(self) -> VirtualClock:
        return self.inner.clock

    @property
    def tracer(self) -> Any:
        return self.inner.tracer

    # -- fault machinery ----------------------------------------------------

    def _log(self, kind: str) -> None:
        self.fault_log.append(kind)
        if self.inner.tracer.enabled:
            self.inner.tracer.event("chaos.fault", kind=kind)

    def _observe_denied(self, request: HttpRequest, status: int) -> None:
        """Account for a request the chaos layer denied.

        The inner transport emits one ``transport.request`` event per
        dispatched request; denied and raised requests never reach it,
        so the chaos layer emits theirs (flagged ``injected``) to keep
        the trace's request accounting equal to the chaos-edge
        :attr:`total_requests`.
        """
        tracer = self.inner.tracer
        if not tracer.enabled:
            return
        platform, _, endpoint = request.path.strip("/").partition("/")
        tracer.event(
            "transport.request",
            platform=platform,
            endpoint=endpoint,
            status=status,
            injected=True,
        )

    def _draw_fault(self) -> str | None:
        """The fault kind for this request, if any (one RNG draw)."""
        profile = self.profile
        if (
            profile.outage_after is not None
            and self.total_requests > profile.outage_after
        ):
            return "server_error"
        if self._burst_left > 0:
            self._burst_left -= 1
            return self._burst_kind
        roll = self._rng.random()
        for kind, prob, burst in (
            ("throttle", profile.throttle_prob, profile.throttle_burst),
            ("server_error", profile.server_error_prob, profile.server_error_burst),
            ("reset", profile.reset_prob, 1),
            ("timeout", profile.timeout_prob, 1),
        ):
            if roll < prob:
                self._burst_kind = kind
                self._burst_left = max(0, burst - 1)
                return kind
            roll -= prob
        return None

    def _corrupt_envelope(self, response: HttpResponse) -> HttpResponse:
        """Apply truncation / per-item faults to a batch response."""
        profile = self.profile
        body = response.body
        for envelope in _ENVELOPES:
            if isinstance(body.get(envelope.response_key), list):
                break
        else:
            return response

        entries = list(body[envelope.response_key])
        mutated = False
        if profile.item_failure_prob:
            for index in range(len(entries)):
                if self._rng.random() < profile.item_failure_prob:
                    entries[index] = envelope.item_error(
                        503, "injected per-item failure"
                    )
                    mutated = True
                    self._log("item_failure")
        if (
            profile.truncate_prob
            and entries
            and self._rng.random() < profile.truncate_prob
        ):
            # Drop at least the last entry, possibly the whole tail.
            entries = entries[: self._rng.randrange(0, len(entries))]
            mutated = True
            self._log("truncate")
        if not mutated:
            return response
        return HttpResponse(response.status, {**body, envelope.response_key: entries})

    # -- dispatch -----------------------------------------------------------

    def request(self, request: HttpRequest) -> HttpResponse:
        """Dispatch through the chaos layer.

        Raises :class:`ConnectionLostError` / :class:`RequestTimeoutError`
        for transport-level faults; returns injected 429/500/503
        responses for platform-level ones; otherwise forwards to the
        inner transport and possibly corrupts a batch envelope.
        """
        self.total_requests += 1
        profile = self.profile
        clock = self.clock
        if (
            profile.latency_spike_prob
            and self._rng.random() < profile.latency_spike_prob
        ):
            clock.advance(profile.latency_spike)
            self._log("latency")

        kind = self._draw_fault()
        if kind == "throttle":
            clock.advance(self.inner.latency)
            self._log("throttle")
            self._observe_denied(request, 429)
            return HttpResponse(
                429,
                {
                    "error": "rate limit exceeded (injected)",
                    "retry_after": profile.throttle_retry_after,
                },
            )
        if kind == "server_error":
            clock.advance(self.inner.latency)
            status = 503 if self._rng.random() < 0.5 else 500
            self._log(f"http_{status}")
            self._observe_denied(request, status)
            return HttpResponse(status, {"error": "internal error (injected)"})
        if kind == "reset":
            # The connection died mid-flight: half a round trip elapsed.
            clock.advance(self.inner.latency * 0.5)
            self._log("reset")
            self._observe_denied(request, 0)
            raise ConnectionLostError("connection reset by peer (injected)")
        if kind == "timeout":
            clock.advance(profile.timeout)
            self._log("timeout")
            self._observe_denied(request, 0)
            raise RequestTimeoutError(
                f"no response within {profile.timeout:g}s (injected)"
            )

        response = self.inner.request(request)
        if response.ok and (profile.truncate_prob or profile.item_failure_prob):
            response = self._corrupt_envelope(response)
        return response

    def __repr__(self) -> str:
        return (
            f"<ChaosTransport profile={self.profile.name!r} seed={self.seed} "
            f"faults={len(self.fault_log)}>"
        )
