"""Audit-side API clients.

These are the reproduction of the paper's measurement script: Python
clients that hit the platforms' reach-estimate endpoints, encode
targeting specs in each platform's wire format (including Google's
obfuscated JSON), and translate error payloads back into typed
exceptions (:func:`~repro.platforms.errors.error_from_parts`) so the
audit core can react (e.g. skip compositions Google cannot express).

Each client carries a resilience layer, all on the virtual clock:

* a :class:`~repro.api.resilience.RetryPolicy` -- exponential back-off
  with seeded jitter for transient failures (5xx, connection resets,
  timeouts), always honoring a platform ``retry_after`` hint for 429s;
* an optional :class:`~repro.api.resilience.CircuitBreaker` per
  platform/account that fails fast during an outage instead of
  hammering a dead endpoint, with half-open probing to recover;
* partial-batch retry: :meth:`ReachClient.estimate_many` re-requests
  only the failed or missing items of a batch envelope, never the
  whole chunk.

Each client calls its interface's :data:`~repro.api.wire.ROUTE_PATHS`
entry and encodes through its codec a chunk at a time; a single
estimate is a chunk of one.  Clients are deliberately thin: no caching
and no audit logic here -- the :mod:`repro.core` layer owns both.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable

from repro.api.obfuscation import GoogleWireCodec
from repro.api.resilience import CircuitBreaker, RetryPolicy
from repro.api.transport import FakeTransport, HttpRequest
from repro.obs import NULL_TRACER
from repro.api.wire import (
    MAX_BATCH_SIZE,
    ROUTE_PATHS,
    SEARCH_PATH,
    FacebookWireCodec,
    LinkedInWireCodec,
)
from repro.platforms.errors import (
    RETRYABLE_STATUSES,
    ApiError,
    CircuitOpenError,
    DisallowedTargetingError,
    PlatformError,
    TransportError,
    error_from_parts,
)
from repro.platforms.google import MOST_RESTRICTIVE_CAP, FrequencyCap
from repro.platforms.targeting import TargetingSpec

__all__ = [
    "CatalogOption",
    "ReachClient",
    "FacebookReachClient",
    "GoogleReachClient",
    "LinkedInReachClient",
    "build_clients",
]

@dataclass(frozen=True)
class CatalogOption:
    """A catalog entry as seen through the API."""

    option_id: str
    feature: str
    category: str
    name: str
    demographic: Mapping[str, str] | None = None
    free_form: bool = False

    @property
    def display(self) -> str:
        """Category-qualified display name."""
        return f"{self.category} — {self.name}"


def _parse_option(raw: Mapping[str, Any]) -> CatalogOption:
    return CatalogOption(
        option_id=raw["id"],
        feature=raw["feature"],
        category=raw["category"],
        name=raw["name"],
        demographic=raw.get("demographic"),
        free_form=bool(raw.get("free_form")),
    )


class ReachClient(ABC):
    """Base API client with retries, back-off, and circuit breaking.

    All waiting happens on the transport's virtual clock.  ``transport``
    may be a plain :class:`FakeTransport` or a fault-injecting
    :class:`~repro.api.chaos.ChaosTransport` -- the client's resilience
    layer absorbs injected faults so results are identical either way.
    """

    #: Registry key of the interface this client measures.
    interface_key: str = ""

    #: Specs per batch request; :meth:`estimate_many` chunks to this,
    #: matching the server-side envelope limit.
    batch_size: int = MAX_BATCH_SIZE

    #: The platform's wire codec (a :class:`~repro.api.wire.RouteCodec`
    #: class, or Google's instance): request and response bodies, a chunk
    #: at a time, and the batch envelope.
    codec: Any = None

    #: Retries of one call (and partial-batch rounds of one chunk)
    #: before the client gives up.
    max_retries: int = 16

    def __init__(
        self,
        transport: FakeTransport,
        account: str = "audit",
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ):
        self.transport = transport
        self.account = account
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = breaker
        #: The interface's estimate, batch and catalog paths.
        self.paths = ROUTE_PATHS[self.interface_key]
        self._catalog_cache: list[CatalogOption] | None = None
        # Observability flows from the transport (the stack's single
        # injection point); clients never construct their own sinks.
        self.tracer = getattr(transport, "tracer", NULL_TRACER)

    def _give_up(self, attempts: int) -> bool:
        return attempts > self.max_retries

    def _retry(
        self,
        attempts: int,
        exhausted: str,
        event: str,
        hint: float | None = None,
        cause: BaseException | None = None,
        **attrs: Any,
    ) -> None:
        """One retry step of :meth:`_call` after a transient failure.

        Raises :class:`ApiError` with the ``exhausted`` message once
        ``attempts`` passes the budget; otherwise records the ``event``
        (``attempt``, then ``attrs``, then ``interface``) and sleeps the
        retry policy's back-off, honoring a platform ``retry_after``
        ``hint``.
        """
        if self._give_up(attempts):
            raise ApiError(exhausted) from cause
        if self.tracer.enabled:
            self.tracer.event(
                event, attempt=attempts, **attrs, interface=self.interface_key
            )
        self.transport.clock.sleep(
            self.retry_policy.backoff(attempts, retry_after=hint)
        )

    def _call(
        self, method: str, path: str, body: Mapping[str, Any] | None = None
    ) -> Mapping[str, Any]:
        """One API call with retries, breaker gating, error translation.

        Transient failures -- 429 (honoring ``retry_after``), 500/503,
        connection resets, timeouts -- are retried up to
        :attr:`max_retries` times with the retry policy's back-off on
        the virtual clock.  5xx and transport-level failures feed the
        circuit breaker; while the breaker is open the client waits out
        the reset timeout (each wait consumes a retry) and raises
        :class:`CircuitOpenError` when the budget is exhausted.
        """
        request = HttpRequest(
            method=method, path=path, body=body, account=self.account
        )
        clock = self.transport.clock
        breaker = self.breaker
        attempts = 0
        while True:
            if breaker is not None:
                wait = breaker.before_call()
                if wait > 0.0:
                    attempts += 1
                    if self._give_up(attempts):
                        raise CircuitOpenError(
                            f"{self.interface_key or path} circuit open; "
                            "retry budget exhausted"
                        )
                    if self.tracer.enabled:
                        self.tracer.event(
                            "breaker.wait",
                            interface=self.interface_key,
                            seconds=wait,
                        )
                    clock.sleep(wait + 1e-6)
                    continue
            try:
                response = self.transport.request(request)
            except TransportError as exc:
                if breaker is not None:
                    breaker.record_failure()
                attempts += 1
                self._retry(
                    attempts,
                    f"transport retries exhausted: {exc}",
                    "retry.backoff",
                    cause=exc,
                    kind=type(exc).__name__,
                )
                continue
            status = response.status
            if status == 429:
                # Polite rate-limit back-off; the platform answered, so
                # this is not a breaker failure.
                attempts += 1
                retry_after = float(response.body.get("retry_after", 1.0))
                self._retry(
                    attempts,
                    "rate limit retries exhausted",
                    "retry.after",
                    hint=retry_after,
                    retry_after=retry_after,
                )
                continue
            if status in RETRYABLE_STATUSES:
                if breaker is not None:
                    breaker.record_failure()
                attempts += 1
                self._retry(
                    attempts,
                    f"HTTP {status} retries exhausted",
                    "retry.backoff",
                    hint=response.body.get("retry_after"),
                    kind=str(status),
                )
                continue
            if breaker is not None:
                # Any definitive answer -- success or a semantic error
                # -- proves the platform is healthy.
                breaker.record_success()
            if response.ok:
                return response.body
            raise error_from_parts(
                status,
                str(response.body.get("error", "unknown error")),
                response.body.get("kind"),
            )

    # -- common surface -----------------------------------------------------

    def catalog(self) -> list[CatalogOption]:
        """The interface's browsable targeting-option list (cached)."""
        if self._catalog_cache is None:
            body = self._call("GET", self.paths.catalog)
            self._catalog_cache = [_parse_option(o) for o in body["options"]]
        return self._catalog_cache

    def option_names(self) -> dict[str, str]:
        """Display names keyed by option id."""
        return {o.option_id: o.display for o in self.catalog()}

    @cached_property
    def feature_of(self) -> dict[str, str]:
        """Feature of every catalog option, keyed by option id (built once)."""
        return {o.option_id: o.feature for o in self.catalog()}

    def estimate(self, spec: TargetingSpec) -> int:
        """Rounded audience-size estimate for a targeting spec."""
        body = self._call("POST", self.paths.estimate, self._encode_items([spec])[0])
        return self.codec.decode_estimates([body])[0]

    # -- batched estimates --------------------------------------------------

    @abstractmethod
    def _encode_items(self, specs: list[TargetingSpec]) -> list[dict[str, Any]]:
        """Request bodies for a chunk of specs, one per spec: the codec's
        ``encode_batch`` under this client's settings."""

    def _fetch_batch(
        self,
        chunk: list[TargetingSpec],
        out: list[int | PlatformError | None],
        offset: int,
        on_result: Callable[[int, int | PlatformError], None] | None,
    ) -> None:
        """Fetch one chunk's estimates with partial-batch retry.

        Per-item transient failures (injected 429/5xx entries) and
        envelope truncation re-request *only* the affected items; items
        that already succeeded or failed semantically are never resent.
        Each round encodes its pending specs in one codec call and
        decodes the estimates of its successful entries in another; a
        malformed success body fails the round before any item of it is
        recorded.
        """
        envelope = self.codec.envelope
        pending = list(range(len(chunk)))
        rounds = 0
        while pending:
            body = envelope.encode_request(
                self._encode_items([chunk[i] for i in pending])
            )
            response = self._call("POST", self.paths.batch, body)
            # A fault may truncate the entry list: its tail stays pending.
            entries = envelope.decode_response(
                response, len(pending), allow_truncated=True
            )
            estimates = iter(
                self.codec.decode_estimates(
                    [result for result, error in entries if error is None]
                )
            )
            retry = pending[len(entries):]
            for index, (_, error) in zip(pending, entries):
                value: int | PlatformError
                if error is None:
                    value = next(estimates)
                elif error[0] in RETRYABLE_STATUSES:
                    retry.append(index)
                    continue
                else:
                    value = error_from_parts(*error)
                out[offset + index] = value
                if on_result is not None:
                    on_result(offset + index, value)
            if retry:
                rounds += 1
                if rounds > self.max_retries:
                    raise ApiError("batch item retries exhausted")
                retry.sort()
                if self.tracer.enabled:
                    self.tracer.event(
                        "retry.backoff",
                        attempt=rounds,
                        kind="batch_partial",
                        pending=len(retry),
                        interface=self.interface_key,
                    )
                self.transport.clock.sleep(self.retry_policy.backoff(rounds))
            pending = retry

    def estimate_many(
        self,
        specs: Iterable[TargetingSpec],
        on_result: Callable[[int, int | PlatformError], None] | None = None,
    ) -> list[int | PlatformError]:
        """Estimates for many specs via the batch endpoint.

        One entry per spec, in order: either the rounded estimate or
        the typed exception instance the equivalent single call would
        have raised (not raised here, so one inexpressible spec does
        not lose its batch-mates' results).  Whole-request failures --
        retry exhaustion, malformed envelopes -- still raise.  Requests
        are chunked to :attr:`batch_size` specs; transient per-item
        failures and truncated envelopes are absorbed by partial-batch
        retry (see :meth:`_fetch_batch`).

        ``on_result`` is invoked with ``(index, value)`` as each item
        completes, so callers that checkpoint progress keep every
        finished estimate even when a later chunk raises mid-run.
        """
        specs = list(specs)
        out: list[int | PlatformError | None] = [None] * len(specs)
        with self.tracer.span(
            "client.estimate_many",
            interface=self.interface_key,
            specs=len(specs),
        ):
            for start in range(0, len(specs), self.batch_size):
                self._fetch_batch(
                    specs[start : start + self.batch_size], out, start, on_result
                )
        return out  # type: ignore[return-value]  # every slot is filled


class FacebookReachClient(ReachClient):
    """Client for Facebook's delivery-estimate endpoint.

    One client per interface: pass ``restricted=True`` for the
    special-ad-category endpoints.
    """

    codec = FacebookWireCodec

    def __init__(
        self,
        transport: FakeTransport,
        restricted: bool = False,
        account: str = "audit",
        objective: str = "Reach",
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ):
        self.interface_key = "facebook_restricted" if restricted else "facebook"
        super().__init__(
            transport, account=account, retry_policy=retry_policy, breaker=breaker
        )
        self.restricted = restricted
        self.objective = objective

    def _encode_items(self, specs: list[TargetingSpec]) -> list[dict[str, Any]]:
        return self.codec.encode_batch(specs, objective=self.objective)

    def search(self, query: str) -> list[CatalogOption]:
        """Free-form attribute search (normal interface only)."""
        if self.restricted:
            raise DisallowedTargetingError(
                "the restricted interface has no free-form attribute search"
            )
        body = self._call("GET", SEARCH_PATH, {"q": query})
        return [_parse_option(o) for o in body["options"]]


class GoogleReachClient(ReachClient):
    """Client for Google's obfuscated reach-estimate endpoint.

    Always sends the paper's settings: "Display" semantics via the
    reach endpoint, the *Brand awareness and reach* objective, and the
    most restrictive frequency cap (one impression per user per month)
    so impressions approximate users.
    """

    interface_key = "google"

    def __init__(
        self,
        transport: FakeTransport,
        account: str = "audit",
        frequency_cap: FrequencyCap = MOST_RESTRICTIVE_CAP,
        objective: str = "Brand awareness and reach",
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ):
        super().__init__(
            transport, account=account, retry_policy=retry_policy, breaker=breaker
        )
        self.frequency_cap = frequency_cap
        self.objective = objective
        self.codec = GoogleWireCodec()

    def _encode_items(self, specs: list[TargetingSpec]) -> list[dict[str, Any]]:
        return self.codec.encode_batch(
            specs,
            feature_of=self.feature_of,
            frequency_cap=self.frequency_cap,
            objective=self.objective,
        )


class LinkedInReachClient(ReachClient):
    """Client for LinkedIn's audience-count endpoint."""

    interface_key = "linkedin"
    codec = LinkedInWireCodec

    def _encode_items(self, specs: list[TargetingSpec]) -> list[dict[str, Any]]:
        return self.codec.encode_batch(specs)

    def demographic_option_id(self, label: str) -> str:
        """Facet id of a demographic detailed attribute by value label.

        LinkedIn expresses genders and age ranges as detailed targeting
        attributes; the audit ANDs these into rules to measure
        per-demographic audience sizes.
        """
        for option in self.catalog():
            if option.demographic and option.demographic["value"] == label:
                return option.option_id
        raise KeyError(f"no demographic facet for {label!r}")


def build_clients(
    transport: FakeTransport, account: str = "audit"
) -> dict[str, ReachClient]:
    """Clients for the four studied interfaces, keyed like the suite.

    Each client gets its own :class:`CircuitBreaker` (the
    per-platform/per-account scope).  A breaker never trips without
    transient failures, so this is free on a fault-free transport.
    """

    def _breaker(key: str) -> CircuitBreaker:
        return CircuitBreaker(
            clock=transport.clock,
            name=f"{key}:{account}",
            tracer=getattr(transport, "tracer", None),
        )

    return {
        "facebook_restricted": FacebookReachClient(
            transport,
            restricted=True,
            account=account,
            breaker=_breaker("facebook_restricted"),
        ),
        "facebook": FacebookReachClient(
            transport,
            restricted=False,
            account=account,
            breaker=_breaker("facebook"),
        ),
        "google": GoogleReachClient(
            transport, account=account, breaker=_breaker("google")
        ),
        "linkedin": LinkedInReachClient(
            transport, account=account, breaker=_breaker("linkedin")
        ),
    }
