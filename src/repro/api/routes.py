"""Server-side API route handlers for the simulated platforms.

:func:`mount_suite_routes` wires a :class:`~repro.api.transport.FakeTransport`
to a :class:`~repro.platforms.PlatformSuite`, exposing per-platform
endpoints shaped like the real ones the paper automated:

========================================  =======================================
Endpoint                                  Behaviour
========================================  =======================================
``POST /facebook/delivery_estimate``      Facebook normal-interface estimate
``POST /facebook/delivery_estimates``     Batched normal-interface estimates
``POST /facebook/special/delivery_estimate``  Restricted-interface estimate
``POST /facebook/special/delivery_estimates``  Batched restricted estimates
``GET  /facebook/targeting_options``      Normal-interface default catalog
``GET  /facebook/special/targeting_options``  Restricted catalog
``GET  /facebook/targeting_search``       Free-form attribute search (body: q)
``POST /google/reach_estimate``           Display impressions estimate
                                          (obfuscated JSON in and out)
``POST /google/reach_estimates``          Batched impressions estimates
                                          (obfuscated batch envelope)
``GET  /google/criteria``                 Audience/topic criteria catalog
``POST /linkedin/audience_count``         Member-count estimate
``POST /linkedin/audience_counts``        Batched member-count estimates
``GET  /linkedin/facets``                 Detailed-targeting facet catalog
========================================  =======================================

Batch endpoints accept up to :data:`repro.api.wire.MAX_BATCH_SIZE`
targeting specs per request and answer per item: each entry is either
the single-call response body or a typed error payload, so one
inexpressible spec never fails its batch-mates.  Every batch route
speaks the one :class:`~repro.api.wire.BatchEnvelope` protocol, under
the field map of its codec's ``envelope``.  A batch request is one
:meth:`~repro.platforms.base.AdPlatformInterface.estimate_batch` call
between one :meth:`~repro.api.wire.RouteCodec.decode_batch` pass over
its items (an item that fails to decode passes through as its error)
and one :meth:`~repro.api.wire.RouteCodec.encode_estimates` pass over
the estimates.  A single-estimate request is
:meth:`~repro.platforms.base.AdPlatformInterface.estimate_reach`, a
batch of one over the same pass, so an item gets the same estimate or
the same error either way.  The rate limiter charges batches by size
(one token plus :data:`BATCH_ITEM_TOKEN_COST` per additional item), so
batching is much cheaper than per-item calls but very large audits are
still metered.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.api.obfuscation import GoogleWireCodec
from repro.api.transport import FakeTransport, HttpRequest
from repro.api.wire import (
    BatchEnvelope,
    FacebookWireCodec,
    LinkedInWireCodec,
    RouteCodec,
)
from repro.platforms import PlatformSuite
from repro.platforms.base import AdPlatformInterface
from repro.platforms.catalog import CatalogEntry
from repro.platforms.errors import (
    ApiError,
    BadRequestError,
    NoSizeEstimateError,
    PlatformError,
)

__all__ = ["BATCH_ITEM_TOKEN_COST", "mount_suite_routes"]

#: Rate-limit token cost of each spec in a batch beyond the first.
BATCH_ITEM_TOKEN_COST = 0.1


def _error_parts(exc: PlatformError) -> tuple[int, str, str | None]:
    """(status, message, kind) for a per-item error payload.

    Mirrors the transport's exception-to-status mapping so clients can
    reuse one payload-to-exception translation for whole-request and
    per-item failures alike.
    """
    if isinstance(exc, NoSizeEstimateError):
        return 422, str(exc), None
    if isinstance(exc, ApiError):
        return exc.status, str(exc), None
    return 400, str(exc), type(exc).__name__


def _batch_cost(envelope: BatchEnvelope) -> Callable[[HttpRequest], float]:
    """Per-request token cost charging batches by item count."""

    def cost(request: HttpRequest) -> float:
        return 1.0 + BATCH_ITEM_TOKEN_COST * max(0, envelope.size(request.body) - 1)

    return cost


def _entry_json(entry: CatalogEntry) -> dict[str, Any]:
    demographic = None
    if entry.demographic_value is not None:
        demographic = {
            "attribute": type(entry.demographic_value).__name__.lower(),
            "value": entry.demographic_value.label,
        }
    return {
        "id": entry.option_id,
        "feature": entry.feature,
        "category": entry.category,
        "name": entry.name,
        "demographic": demographic,
        "free_form": entry.free_form,
    }


def _catalog_handler(interface: AdPlatformInterface):
    def handler(request: HttpRequest) -> Mapping[str, Any]:
        return {"options": [_entry_json(e) for e in interface.catalog]}

    return handler


def _estimate_handler(interface: AdPlatformInterface, codec: RouteCodec):
    """Single-estimate route: one request body, one estimate."""

    def handler(request: HttpRequest) -> Mapping[str, Any]:
        if request.body is None:
            raise BadRequestError("missing request body")
        spec, kwargs = codec.decode_item(request.body)
        estimate = interface.estimate_reach(spec, **kwargs)
        return codec.encode_response(estimate.estimate)

    return handler


def _batch_handler(interface: AdPlatformInterface, codec: RouteCodec):
    """Batch route over the codec's envelope: one decode pass, one
    platform call and one encode pass per request."""
    envelope = codec.envelope

    def handler(request: HttpRequest) -> Mapping[str, Any]:
        if request.body is None:
            raise BadRequestError("missing request body")
        results = interface.estimate_batch(
            codec.decode_batch(envelope.decode_request(request.body))
        )
        bodies = iter(
            codec.encode_estimates(
                [r for r in results if not isinstance(r, PlatformError)]
            )
        )
        return envelope.encode_response(
            [
                envelope.item_error(*_error_parts(result))
                if isinstance(result, PlatformError)
                else envelope.item_ok(next(bodies))
                for result in results
            ]
        )

    return handler


def _facebook_search_handler(interface):
    def handler(request: HttpRequest) -> Mapping[str, Any]:
        if not request.body or "q" not in request.body:
            raise BadRequestError("missing search query 'q'")
        matches = interface.search(str(request.body["q"]))
        return {"options": [_entry_json(e) for e in matches]}

    return handler


def _mount_estimates(
    transport: FakeTransport,
    single: str,
    batch: str,
    interface: AdPlatformInterface,
    codec: RouteCodec,
) -> None:
    """Register an interface's single and batch estimate routes."""
    transport.register("POST", single, _estimate_handler(interface, codec))
    transport.register(
        "POST", batch, _batch_handler(interface, codec),
        cost=_batch_cost(codec.envelope),
    )


def mount_suite_routes(transport: FakeTransport, suite: PlatformSuite) -> None:
    """Register every platform endpoint on the transport."""
    fb = suite.facebook
    _mount_estimates(
        transport, "/facebook/delivery_estimate", "/facebook/delivery_estimates",
        fb.normal, FacebookWireCodec,
    )
    _mount_estimates(
        transport, "/facebook/special/delivery_estimate",
        "/facebook/special/delivery_estimates", fb.restricted, FacebookWireCodec,
    )
    transport.register(
        "GET", "/facebook/targeting_options", _catalog_handler(fb.normal)
    )
    transport.register(
        "GET", "/facebook/special/targeting_options",
        _catalog_handler(fb.restricted),
    )
    transport.register(
        "GET", "/facebook/targeting_search", _facebook_search_handler(fb.normal)
    )

    google = suite.google.display
    _mount_estimates(
        transport, "/google/reach_estimate", "/google/reach_estimates",
        google, GoogleWireCodec(google.catalog.ids()),
    )
    transport.register("GET", "/google/criteria", _catalog_handler(google))

    linkedin = suite.linkedin.interface
    _mount_estimates(
        transport, "/linkedin/audience_count", "/linkedin/audience_counts",
        linkedin, LinkedInWireCodec,
    )
    transport.register("GET", "/linkedin/facets", _catalog_handler(linkedin))
