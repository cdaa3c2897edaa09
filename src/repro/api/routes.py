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
inexpressible spec never fails its batch-mates.  A batch request is one
:meth:`~repro.platforms.base.AdPlatformInterface.estimate_batch` call
over the decoded items (an item that fails to decode passes through as
its error).  A single-estimate request is
:meth:`~repro.platforms.base.AdPlatformInterface.estimate_reach`, a
batch of one over the same pass, so an item gets the same estimate or
the same error either way.  The rate limiter charges batches by size
(one token plus :data:`BATCH_ITEM_TOKEN_COST` per additional item), so
batching is much cheaper than per-item calls but very large audits are
still metered.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Protocol

from repro.api.obfuscation import GoogleWireCodec
from repro.api.transport import FakeTransport, HttpRequest
from repro.api.wire import FacebookWireCodec, LinkedInWireCodec
from repro.platforms import PlatformSuite
from repro.platforms.base import AdPlatformInterface, BatchItem
from repro.platforms.catalog import CatalogEntry
from repro.platforms.errors import (
    ApiError,
    BadRequestError,
    NoSizeEstimateError,
    PlatformError,
)
from repro.platforms.targeting import TargetingSpec

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


def _batch_cost(envelope_key: str) -> Callable[[HttpRequest], float]:
    """Per-request token cost charging batches by item count."""

    def cost(request: HttpRequest) -> float:
        items = request.body.get(envelope_key) if request.body else None
        n = len(items) if isinstance(items, list) else 1
        return 1.0 + BATCH_ITEM_TOKEN_COST * max(0, n - 1)

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


class RouteCodec(Protocol):
    """What the estimate routes need of a platform's wire codec.

    :class:`~repro.api.wire.FacebookWireCodec` and
    :class:`~repro.api.wire.LinkedInWireCodec` answer batches in the
    plain JSON :class:`~repro.api.wire.BatchEnvelope`;
    :class:`~repro.api.obfuscation.GoogleWireCodec` in its obfuscated one.
    """

    def decode_item(
        self, body: Mapping[str, Any]
    ) -> tuple[TargetingSpec, dict[str, Any]]:
        """A request body as ``(spec, estimate keyword arguments)``."""

    def encode_response(self, estimate: int) -> dict[str, Any]: ...

    def decode_batch_request(
        self, body: Mapping[str, Any]
    ) -> list[Mapping[str, Any]]: ...

    def batch_item_ok(self, result: Mapping[str, Any]) -> dict[str, Any]: ...

    def batch_item_error(
        self, status: int, message: str, kind: str | None = None
    ) -> dict[str, Any]: ...

    def encode_batch_response(
        self, results: list[dict[str, Any]]
    ) -> dict[str, Any]: ...


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
    """Batch route over the codec's envelope: one platform call per request."""

    def handler(request: HttpRequest) -> Mapping[str, Any]:
        if request.body is None:
            raise BadRequestError("missing request body")
        decoded: list[BatchItem] = []
        for item in codec.decode_batch_request(request.body):
            try:
                decoded.append(codec.decode_item(item))
            except PlatformError as exc:
                decoded.append(exc)
        return codec.encode_batch_response(
            [
                codec.batch_item_error(*_error_parts(result))
                if isinstance(result, PlatformError)
                else codec.batch_item_ok(codec.encode_response(result))
                for result in interface.estimate_batch(decoded)
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


def mount_suite_routes(transport: FakeTransport, suite: PlatformSuite) -> None:
    """Register every platform endpoint on the transport."""
    fb = suite.facebook
    plain_cost = _batch_cost("batch")
    transport.register(
        "POST", "/facebook/delivery_estimate",
        _estimate_handler(fb.normal, FacebookWireCodec),
    )
    transport.register(
        "POST", "/facebook/delivery_estimates",
        _batch_handler(fb.normal, FacebookWireCodec), cost=plain_cost,
    )
    transport.register(
        "POST", "/facebook/special/delivery_estimate",
        _estimate_handler(fb.restricted, FacebookWireCodec),
    )
    transport.register(
        "POST", "/facebook/special/delivery_estimates",
        _batch_handler(fb.restricted, FacebookWireCodec), cost=plain_cost,
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

    google_codec = GoogleWireCodec(suite.google.display.catalog.ids())
    transport.register(
        "POST", "/google/reach_estimate",
        _estimate_handler(suite.google.display, google_codec),
    )
    transport.register(
        "POST", "/google/reach_estimates",
        _batch_handler(suite.google.display, google_codec),
        cost=_batch_cost(GoogleWireCodec.BATCH_FIELD),
    )
    transport.register(
        "GET", "/google/criteria", _catalog_handler(suite.google.display)
    )

    transport.register(
        "POST", "/linkedin/audience_count",
        _estimate_handler(suite.linkedin.interface, LinkedInWireCodec),
    )
    transport.register(
        "POST", "/linkedin/audience_counts",
        _batch_handler(suite.linkedin.interface, LinkedInWireCodec),
        cost=plain_cost,
    )
    transport.register(
        "GET", "/linkedin/facets", _catalog_handler(suite.linkedin.interface)
    )
