"""Server-side API route handlers for the simulated platforms.

:func:`mount_suite_routes` wires a :class:`~repro.api.transport.FakeTransport`
to a :class:`~repro.platforms.PlatformSuite`, exposing endpoints shaped
like the real ones the paper automated.  Each interface gets three, at
its :data:`repro.api.wire.ROUTE_PATHS` entry: ``POST`` single and
batched size estimates (Google's in obfuscated JSON, the others in plain
JSON) and ``GET`` its targeting-option catalog.  Facebook's normal
interface also answers free-form attribute search at
:data:`repro.api.wire.SEARCH_PATH` (body: ``q``).

Batch endpoints accept up to :data:`repro.api.wire.MAX_BATCH_SIZE`
targeting specs per request and answer per item: each entry is either
the single-call response body or a typed error payload, so one
inexpressible spec never fails its batch-mates.  An item's error payload
holds the ``(status, message, kind)`` of
:func:`~repro.platforms.errors.error_parts`, the same mapping the
transport applies to a whole-request failure.  Every batch route
speaks the one :class:`~repro.api.wire.BatchEnvelope` protocol, under
the field map of its codec's ``envelope``.  A batch request is one
:meth:`~repro.platforms.base.AdPlatformInterface.estimate_batch` call
between one :meth:`~repro.api.wire.RouteCodec.decode_batch` pass over
its items (an item that fails to decode passes through as its error)
and one :meth:`~repro.api.wire.RouteCodec.encode_estimates` pass over
the estimates.  A single-estimate request decodes and encodes a chunk
of one through the same codec calls around
:meth:`~repro.platforms.base.AdPlatformInterface.estimate_reach`, itself
a batch of one on the platform, so an item gets the same estimate or
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
    ROUTE_PATHS,
    SEARCH_PATH,
    BatchEnvelope,
    FacebookWireCodec,
    LinkedInWireCodec,
    RouteCodec,
)
from repro.platforms import PlatformSuite
from repro.platforms.base import AdPlatformInterface
from repro.platforms.catalog import CatalogEntry
from repro.platforms.errors import BadRequestError, PlatformError, error_parts

__all__ = ["BATCH_ITEM_TOKEN_COST", "mount_suite_routes"]

#: Rate-limit token cost of each spec in a batch beyond the first.
BATCH_ITEM_TOKEN_COST = 0.1


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
        [item] = codec.decode_batch([request.body])
        if isinstance(item, PlatformError):
            raise item
        spec, kwargs = item
        estimate = interface.estimate_reach(spec, **kwargs)
        return codec.encode_estimates([estimate.estimate])[0]

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
                envelope.item_error(*error_parts(result))
                if isinstance(result, PlatformError)
                else envelope.item_ok(next(bodies))
                for result in results
            ]
        )

    return handler


def _facebook_search_handler(interface):
    def handler(request: HttpRequest) -> Mapping[str, Any]:
        if not isinstance(request.body, Mapping) or "q" not in request.body:
            raise BadRequestError("missing search query 'q'")
        matches = interface.search(str(request.body["q"]))
        return {"options": [_entry_json(e) for e in matches]}

    return handler


def mount_suite_routes(transport: FakeTransport, suite: PlatformSuite) -> None:
    """Register every platform endpoint on the transport."""
    codecs = {
        "facebook_restricted": FacebookWireCodec,
        "facebook": FacebookWireCodec,
        "google": GoogleWireCodec(suite.google.display.catalog.ids()),
        "linkedin": LinkedInWireCodec,
    }
    for key, interface in suite.interfaces.items():
        paths, codec = ROUTE_PATHS[key], codecs[key]
        transport.register("POST", paths.estimate, _estimate_handler(interface, codec))
        transport.register(
            "POST", paths.batch, _batch_handler(interface, codec),
            cost=_batch_cost(codec.envelope),
        )
        transport.register("GET", paths.catalog, _catalog_handler(interface))
    transport.register(
        "GET", SEARCH_PATH, _facebook_search_handler(suite.facebook.normal)
    )
