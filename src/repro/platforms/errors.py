"""Error taxonomy for the simulated advertising platforms.

The audit code must navigate real interface restrictions -- the
restricted Facebook interface rejecting age/gender targeting, Google
refusing size statistics for boolean combinations of user attributes,
LinkedIn refusing tiny audiences -- and those restrictions surface as
typed errors so callers can distinguish "you asked for something this
interface does not offer" from bugs.

The wire carries each error as ``(status, message, kind)``:
:func:`error_parts` is the one mapping from an exception to those parts,
for whole-request and per-item failures alike, and
:func:`error_from_parts` is its inverse on the client side.
"""

from __future__ import annotations

__all__ = [
    "PlatformError",
    "TargetingError",
    "UnknownOptionError",
    "DisallowedTargetingError",
    "ExclusionNotAllowedError",
    "UnsupportedCompositionError",
    "NoSizeEstimateError",
    "CampaignConfigError",
    "ApiError",
    "BadRequestError",
    "TransportError",
    "ConnectionLostError",
    "RequestTimeoutError",
    "CircuitOpenError",
    "RETRYABLE_STATUSES",
    "error_parts",
    "error_from_parts",
]

#: HTTP statuses a client may retry without changing the request: the
#: platform either asked for a pause (429) or failed transiently
#: (500/503).  Everything else is a property of the request itself
#: (400/404/422) and retrying cannot help.
RETRYABLE_STATUSES = frozenset({429, 500, 503})


class PlatformError(Exception):
    """Base class for all simulated-platform errors."""


class TargetingError(PlatformError):
    """A targeting spec is invalid for the interface it was sent to."""


class UnknownOptionError(TargetingError):
    """A referenced targeting option does not exist in the catalog."""

    def __init__(self, option_id: str, interface: str = ""):
        self.option_id = option_id
        self.interface = interface
        where = f" on {interface}" if interface else ""
        super().__init__(f"unknown targeting option {option_id!r}{where}")


class DisallowedTargetingError(TargetingError):
    """The interface forbids this kind of targeting.

    Raised e.g. when age or gender targeting is attempted on Facebook's
    restricted (special-ad-category) interface.
    """


class ExclusionNotAllowedError(TargetingError):
    """The interface forbids excluding users with particular attributes."""


class UnsupportedCompositionError(TargetingError):
    """The requested boolean combination is not expressible.

    Raised e.g. when two Google targeting options from the *same*
    feature are AND-composed, which Google's display interface does not
    support (paper, footnote 9).
    """


class NoSizeEstimateError(PlatformError):
    """The targeting is valid but the interface shows no size estimate.

    Google accepts boolean combinations of user attributes for some
    campaign types but does not show audience size statistics for them
    (paper, footnotes 8 and 11).
    """


class CampaignConfigError(PlatformError):
    """Invalid campaign objective / type / frequency-cap combination."""


class ApiError(PlatformError):
    """Base class for errors raised at the fake-HTTP API layer."""

    status = 500


class BadRequestError(ApiError):
    """The API request body could not be parsed."""

    status = 400


class TransportError(ApiError):
    """The request failed before any HTTP response arrived.

    Real measurement scripts see these as socket-level failures; the
    simulation's chaos layer raises them from the transport.  They are
    always retryable -- the platform may never have seen the request.
    """

    status = 0


class ConnectionLostError(TransportError):
    """The connection was reset mid-request (no response)."""


class RequestTimeoutError(TransportError):
    """No response arrived within the client's timeout."""


class CircuitOpenError(ApiError):
    """A client-side circuit breaker refused the call.

    Never produced by a platform: raised locally when a breaker has
    opened after repeated failures and its wait budget is exhausted.
    Audit runs killed by this error resume from their estimate
    checkpoint without re-issuing completed queries.
    """

    status = 503


def error_parts(exc: PlatformError) -> tuple[int, str, str | None]:
    """``(status, message, kind)`` of the wire error for ``exc``.

    Missing size statistics are a 422 and API-layer errors carry their
    own status, both without a kind; every other platform error is a
    400 whose kind names its type, so :func:`error_from_parts` can
    restore it.
    """
    if isinstance(exc, NoSizeEstimateError):
        return 422, str(exc), None
    if isinstance(exc, ApiError):
        return exc.status, str(exc), None
    return 400, str(exc), type(exc).__name__


#: Error ``kind`` strings back to exception types.
_ERROR_KINDS: dict[str, type[PlatformError]] = {
    "TargetingError": TargetingError,
    "UnknownOptionError": TargetingError,
    "DisallowedTargetingError": DisallowedTargetingError,
    "ExclusionNotAllowedError": ExclusionNotAllowedError,
    "UnsupportedCompositionError": UnsupportedCompositionError,
    "CampaignConfigError": CampaignConfigError,
}


def error_from_parts(status: int, message: str, kind: str | None) -> PlatformError:
    """Typed exception for a wire error (whole-request or per-item)."""
    if status == 422:
        return NoSizeEstimateError(message)
    if kind in _ERROR_KINDS:
        return _ERROR_KINDS[kind](message)
    if status == 400:
        return BadRequestError(message)
    return ApiError(f"HTTP {status}: {message}")
