"""Plain-JSON wire formats for Facebook and LinkedIn, and the batch envelope.

Unlike Google's obfuscated payloads, "the API calls made by Facebook
and LinkedIn are unobfuscated" (Section 3); their wire formats below
mirror the real endpoints' shapes: Facebook's delivery-estimate payload
with ``flexible_spec`` and-of-ors, and LinkedIn's facet-URN targeting
criteria.

The batch envelope is this repository's own protocol on top of those
formats, one protocol under two field maps: :class:`BatchEnvelope`
encodes and parses it, :data:`PLAIN_ENVELOPE` holds the plain-JSON keys
Facebook and LinkedIn use, and
:attr:`repro.api.obfuscation.GoogleWireCodec.envelope` Google's
obfuscated ones.  Each codec exposes its map as ``envelope``.

Every codec is a :class:`RouteCodec` and works a whole envelope at a
time: the client encodes a chunk of specs in one call, and the server
decodes an envelope's items in one pass and encodes their estimates in
another.  Within an envelope, each distinct gender set, age set and
clause tuple is encoded (or decoded) once, since the demographic slices
of one composition share them.  A spec sent alone is a chunk of one
through the same calls, so it takes the same path as a spec sent in a
batch.

:data:`ROUTE_PATHS` is the other half of the wire contract: the paths
each interface's routes are mounted at and its client calls.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.platforms.base import BatchItem
from repro.platforms.errors import BadRequestError, PlatformError
from repro.platforms.targeting import CLAUSE_CACHE_LIMIT, Clause, TargetingSpec
from repro.population.demographics import AGE_RANGES, Gender

__all__ = [
    "MAX_BATCH_SIZE",
    "PLAIN_ENVELOPE",
    "ROUTE_PATHS",
    "SEARCH_PATH",
    "BatchEnvelope",
    "BatchEntry",
    "FacebookWireCodec",
    "LinkedInWireCodec",
    "RouteCodec",
    "RoutePaths",
]

#: Maximum targeting specs one batch request may carry; the server-side
#: batch endpoints reject larger payloads and the clients chunk to it.
MAX_BATCH_SIZE = 64


class RoutePaths(NamedTuple):
    """An interface's single-estimate, batch-estimate and catalog paths."""

    estimate: str
    batch: str
    catalog: str


#: Each interface's endpoint paths, keyed like the suite's interfaces.
ROUTE_PATHS = {
    "facebook_restricted": RoutePaths(
        "/facebook/special/delivery_estimate",
        "/facebook/special/delivery_estimates",
        "/facebook/special/targeting_options",
    ),
    "facebook": RoutePaths(
        "/facebook/delivery_estimate",
        "/facebook/delivery_estimates",
        "/facebook/targeting_options",
    ),
    "google": RoutePaths(
        "/google/reach_estimate", "/google/reach_estimates", "/google/criteria"
    ),
    "linkedin": RoutePaths(
        "/linkedin/audience_count", "/linkedin/audience_counts", "/linkedin/facets"
    ),
}

#: Facebook's free-form attribute search (normal interface only).
SEARCH_PATH = "/facebook/targeting_search"

#: One decoded batch-response entry: ``(result, None)`` or
#: ``(None, (status, message, kind))``.
BatchEntry = tuple[Mapping[str, Any] | None, tuple[int, str, str | None] | None]

_FB_GENDER_CODES = {Gender.MALE: 1, Gender.FEMALE: 2}
_FB_GENDER_DECODE = {v: k for k, v in _FB_GENDER_CODES.items()}

_AGE_TO_BOUNDS = {a: list(a.bounds) for a in AGE_RANGES}
_BOUNDS_TO_AGE = {tuple(v): k for k, v in _AGE_TO_BOUNDS.items()}

_LI_FACET_PREFIX = "urn:li:adTargetingFacet:"

_NO_OPTIONS: frozenset[str] = frozenset()

# Decoded-clause interning: audits resend the same option groups across
# thousands of batch items (one per demographic slice), so each raw
# group tuple is parsed and validated once.  Facebook interests and
# LinkedIn facet URNs are cached separately -- the URN prefix must be
# stripped on the LinkedIn path, so the same raw strings decode
# differently per platform.  One-option groups resolve to the shared
# :meth:`Clause.single` objects the audit side builds.
_FB_CLAUSES: dict[tuple, Clause] = {}
_LI_CLAUSES: dict[tuple, Clause] = {}


def _cached_clause(cache: dict, key: tuple, options: tuple) -> Clause:
    clause = Clause.single(options[0]) if len(options) == 1 else Clause(options)
    if len(cache) >= CLAUSE_CACHE_LIMIT:
        cache.clear()
    cache[key] = clause
    return clause


def _sorted_options(clause: Clause) -> list[str]:
    """A clause's option ids in sorted order: what iterating the clause
    gives, without the Python-level ``Clause.__iter__`` call."""
    return sorted(frozenset.__iter__(clause))


def _sorted_codes(memo: dict, values: frozenset, table: Mapping) -> list:
    """The sorted wire codes of a demographic value set, once per
    envelope (``memo``)."""
    codes = memo.get(values)
    if codes is None:
        codes = memo[values] = sorted([table[v] for v in values])
    return codes


def _value_set(
    memo: dict, key: Callable, raw: Any, decode: Callable, error: str
) -> frozenset:
    """The demographic values a raw wire code list names.

    Memoised per envelope on the raw list as a tuple (``key``); each
    code is decoded by ``decode``.  Anything but a JSON array (a string
    would otherwise decode character by character), an unknown code, a
    malformed list or an empty one is a 400 with ``error``.
    """
    if type(raw) is not list:
        raise BadRequestError(error)
    try:
        raw_key = key(raw)
        values = memo.get(raw_key)
        if values is None:
            values = memo[raw_key] = frozenset(map(decode, raw_key))
    except (KeyError, TypeError, ValueError):
        raise BadRequestError(error) from None
    if not values:
        raise BadRequestError(error)
    return values


def _fb_gender(code: Any) -> Gender:
    return _FB_GENDER_DECODE[int(code)]


def _bounds_key(raw: Any) -> tuple:
    """An age-bounds list as a hashable tuple of tuples."""
    return tuple(map(tuple, raw))


def _json_list(raw: Any, field: str) -> list:
    """``raw`` if it is a JSON array, else a 400."""
    if type(raw) is not list:
        raise BadRequestError(f"{field} must be a list")
    return raw


def _option_ids(raw: Any, key: str, field: str) -> list[str]:
    """The option-id list under ``raw[key]`` (empty when absent).

    A string is a sequence too; without the checks ``"abc"`` would
    silently decode as the three ids ``a``, ``b`` and ``c``.
    """
    if not isinstance(raw, Mapping):
        raise BadRequestError(f"{field} must be an object")
    ids = _json_list(raw.get(key, []), f"{field}.{key}")
    for option_id in ids:
        if type(option_id) is not str or not option_id:
            raise BadRequestError(f"{field}.{key} must hold option ids")
    return ids


@dataclass(frozen=True)
class BatchEnvelope:
    """The batch protocol under one field map.

    A batch request wraps up to :data:`MAX_BATCH_SIZE` single-estimate
    bodies under ``request_key``; the response carries one entry per
    item under ``response_key``, either ``{ok_key: <single response>}``
    or ``{error_key: {status_key, message_key, kind_key}}`` so one bad
    spec never fails the whole batch.  :data:`PLAIN_ENVELOPE` is the
    Facebook and LinkedIn map; ``GoogleWireCodec.envelope`` is Google's
    obfuscated one.
    """

    request_key: str
    response_key: str
    ok_key: str
    error_key: str
    status_key: str
    message_key: str
    kind_key: str

    def encode_request(self, items: list[dict[str, Any]]) -> dict[str, Any]:
        return {self.request_key: list(items)}

    def decode_request(self, body: Any) -> list[Mapping[str, Any]]:
        if not isinstance(body, Mapping):
            raise BadRequestError("batch request body must be an object")
        items = body.get(self.request_key)
        if not isinstance(items, list) or not items:
            raise BadRequestError(f"missing or empty {self.request_key!r} list")
        if len(items) > MAX_BATCH_SIZE:
            raise BadRequestError(
                f"batch size {len(items)} exceeds maximum {MAX_BATCH_SIZE}"
            )
        return items

    def size(self, body: Any) -> int:
        """Items in a batch request body (1 for any other body), the
        rate limiter's price of the request."""
        items = body.get(self.request_key) if isinstance(body, Mapping) else None
        return len(items) if isinstance(items, list) else 1

    def item_ok(self, result: dict[str, Any]) -> dict[str, Any]:
        return {self.ok_key: result}

    def item_error(
        self, status: int, message: str, kind: str | None = None
    ) -> dict[str, Any]:
        error: dict[str, Any] = {
            self.status_key: int(status),
            self.message_key: str(message),
        }
        if kind is not None:
            error[self.kind_key] = kind
        return {self.error_key: error}

    def encode_response(self, results: list[dict[str, Any]]) -> dict[str, Any]:
        return {self.response_key: results}

    def decode_response(
        self, body: Mapping[str, Any], expected: int, allow_truncated: bool = False
    ) -> list[BatchEntry]:
        """Per-item ``(result, error)`` pairs, exactly one side set.

        ``error`` is a ``(status, message, kind)`` triple the client
        maps back onto its exception taxonomy; an error entry without
        an integer status or without a message is malformed.
        ``allow_truncated`` accepts a *shorter* entry list (a fault or
        proxy dropped the tail); resilient clients treat the missing
        entries as retryable.  A longer list is always malformed.
        """
        entries = body.get(self.response_key)
        if not isinstance(entries, list) or len(entries) > expected:
            raise BadRequestError("malformed batch response")
        if len(entries) != expected and not allow_truncated:
            raise BadRequestError("malformed batch response")
        ok_key, error_key = self.ok_key, self.error_key
        out: list[BatchEntry] = []
        for entry in entries:
            if type(entry) is not dict and not isinstance(entry, Mapping):
                raise BadRequestError("malformed batch entry")
            if error_key in entry:
                raw = entry[error_key]
                if (
                    not isinstance(raw, Mapping)
                    or type(raw.get(self.status_key)) is not int
                    or self.message_key not in raw
                ):
                    raise BadRequestError("malformed batch error entry")
                error = (
                    raw[self.status_key],
                    str(raw[self.message_key]),
                    raw.get(self.kind_key),
                )
                out.append((None, error))
            elif ok_key in entry:
                out.append((entry[ok_key], None))
            else:
                raise BadRequestError("malformed batch entry")
        return out


#: The Facebook and LinkedIn batch envelope.
PLAIN_ENVELOPE = BatchEnvelope(
    request_key="batch", response_key="results", ok_key="result",
    error_key="error", status_key="status", message_key="error", kind_key="kind",
)


class RouteCodec(ABC):
    """A platform's wire codec, one envelope at a time.

    Each codec implements ``encode_batch`` (client: a chunk of specs to
    request bodies, under the client's own settings),
    :meth:`decode_batch` (server: request bodies to batch items),
    :meth:`encode_estimates` (server: estimates to response bodies) and
    :meth:`decode_estimates` (client: response bodies to estimates).
    The estimate routes reach every codec through this class, the
    single-estimate ones with chunks of one.
    """

    #: The batch envelope's field map.
    envelope: BatchEnvelope

    @classmethod
    @abstractmethod
    def decode_batch(cls, items: Sequence[Any]) -> list[BatchItem]:
        """Each request body as ``(spec, estimate keyword arguments)``,
        or the :class:`BadRequestError` decoding it raised, in its place."""

    @classmethod
    @abstractmethod
    def encode_estimates(cls, estimates: Sequence[int]) -> list[dict[str, Any]]:
        """One response body per estimate."""

    @classmethod
    @abstractmethod
    def decode_estimates(cls, bodies: Sequence[Mapping[str, Any]]) -> list[int]:
        """The estimate of each response body; a malformed one is a 400."""


class FacebookWireCodec(RouteCodec):
    """Facebook delivery-estimate request/response codec."""

    envelope = PLAIN_ENVELOPE

    @classmethod
    def encode_batch(
        cls, specs: Sequence[TargetingSpec], objective: str | None = None
    ) -> list[dict[str, Any]]:
        """One request body per spec, in order."""
        geo_of: dict = {}
        genders_of: dict = {}
        ages_of: dict = {}
        flexible_of: dict = {}
        bodies = []
        for country, genders, ages, clauses, exclusions in specs:
            geo = geo_of.get(country)
            if geo is None:
                geo = geo_of[country] = {"countries": [country]}
            targeting: dict[str, Any] = {"geo_locations": geo}
            if genders is not None:
                targeting["genders"] = _sorted_codes(
                    genders_of, genders, _FB_GENDER_CODES
                )
            if ages is not None:
                targeting["age_ranges"] = _sorted_codes(ages_of, ages, _AGE_TO_BOUNDS)
            if clauses:
                flexible = flexible_of.get(clauses)
                if flexible is None:
                    flexible = flexible_of[clauses] = [
                        {"interests": _sorted_options(clause)} for clause in clauses
                    ]
                targeting["flexible_spec"] = flexible
            if exclusions:
                targeting["exclusions"] = {"interests": sorted(exclusions)}
            body: dict[str, Any] = {"targeting_spec": targeting}
            if objective is not None:
                body["optimization_goal"] = objective
            bodies.append(body)
        return bodies

    @classmethod
    def decode_batch(cls, items: Sequence[Any]) -> list[BatchItem]:
        genders_of: dict = {}
        ages_of: dict = {}
        decoded: list[BatchItem] = []
        for body in items:
            try:
                try:
                    targeting = body["targeting_spec"]
                    countries = targeting["geo_locations"]["countries"]
                except (KeyError, TypeError):
                    raise BadRequestError(
                        "missing targeting_spec.geo_locations"
                    ) from None
                if type(countries) is not list or len(countries) != 1:
                    raise BadRequestError("exactly one country required")
                genders = ages = None
                if "genders" in targeting:
                    genders = _value_set(
                        genders_of, tuple, targeting["genders"], _fb_gender,
                        "unknown gender code",
                    )
                if "age_ranges" in targeting:
                    ages = _value_set(
                        ages_of, _bounds_key, targeting["age_ranges"],
                        _BOUNDS_TO_AGE.__getitem__, "unknown age range bounds",
                    )
                clauses = []
                flexible = ()
                if "flexible_spec" in targeting:
                    flexible = _json_list(targeting["flexible_spec"], "flexible_spec")
                for flex in flexible:
                    try:
                        interests = flex["interests"]
                        if type(interests) is not list:
                            raise TypeError
                        key = tuple(interests)
                        clause = _FB_CLAUSES.get(key)
                        if clause is None:
                            clause = _cached_clause(_FB_CLAUSES, key, key)
                        clauses.append(clause)
                    except (KeyError, TypeError, ValueError):
                        raise BadRequestError(
                            "malformed flexible_spec entry"
                        ) from None
                exclusions = _NO_OPTIONS
                if "exclusions" in targeting:
                    exclusions = frozenset(
                        _option_ids(
                            targeting["exclusions"], "interests", "exclusions"
                        )
                    )
                spec = TargetingSpec._of(
                    countries[0], genders, ages, tuple(clauses), exclusions
                )
                decoded.append((spec, {"objective": body.get("optimization_goal")}))
            except PlatformError as exc:
                decoded.append(exc)
        return decoded

    @classmethod
    def encode_estimates(cls, estimates: Sequence[int]) -> list[dict[str, Any]]:
        return [
            {"data": [{"estimate_mau": int(estimate), "estimate_ready": True}]}
            for estimate in estimates
        ]

    @classmethod
    def decode_estimates(cls, bodies: Sequence[Mapping[str, Any]]) -> list[int]:
        try:
            return [int(body["data"][0]["estimate_mau"]) for body in bodies]
        except (KeyError, IndexError, TypeError, ValueError):
            raise BadRequestError("malformed Facebook response") from None


class LinkedInWireCodec(RouteCodec):
    """LinkedIn audience-count request/response codec."""

    envelope = PLAIN_ENVELOPE

    @staticmethod
    def _facet(option_id: str) -> str:
        return f"{_LI_FACET_PREFIX}{option_id}"

    @staticmethod
    def _unfacet(urn: str) -> str:
        if type(urn) is not str or not urn.startswith(_LI_FACET_PREFIX):
            raise BadRequestError(f"not a targeting facet urn: {urn!r}")
        return urn[len(_LI_FACET_PREFIX):]

    @classmethod
    def encode_batch(cls, specs: Sequence[TargetingSpec]) -> list[dict[str, Any]]:
        """One request body per spec, in order."""
        includes: dict = {}
        bodies = []
        for country, genders, ages, clauses, exclusions in specs:
            include = includes.get(clauses)
            if include is None:
                # Sorted ids give sorted URNs: every URN has one prefix.
                include = includes[clauses] = {
                    "and": [
                        {"or": [cls._facet(o) for o in _sorted_options(clause)]}
                        for clause in clauses
                    ]
                }
            body: dict[str, Any] = {"locations": [country], "include": include}
            if exclusions:
                body["exclude"] = {
                    "or": sorted(cls._facet(o) for o in exclusions)
                }
            # LinkedIn has no gender/age targeting fields; demographic
            # constraints must already be expressed as facet clauses.
            if genders is not None or ages is not None:
                raise BadRequestError(
                    "LinkedIn requests express demographics as detailed "
                    "targeting facets, not separate fields"
                )
            bodies.append(body)
        return bodies

    @classmethod
    def decode_batch(cls, items: Sequence[Any]) -> list[BatchItem]:
        decoded: list[BatchItem] = []
        for body in items:
            try:
                try:
                    locations = body["locations"]
                    and_terms = body["include"]["and"]
                except (KeyError, TypeError):
                    raise BadRequestError(
                        "missing locations or include.and"
                    ) from None
                if type(locations) is not list or len(locations) != 1:
                    raise BadRequestError("exactly one location required")
                clauses = []
                for term in _json_list(and_terms, "include.and"):
                    try:
                        urns = term["or"]
                        if type(urns) is not list:
                            raise TypeError
                        key = tuple(urns)
                        clause = _LI_CLAUSES.get(key)
                        if clause is None:
                            clause = _cached_clause(
                                _LI_CLAUSES, key, tuple([cls._unfacet(u) for u in urns])
                            )
                        clauses.append(clause)
                    except (KeyError, TypeError, ValueError):
                        raise BadRequestError("malformed include.and term") from None
                exclusions = _NO_OPTIONS
                if "exclude" in body:
                    exclusions = frozenset(
                        cls._unfacet(u)
                        for u in _option_ids(body["exclude"], "or", "exclude")
                    )
                spec = TargetingSpec._of(
                    locations[0], None, None, tuple(clauses), exclusions
                )
                decoded.append((spec, {}))
            except PlatformError as exc:
                decoded.append(exc)
        return decoded

    @classmethod
    def encode_estimates(cls, estimates: Sequence[int]) -> list[dict[str, Any]]:
        return [{"elements": [{"total": int(estimate)}]} for estimate in estimates]

    @classmethod
    def decode_estimates(cls, bodies: Sequence[Mapping[str, Any]]) -> list[int]:
        try:
            return [int(body["elements"][0]["total"]) for body in bodies]
        except (KeyError, IndexError, TypeError, ValueError):
            raise BadRequestError("malformed LinkedIn response") from None
