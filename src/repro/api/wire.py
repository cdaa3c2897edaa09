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
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.platforms.errors import BadRequestError
from repro.platforms.targeting import CLAUSE_CACHE_LIMIT, Clause, TargetingSpec
from repro.population.demographics import AGE_RANGES, Gender

__all__ = [
    "MAX_BATCH_SIZE",
    "PLAIN_ENVELOPE",
    "BatchEnvelope",
    "BatchEntry",
    "FacebookWireCodec",
    "LinkedInWireCodec",
]

#: Maximum targeting specs one batch request may carry; the server-side
#: batch endpoints reject larger payloads and the clients chunk to it.
MAX_BATCH_SIZE = 64

#: One decoded batch-response entry: ``(result, None)`` or
#: ``(None, (status, message, kind))``.
BatchEntry = tuple[Mapping[str, Any] | None, tuple[int, str, str | None] | None]

_FB_GENDER_CODES = {Gender.MALE: 1, Gender.FEMALE: 2}
_FB_GENDER_DECODE = {v: k for k, v in _FB_GENDER_CODES.items()}

_AGE_TO_BOUNDS = {a: list(a.bounds) for a in AGE_RANGES}
_BOUNDS_TO_AGE = {tuple(v): k for k, v in _AGE_TO_BOUNDS.items()}

_LI_FACET_PREFIX = "urn:li:adTargetingFacet:"

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

    def decode_request(self, body: Mapping[str, Any]) -> list[Mapping[str, Any]]:
        items = body.get(self.request_key)
        if not isinstance(items, list) or not items:
            raise BadRequestError(f"missing or empty {self.request_key!r} list")
        if len(items) > MAX_BATCH_SIZE:
            raise BadRequestError(
                f"batch size {len(items)} exceeds maximum {MAX_BATCH_SIZE}"
            )
        return items

    def size(self, body: Mapping[str, Any] | None) -> int:
        """Items in a batch request body (1 for any other body), the
        rate limiter's price of the request."""
        items = body.get(self.request_key) if body else None
        return len(items) if isinstance(items, list) else 1

    def item_ok(self, result: Mapping[str, Any]) -> dict[str, Any]:
        return {self.ok_key: dict(result)}

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
        out: list[BatchEntry] = []
        for entry in entries:
            if not isinstance(entry, Mapping):
                raise BadRequestError("malformed batch entry")
            if self.error_key in entry:
                raw = entry[self.error_key]
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
            elif self.ok_key in entry:
                out.append((entry[self.ok_key], None))
            else:
                raise BadRequestError("malformed batch entry")
        return out


#: The Facebook and LinkedIn batch envelope.
PLAIN_ENVELOPE = BatchEnvelope(
    request_key="batch", response_key="results", ok_key="result",
    error_key="error", status_key="status", message_key="error", kind_key="kind",
)


class FacebookWireCodec:
    """Facebook delivery-estimate request/response codec."""

    envelope = PLAIN_ENVELOPE

    @staticmethod
    def encode_request(
        spec: TargetingSpec, objective: str | None = None
    ) -> dict[str, Any]:
        body: dict[str, Any] = {
            "targeting_spec": {
                "geo_locations": {"countries": [spec.country]},
            }
        }
        targeting = body["targeting_spec"]
        if spec.genders is not None:
            codes = [_FB_GENDER_CODES[g] for g in spec.genders]
            if len(codes) > 1:
                codes.sort()
            targeting["genders"] = codes
        if spec.age_ranges is not None:
            bounds = [_AGE_TO_BOUNDS[a] for a in spec.age_ranges]
            if len(bounds) > 1:
                bounds.sort()
            targeting["age_ranges"] = bounds
        if spec.clauses:
            # A clause iterates in sorted order.
            targeting["flexible_spec"] = [
                {"interests": list(clause)} for clause in spec.clauses
            ]
        if spec.exclusions:
            targeting["exclusions"] = {"interests": sorted(spec.exclusions)}
        if objective is not None:
            body["optimization_goal"] = objective
        return body

    @staticmethod
    def decode_request(
        body: Mapping[str, Any],
    ) -> tuple[TargetingSpec, str | None]:
        try:
            targeting = body["targeting_spec"]
            countries = targeting["geo_locations"]["countries"]
        except (KeyError, TypeError):
            raise BadRequestError("missing targeting_spec.geo_locations") from None
        if type(countries) is not list or len(countries) != 1:
            raise BadRequestError("exactly one country required")

        genders = None
        if "genders" in targeting:
            try:
                genders = frozenset(
                    _FB_GENDER_DECODE[int(c)] for c in targeting["genders"]
                )
            except (KeyError, TypeError, ValueError):
                raise BadRequestError("unknown gender code") from None
        ages = None
        if "age_ranges" in targeting:
            try:
                ages = frozenset(
                    _BOUNDS_TO_AGE[tuple(bounds)]
                    for bounds in targeting["age_ranges"]
                )
            except (KeyError, TypeError):
                raise BadRequestError("unknown age range bounds") from None

        clauses = []
        for flex in _json_list(targeting.get("flexible_spec", []), "flexible_spec"):
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
                raise BadRequestError("malformed flexible_spec entry") from None
        exclusions = frozenset(
            _option_ids(targeting.get("exclusions", {}), "interests", "exclusions")
        )
        spec = TargetingSpec(
            country=countries[0],
            genders=genders,
            age_ranges=ages,
            clauses=tuple(clauses),
            exclusions=exclusions,
        )
        return spec, body.get("optimization_goal")

    @staticmethod
    def decode_item(body: Mapping[str, Any]) -> tuple[TargetingSpec, dict[str, Any]]:
        """A request body as ``(spec, estimate keyword arguments)``."""
        spec, objective = FacebookWireCodec.decode_request(body)
        return spec, {"objective": objective}

    @staticmethod
    def encode_response(estimate: int) -> dict[str, Any]:
        return {"data": [{"estimate_mau": int(estimate), "estimate_ready": True}]}

    @staticmethod
    def decode_response(body: Mapping[str, Any]) -> int:
        try:
            return int(body["data"][0]["estimate_mau"])
        except (KeyError, IndexError, TypeError, ValueError):
            raise BadRequestError("malformed Facebook response") from None


class LinkedInWireCodec:
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
    def encode_request(cls, spec: TargetingSpec) -> dict[str, Any]:
        include = {
            "and": [
                {"or": [_LI_FACET_PREFIX + next(iter(clause.options))]}
                if len(clause.options) == 1
                else {"or": sorted(cls._facet(o) for o in clause.options)}
                for clause in spec.clauses
            ]
        }
        body: dict[str, Any] = {
            "locations": [spec.country],
            "include": include,
        }
        if spec.exclusions:
            body["exclude"] = {
                "or": sorted(cls._facet(o) for o in spec.exclusions)
            }
        # LinkedIn has no gender/age targeting fields; demographic
        # constraints must already be expressed as facet clauses.
        if spec.genders is not None or spec.age_ranges is not None:
            raise BadRequestError(
                "LinkedIn requests express demographics as detailed "
                "targeting facets, not separate fields"
            )
        return body

    @classmethod
    def decode_request(cls, body: Mapping[str, Any]) -> TargetingSpec:
        try:
            locations = body["locations"]
            and_terms = body["include"]["and"]
        except (KeyError, TypeError):
            raise BadRequestError("missing locations or include.and") from None
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
        exclusions = frozenset(
            cls._unfacet(u)
            for u in _option_ids(body.get("exclude", {}), "or", "exclude")
        )
        return TargetingSpec(
            country=locations[0], clauses=tuple(clauses), exclusions=exclusions
        )

    @staticmethod
    def decode_item(body: Mapping[str, Any]) -> tuple[TargetingSpec, dict[str, Any]]:
        """A request body as ``(spec, estimate keyword arguments)``."""
        return LinkedInWireCodec.decode_request(body), {}

    @staticmethod
    def encode_response(estimate: int) -> dict[str, Any]:
        return {"elements": [{"total": int(estimate)}]}

    @staticmethod
    def decode_response(body: Mapping[str, Any]) -> int:
        try:
            return int(body["elements"][0]["total"])
        except (KeyError, IndexError, TypeError, ValueError):
            raise BadRequestError("malformed LinkedIn response") from None
