"""Google's obfuscated-JSON wire format.

The paper notes that while Facebook's and LinkedIn's targeting-UI API
calls are unobfuscated, "the API calls made by Google consist of
obfuscated json; by manually varying the targeting options
systematically, we find a mapping between the targeting options and
particular keys and values in the obfuscated json" (Section 3).

This module is that mapping, reconstructed: requests are nested dicts
of numeric-string keys, targeting options are numeric criterion ids
(stable CRC32 hashes of the option identifiers, mimicking Google's
criterion-id space), and the reach estimate comes back under an equally
opaque key path.  The audit client encodes through
:class:`GoogleWireCodec`; the server-side route decodes with the same
codec plus a reverse criterion-id table built from the catalog.  Batch
requests travel in the shared :class:`~repro.api.wire.BatchEnvelope`
under Google's own numeric field map, :attr:`GoogleWireCodec.envelope`.
"""

from __future__ import annotations

import zlib
from collections.abc import Mapping
from functools import lru_cache
from typing import Any, Iterable

from repro.api.wire import BatchEnvelope
from repro.platforms.errors import BadRequestError
from repro.platforms.google import FrequencyCap
from repro.platforms.targeting import Clause, TargetingSpec
from repro.population.demographics import AgeRange, Gender

__all__ = ["GoogleWireCodec", "criterion_id"]

# Obfuscated field numbers (as reverse-engineered by "manually varying
# the targeting options systematically").
_F_COUNTRY = "1"
_F_GENDERS = "2"
_F_AGES = "3"
_F_CRITERIA = "4"
_F_FREQ_CAP = "5"
_F_OBJECTIVE = "6"
_F_ESTIMATE_WRAPPER = "1"
_F_ESTIMATE_VALUE = "2"

_COUNTRY_CODES = {"US": 840}  # ISO 3166-1 numeric, as Google uses
_COUNTRY_DECODE = {v: k for k, v in _COUNTRY_CODES.items()}

_GENDER_CODES = {Gender.MALE: 10, Gender.FEMALE: 11}
_GENDER_DECODE = {v: k for k, v in _GENDER_CODES.items()}

_AGE_CODES = {
    AgeRange.AGE_18_24: 503001,
    AgeRange.AGE_25_34: 503002,
    AgeRange.AGE_35_54: 503003,
    AgeRange.AGE_55_PLUS: 503004,
}
_AGE_DECODE = {v: k for k, v in _AGE_CODES.items()}

_FEATURE_CODES = {"audiences": 201, "topics": 202}
_FEATURE_DECODE = {v: k for k, v in _FEATURE_CODES.items()}
_FEATURE_FIELD = {k: str(v) for k, v in _FEATURE_CODES.items()}

_CAP_PERIOD_CODES = {"day": 1, "week": 2, "month": 3}
_CAP_PERIOD_DECODE = {v: k for k, v in _CAP_PERIOD_CODES.items()}


@lru_cache(maxsize=65536)
def criterion_id(option_id: str) -> int:
    """Stable numeric criterion id for a targeting option."""
    return zlib.crc32(option_id.encode())


class GoogleWireCodec:
    """Encode/decode reach-estimate requests in Google's wire format.

    The decoder needs a criterion-id table mapping numeric ids back to
    option identifiers; the server builds it from the platform catalog,
    while the client only ever encodes (it learned the forward mapping
    by varying options systematically, as the paper describes).
    """

    #: The batch envelope under Google's field map: requests and
    #: responses nest per-item payloads under another opaque numeric
    #: key, mirroring the single-call obfuscation.
    envelope = BatchEnvelope(
        request_key="7", response_key="7", ok_key="1", error_key="2",
        status_key="1", message_key="2", kind_key="3",
    )

    #: Obfuscated field under which batch payloads travel.
    BATCH_FIELD = envelope.request_key

    def __init__(self, option_ids: Iterable[str] = ()):
        self._reverse: dict[int, str] = {}
        # Decode caches: audits resend the same criteria groups and
        # demographic code lists across thousands of batch items (one
        # per demographic slice), so decoded clauses and frozensets are
        # interned per raw tuple.  Bounded by the catalog in practice.
        self._clause_cache: dict[tuple, Clause] = {}
        self._demo_cache: dict[tuple, frozenset] = {}
        for option_id in option_ids:
            self.register_option(option_id)

    def register_option(self, option_id: str) -> int:
        """Add an option to the reverse table, returning its criterion id."""
        cid = criterion_id(option_id)
        existing = self._reverse.get(cid)
        if existing is not None and existing != option_id:
            raise ValueError(
                f"criterion id collision: {option_id!r} vs {existing!r}"
            )
        self._reverse[cid] = option_id
        return cid

    # -- encoding (client side) -------------------------------------------

    def encode_request(
        self,
        spec: TargetingSpec,
        feature_of: Mapping[str, str],
        frequency_cap: FrequencyCap | None = None,
        objective: str | None = None,
    ) -> dict[str, Any]:
        """Obfuscated request body for a targeting spec.

        ``feature_of`` maps option ids to their feature so criteria can
        be grouped under per-feature keys as the real payload does.
        """
        body: dict[str, Any] = {_F_COUNTRY: _COUNTRY_CODES[spec.country]}
        if spec.genders is not None:
            codes = [_GENDER_CODES[g] for g in spec.genders]
            if len(codes) > 1:
                codes.sort()
            body[_F_GENDERS] = codes
        if spec.age_ranges is not None:
            codes = [_AGE_CODES[a] for a in spec.age_ranges]
            if len(codes) > 1:
                codes.sort()
            body[_F_AGES] = codes
        criteria: dict[str, list[list[int]]] = {}
        for clause in spec.clauses:
            options = clause.options
            if len(options) == 1:
                # Single-option clauses dominate audit traffic; skip the
                # feature-set and sort machinery for them.
                (option,) = options
                fcode = _FEATURE_FIELD[feature_of[option]]
                group = [criterion_id(option)]
            else:
                features = {feature_of[o] for o in options}
                if len(features) != 1:
                    raise ValueError("a Google clause must be single-feature")
                fcode = _FEATURE_FIELD[features.pop()]
                group = sorted(criterion_id(o) for o in options)
            criteria.setdefault(fcode, []).append(group)
        if criteria:
            body[_F_CRITERIA] = criteria
        if frequency_cap is not None:
            body[_F_FREQ_CAP] = {
                "1": frequency_cap.impressions,
                "2": _CAP_PERIOD_CODES[frequency_cap.per],
            }
        if objective is not None:
            body[_F_OBJECTIVE] = objective
        return body

    # -- decoding (server side) -------------------------------------------

    def decode_request(
        self, body: Mapping[str, Any]
    ) -> tuple[TargetingSpec, FrequencyCap | None, str | None]:
        """Parse an obfuscated body back into a targeting spec."""
        try:
            country = _COUNTRY_DECODE[int(body[_F_COUNTRY])]
        except (KeyError, TypeError, ValueError):
            raise BadRequestError("missing or unknown country code") from None

        demo_cache = self._demo_cache
        genders = None
        if _F_GENDERS in body:
            raw = body[_F_GENDERS]
            try:
                key = ("g", *raw)
                genders = demo_cache.get(key)
                if genders is None:
                    genders = demo_cache[key] = frozenset(
                        _GENDER_DECODE[c if type(c) is int else int(c)]
                        for c in raw
                    )
            except (KeyError, TypeError, ValueError):
                raise BadRequestError("unknown gender code") from None
        ages = None
        if _F_AGES in body:
            raw = body[_F_AGES]
            try:
                key = ("a", *raw)
                ages = demo_cache.get(key)
                if ages is None:
                    ages = demo_cache[key] = frozenset(
                        _AGE_DECODE[c if type(c) is int else int(c)]
                        for c in raw
                    )
            except (KeyError, TypeError, ValueError):
                raise BadRequestError("unknown age code") from None

        clauses: list[Clause] = []
        reverse = self._reverse
        clause_cache = self._clause_cache
        criteria = body.get(_F_CRITERIA) or {}
        if not isinstance(criteria, Mapping):
            raise BadRequestError("criteria must be an object")
        for fcode, groups in criteria.items():
            try:
                known = int(fcode) in _FEATURE_DECODE
            except (TypeError, ValueError):
                known = False
            if not known:
                raise BadRequestError(f"unknown feature code {fcode}")
            if type(groups) is not list:
                raise BadRequestError("criteria groups must be a list")
            for group in groups:
                try:
                    key = tuple(group)
                    clause = clause_cache.get(key)
                except TypeError:
                    raise BadRequestError("malformed criterion id") from None
                if clause is None:
                    try:
                        options = frozenset(
                            reverse[cid if type(cid) is int else int(cid)]
                            for cid in group
                        )
                    except KeyError as exc:
                        raise BadRequestError(
                            f"unknown criterion id {exc.args[0]}"
                        ) from None
                    except (TypeError, ValueError):
                        raise BadRequestError("malformed criterion id") from None
                    if not options:
                        raise BadRequestError("empty criteria group")
                    # Reverse-table hits are valid option ids by construction.
                    clause = clause_cache[key] = Clause._of(options)
                clauses.append(clause)

        cap = None
        if _F_FREQ_CAP in body:
            raw = body[_F_FREQ_CAP]
            try:
                cap = FrequencyCap(
                    impressions=int(raw["1"]),
                    per=_CAP_PERIOD_DECODE[int(raw["2"])],
                )
            except (KeyError, TypeError, ValueError):
                raise BadRequestError("malformed frequency cap") from None

        objective = body.get(_F_OBJECTIVE)
        spec = TargetingSpec(
            country=country,
            genders=genders,
            age_ranges=ages,
            clauses=tuple(clauses),
        )
        return spec, cap, objective

    def decode_item(
        self, body: Mapping[str, Any]
    ) -> tuple[TargetingSpec, dict[str, Any]]:
        """A request body as ``(spec, estimate keyword arguments)``."""
        spec, cap, objective = self.decode_request(body)
        return spec, {"objective": objective, "frequency_cap": cap}

    def encode_response(self, estimate: int) -> dict[str, Any]:
        """Obfuscated response wrapper around the impressions estimate."""
        return {_F_ESTIMATE_WRAPPER: {_F_ESTIMATE_VALUE: int(estimate)}}

    def decode_response(self, body: Mapping[str, Any]) -> int:
        """Extract the estimate from an obfuscated response."""
        try:
            return int(body[_F_ESTIMATE_WRAPPER][_F_ESTIMATE_VALUE])
        except (KeyError, TypeError, ValueError):
            raise BadRequestError("malformed Google response") from None
