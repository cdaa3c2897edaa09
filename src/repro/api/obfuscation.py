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
under Google's own numeric field map, :attr:`GoogleWireCodec.envelope`,
and the codec, like the plain ones, works a whole envelope at a time
(:class:`~repro.api.wire.RouteCodec`).
"""

from __future__ import annotations

import zlib
from collections.abc import Mapping
from functools import lru_cache
from typing import Any, Iterable, Sequence

from repro.api.wire import (
    _NO_OPTIONS,
    BatchEnvelope,
    RouteCodec,
    _sorted_codes,
    _sorted_options,
    _value_set,
)
from repro.platforms.base import BatchItem
from repro.platforms.errors import BadRequestError, PlatformError
from repro.platforms.google import FrequencyCap
from repro.platforms.targeting import CLAUSE_CACHE_LIMIT, Clause, TargetingSpec
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


def _gender(code: Any) -> Gender:
    return _GENDER_DECODE[int(code)]


def _age(code: Any) -> AgeRange:
    return _AGE_DECODE[int(code)]

_FEATURE_CODES = {"audiences": 201, "topics": 202}
_FEATURE_DECODE = {v: k for k, v in _FEATURE_CODES.items()}
_FEATURE_FIELD = {k: str(v) for k, v in _FEATURE_CODES.items()}
_FEATURE_FIELDS = frozenset(_FEATURE_FIELD.values())

_CAP_PERIOD_CODES = {"day": 1, "week": 2, "month": 3}
_CAP_PERIOD_DECODE = {v: k for k, v in _CAP_PERIOD_CODES.items()}


@lru_cache(maxsize=65536)
def criterion_id(option_id: str) -> int:
    """Stable numeric criterion id for a targeting option."""
    return zlib.crc32(option_id.encode())


def _criteria(
    clauses: tuple[Clause, ...], feature_of: Mapping[str, str]
) -> dict[str, list[list[int]]]:
    """Criterion-id groups of a clause tuple, under per-feature keys."""
    criteria: dict[str, list[list[int]]] = {}
    for clause in clauses:
        options = _sorted_options(clause)
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
    return criteria


class GoogleWireCodec(RouteCodec):
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

    def __init__(self, option_ids: Iterable[str] = ()):
        self._reverse: dict[int, str] = {}
        # Decoded clauses, interned per raw criteria group: audits
        # resend the same groups across thousands of batch items (one
        # per demographic slice).  The keys come from request bodies,
        # which may group and order known ids any way, so the cache
        # starts over at CLAUSE_CACHE_LIMIT entries.
        self._clause_cache: dict[tuple, Clause] = {}
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

    @classmethod
    def encode_batch(
        cls,
        specs: Sequence[TargetingSpec],
        feature_of: Mapping[str, str],
        frequency_cap: FrequencyCap | None = None,
        objective: str | None = None,
    ) -> list[dict[str, Any]]:
        """Obfuscated request bodies for a chunk of specs, in order.

        ``feature_of`` maps option ids to their feature so criteria can
        be grouped under per-feature keys as the real payload does.
        """
        cap = None
        if frequency_cap is not None:
            cap = {
                "1": frequency_cap.impressions,
                "2": _CAP_PERIOD_CODES[frequency_cap.per],
            }
        genders_of: dict = {}
        ages_of: dict = {}
        criteria_of: dict = {}
        bodies = []
        for country, genders, ages, clauses, _exclusions in specs:
            body: dict[str, Any] = {_F_COUNTRY: _COUNTRY_CODES[country]}
            if genders is not None:
                body[_F_GENDERS] = _sorted_codes(genders_of, genders, _GENDER_CODES)
            if ages is not None:
                body[_F_AGES] = _sorted_codes(ages_of, ages, _AGE_CODES)
            if clauses:
                criteria = criteria_of.get(clauses)
                if criteria is None:
                    criteria = criteria_of[clauses] = _criteria(clauses, feature_of)
                body[_F_CRITERIA] = criteria
            if cap is not None:
                body[_F_FREQ_CAP] = cap
            if objective is not None:
                body[_F_OBJECTIVE] = objective
            bodies.append(body)
        return bodies

    # -- decoding (server side) -------------------------------------------

    def decode_batch(self, items: Sequence[Any]) -> list[BatchItem]:
        """Parse obfuscated bodies back into targeting specs."""
        reverse = self._reverse
        clause_cache = self._clause_cache
        genders_of: dict = {}
        ages_of: dict = {}
        caps_of: dict = {}
        decoded: list[BatchItem] = []
        for body in items:
            try:
                try:
                    country = _COUNTRY_DECODE[int(body[_F_COUNTRY])]
                except (KeyError, TypeError, ValueError):
                    raise BadRequestError(
                        "missing or unknown country code"
                    ) from None
                genders = ages = None
                if _F_GENDERS in body:
                    genders = _value_set(
                        genders_of, tuple, body[_F_GENDERS], _gender,
                        "unknown gender code",
                    )
                if _F_AGES in body:
                    ages = _value_set(
                        ages_of, tuple, body[_F_AGES], _age, "unknown age code"
                    )

                clauses: list[Clause] = []
                criteria = body.get(_F_CRITERIA) or {}
                if not isinstance(criteria, Mapping):
                    raise BadRequestError("criteria must be an object")
                for fcode, groups in criteria.items():
                    if fcode not in _FEATURE_FIELDS:
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
                                raise BadRequestError(
                                    "malformed criterion id"
                                ) from None
                            if not options:
                                raise BadRequestError("empty criteria group")
                            if len(clause_cache) >= CLAUSE_CACHE_LIMIT:
                                clause_cache.clear()
                            # Reverse-table hits are valid option ids by
                            # construction.
                            clause = clause_cache[key] = Clause._of(options)
                        clauses.append(clause)

                cap = None
                if _F_FREQ_CAP in body:
                    raw = body[_F_FREQ_CAP]
                    try:
                        key = (raw["1"], raw["2"])
                        cap = caps_of.get(key)
                        if cap is None:
                            cap = caps_of[key] = FrequencyCap(
                                impressions=int(key[0]),
                                per=_CAP_PERIOD_DECODE[int(key[1])],
                            )
                    except (KeyError, TypeError, ValueError):
                        raise BadRequestError("malformed frequency cap") from None

                spec = TargetingSpec._of(
                    country, genders, ages, tuple(clauses), _NO_OPTIONS
                )
                decoded.append(
                    (spec, {"objective": body.get(_F_OBJECTIVE), "frequency_cap": cap})
                )
            except PlatformError as exc:
                decoded.append(exc)
        return decoded

    # -- responses ----------------------------------------------------------

    @classmethod
    def encode_estimates(cls, estimates: Sequence[int]) -> list[dict[str, Any]]:
        """Obfuscated response wrappers around the impressions estimates."""
        return [
            {_F_ESTIMATE_WRAPPER: {_F_ESTIMATE_VALUE: int(estimate)}}
            for estimate in estimates
        ]

    @classmethod
    def decode_estimates(cls, bodies: Sequence[Mapping[str, Any]]) -> list[int]:
        """Extract the estimates from obfuscated responses."""
        try:
            return [
                int(body[_F_ESTIMATE_WRAPPER][_F_ESTIMATE_VALUE]) for body in bodies
            ]
        except (KeyError, TypeError, ValueError):
            raise BadRequestError("malformed Google response") from None
