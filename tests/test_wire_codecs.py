"""Round-trip tests for the Facebook/LinkedIn/Google wire codecs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.obfuscation import GoogleWireCodec, criterion_id
from repro.api.routes import mount_suite_routes
from repro.api.transport import FakeTransport, HttpRequest, HttpResponse
from repro.api.wire import (
    ROUTE_PATHS,
    SEARCH_PATH,
    FacebookWireCodec,
    LinkedInWireCodec,
)
from repro.platforms.errors import BadRequestError, error_from_parts, error_parts
from repro.platforms.google import FrequencyCap
from repro.platforms.targeting import TargetingSpec
from repro.population.demographics import AGE_RANGES, AgeRange, Gender

OPTIONS = [f"x:feat:opt-{i}" for i in range(8)]


class TestFacebookCodec:
    def roundtrip(self, spec, objective=None):
        [body] = FacebookWireCodec.encode_batch([spec], objective)
        [(decoded, options)] = FacebookWireCodec.decode_batch([body])
        return decoded, options["objective"]

    def test_plain(self):
        spec = TargetingSpec.of(*OPTIONS[:2])
        decoded, _ = self.roundtrip(spec)
        assert decoded == spec

    def test_demographics(self):
        spec = (
            TargetingSpec.and_of_ors([OPTIONS[:2], OPTIONS[2:3]])
            .with_gender(Gender.FEMALE)
            .with_age(AgeRange.AGE_35_54)
        )
        decoded, _ = self.roundtrip(spec)
        assert decoded == spec

    def test_multiple_ages(self):
        spec = TargetingSpec.everyone().with_ages(
            [AgeRange.AGE_25_34, AgeRange.AGE_55_PLUS]
        )
        decoded, _ = self.roundtrip(spec)
        assert decoded == spec

    def test_exclusions(self):
        spec = TargetingSpec.of(OPTIONS[0]).excluding(OPTIONS[1])
        decoded, _ = self.roundtrip(spec)
        assert decoded == spec

    def test_objective_passthrough(self):
        _, obj = self.roundtrip(TargetingSpec.everyone(), objective="Reach")
        assert obj == "Reach"

    def test_response_roundtrip(self):
        bodies = FacebookWireCodec.encode_estimates([12_000])
        assert FacebookWireCodec.decode_estimates(bodies) == [12_000]

    def test_malformed_request(self):
        decoded = FacebookWireCodec.decode_batch(
            [{}, {"targeting_spec": {"geo_locations": {"countries": ["US", "CA"]}}}]
        )
        assert [type(item) for item in decoded] == [BadRequestError] * 2

    def test_malformed_response(self):
        with pytest.raises(BadRequestError):
            FacebookWireCodec.decode_estimates([{"data": []}])


class TestLinkedInCodec:
    def test_roundtrip(self):
        spec = TargetingSpec.and_of_ors([OPTIONS[:2], OPTIONS[3:5]]).excluding(
            OPTIONS[6]
        )
        [(decoded, _)] = LinkedInWireCodec.decode_batch(
            LinkedInWireCodec.encode_batch([spec])
        )
        assert decoded == spec

    def test_facet_urns_on_wire(self):
        [body] = LinkedInWireCodec.encode_batch([TargetingSpec.of(OPTIONS[0])])
        urn = body["include"]["and"][0]["or"][0]
        assert urn.startswith("urn:li:adTargetingFacet:")

    def test_demographic_fields_rejected(self):
        with pytest.raises(BadRequestError):
            LinkedInWireCodec.encode_batch(
                [TargetingSpec.everyone().with_gender(Gender.MALE)]
            )

    def test_response_roundtrip(self):
        assert LinkedInWireCodec.decode_estimates(
            LinkedInWireCodec.encode_estimates([300])
        ) == [300]

    def test_malformed(self):
        [item] = LinkedInWireCodec.decode_batch([{"locations": ["US"]}])
        assert isinstance(item, BadRequestError)
        with pytest.raises(BadRequestError):
            LinkedInWireCodec.decode_estimates([{}])


class TestGoogleCodec:
    def make_codec(self):
        return GoogleWireCodec(OPTIONS)

    def feature_of(self):
        return {o: "audiences" if i < 4 else "topics" for i, o in enumerate(OPTIONS)}

    def test_roundtrip_with_everything(self):
        codec = self.make_codec()
        spec = (
            TargetingSpec.and_of_ors([OPTIONS[:2], OPTIONS[4:6]])
            .with_gender(Gender.MALE)
            .with_age(AgeRange.AGE_18_24)
        )
        cap = FrequencyCap(1, "month")
        bodies = codec.encode_batch(
            [spec], self.feature_of(), frequency_cap=cap, objective="Brand"
        )
        [(decoded, options)] = codec.decode_batch(bodies)
        assert decoded == spec
        assert options["frequency_cap"] == cap
        assert options["objective"] == "Brand"

    def test_body_is_obfuscated(self):
        codec = self.make_codec()
        [body] = codec.encode_batch([TargetingSpec.of(OPTIONS[0])], self.feature_of())
        # numeric-string keys only, and no option identifiers in clear text
        assert all(key.isdigit() for key in body)
        assert OPTIONS[0] not in str(body)

    def test_criterion_ids_stable(self):
        assert criterion_id("abc") == criterion_id("abc")
        assert criterion_id("abc") != criterion_id("abd")

    def test_unknown_criterion_rejected(self):
        codec = GoogleWireCodec([])  # empty reverse table
        bodies = GoogleWireCodec(OPTIONS).encode_batch(
            [TargetingSpec.of(OPTIONS[0])], self.feature_of()
        )
        [item] = codec.decode_batch(bodies)
        assert isinstance(item, BadRequestError)

    def test_mixed_feature_clause_rejected_on_encode(self):
        codec = self.make_codec()
        spec = TargetingSpec.and_of_ors([[OPTIONS[0], OPTIONS[5]]])
        with pytest.raises(ValueError):
            codec.encode_batch([spec], self.feature_of())

    def test_malformed_bodies(self):
        codec = self.make_codec()
        decoded = codec.decode_batch(
            [{}, {"1": 840, "2": [99]}, {"1": 840, "4": {"999": [[1]]}}]
        )
        assert [type(item) for item in decoded] == [BadRequestError] * 3
        with pytest.raises(BadRequestError):
            codec.decode_estimates([{"1": {}}])

    def test_response_roundtrip(self):
        codec = self.make_codec()
        assert codec.decode_estimates(codec.encode_estimates([5_000])) == [5_000]


@st.composite
def fb_specs(draw):
    n_clauses = draw(st.integers(0, 3))
    clauses = [
        draw(st.sets(st.sampled_from(OPTIONS), min_size=1, max_size=3))
        for _ in range(n_clauses)
    ]
    spec = TargetingSpec.and_of_ors([sorted(c) for c in clauses])
    if draw(st.booleans()):
        spec = spec.with_gender(draw(st.sampled_from(list(Gender))))
    if draw(st.booleans()):
        ages = draw(
            st.sets(st.sampled_from(list(AGE_RANGES)), min_size=1, max_size=4)
        )
        spec = spec.with_ages(ages)
    exclusions = draw(st.sets(st.sampled_from(OPTIONS), max_size=2))
    if exclusions:
        spec = spec.excluding(*exclusions)
    return spec


class TestFacebookCodecProperties:
    @given(fb_specs())
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_identity(self, spec):
        [(decoded, _)] = FacebookWireCodec.decode_batch(
            FacebookWireCodec.encode_batch([spec])
        )
        assert decoded == spec


_FB_GEO = {"geo_locations": {"countries": ["US"]}}

#: ``(platform, body)`` for request bodies every decoder must answer
#: with :class:`BadRequestError`, never a raw ``TypeError``,
#: ``AttributeError`` or ``ValueError`` (or, for ``"abc"`` as an id
#: list, a silent decode as the ids ``a``, ``b`` and ``c``).
_MALFORMED_BODIES = [
    ("facebook", {"targeting_spec": {"geo_locations": {"countries": 5}}}),
    ("facebook", {"targeting_spec": {**_FB_GEO, "exclusions": "x"}}),
    ("facebook", {"targeting_spec": {**_FB_GEO, "exclusions": {"interests": "abc"}}}),
    ("facebook", {"targeting_spec": {**_FB_GEO, "flexible_spec": 3}}),
    (
        "facebook",
        {"targeting_spec": {**_FB_GEO, "flexible_spec": [{"interests": "ab"}]}},
    ),
    ("linkedin", {"locations": 1, "include": {"and": []}}),
    ("linkedin", {"locations": ["US"], "include": {"and": 4}}),
    (
        "linkedin",
        {"locations": ["US"], "include": {"and": []}, "exclude": {"or": [7]}},
    ),
    ("linkedin", {"locations": ["US"], "include": {"and": []}, "exclude": "x"}),
    ("google", {"1": 840, "4": [[criterion_id(OPTIONS[0])]]}),
    ("google", {"1": 840, "4": {"abc": [[criterion_id(OPTIONS[0])]]}}),
    ("google", {"1": 840, "4": {"201": 5}}),
    # Decoding these raises TypeError inside ``_value_set``.
    ("facebook", {"targeting_spec": {**_FB_GEO, "age_ranges": [18]}}),
    ("google", {"1": 840, "2": [None]}),
]

@pytest.mark.parametrize("platform, body", _MALFORMED_BODIES)
def test_malformed_body_is_a_400_that_spares_its_batch(
    session_small, platform, body
):
    """The decoder raises BadRequestError, the single route answers 400,
    and in a batch only that item fails."""
    codec = {
        "facebook": FacebookWireCodec,
        "linkedin": LinkedInWireCodec,
        "google": GoogleWireCodec(OPTIONS),
    }[platform]
    [item] = codec.decode_batch([body])
    assert isinstance(item, BadRequestError)

    client = session_small.clients[platform]
    envelope = client.codec.envelope
    transport = session_small.transport
    response = transport.request(HttpRequest("POST", client.paths.estimate, body=body))
    assert response.status == 400

    [good] = client._encode_items([TargetingSpec.everyone()])
    response = transport.request(
        HttpRequest(
            "POST", client.paths.batch,
            body=envelope.encode_request([good, body, good]),
        )
    )
    assert response.status == 200
    (ok, _), (_, error), (again, _) = envelope.decode_response(
        response.body, 3, allow_truncated=True
    )
    assert error[0] == 400
    first, second = client.codec.decode_estimates([ok, again])
    assert first == second > 0


@pytest.mark.parametrize(
    "platform, body",
    [
        ("facebook", {"results": [5]}),
        ("google", {GoogleWireCodec.envelope.response_key: [5]}),
    ],
)
def test_non_mapping_batch_entry_is_a_bad_request(session_small, platform, body):
    envelope = session_small.clients[platform].codec.envelope
    with pytest.raises(BadRequestError, match="malformed .*batch entry"):
        envelope.decode_response(body, 1, allow_truncated=True)


@pytest.mark.parametrize(
    "codec",
    [FacebookWireCodec, LinkedInWireCodec, GoogleWireCodec(OPTIONS)],
    ids=["facebook", "linkedin", "google"],
)
def test_empty_batch_decodes_to_nothing(codec):
    """No route sends a codec an empty batch (the envelope refuses one
    first), so only this call shows a decoder that cannot take one."""
    assert codec.decode_batch([]) == []


#: Bodies every route is sent: none, an empty object, and JSON values
#: that are not objects.
_ANY_ROUTE_BODIES = [None, {}, [], "x", ["q"], 5]

#: Single-estimate bodies whose fields have the wrong JSON type, per
#: platform; batch routes get each as an item and as the item list.
_WRONG_TYPE_FIELDS = {
    "facebook": [
        {"targeting_spec": 5},
        {"targeting_spec": {**_FB_GEO, "genders": "1"}},
        {"targeting_spec": _FB_GEO, "optimization_goal": ["Reach"]},
    ],
    "linkedin": [
        {"locations": "US"},
        {"locations": ["US"], "include": []},
        {"locations": ["US"], "include": {"and": [{"or": 5}]}},
    ],
    "google": [
        {"1": "x"},
        {"1": 840, "3": {"a": 1}},
        {"1": 840, "5": "x"},
        {"1": 840, "6": ["x"]},
    ],
}


def _check_error(status, message, kind):
    """A 4xx whose parts survive the client's mapping: the kind is set
    exactly where the restored error has one."""
    assert 400 <= status < 500 and isinstance(message, str)
    restored_status, _, restored_kind = error_parts(
        error_from_parts(status, message, kind)
    )
    assert restored_status == status
    assert (kind is None) == (restored_kind is None)


def test_every_route_answers_malformed_bodies(session_small):
    """No body makes a mounted route raise out of the transport: each
    answers a response, and every error in it is a 4xx."""
    transport = FakeTransport(rate=1e6, burst=10**6)  # prices every batch
    mount_suite_routes(transport, session_small.suite)
    routes = [("GET", SEARCH_PATH, None, False)]
    for key, paths in ROUTE_PATHS.items():
        platform = key.partition("_")[0]
        routes += [
            ("POST", paths.estimate, platform, False),
            ("POST", paths.batch, platform, True),
            ("GET", paths.catalog, platform, False),
        ]
    assert len(routes) == len(transport._routes) == 13
    for method, path, platform, batch in routes:
        bodies = list(_ANY_ROUTE_BODIES)
        envelope = None
        if platform is not None:
            fields = _WRONG_TYPE_FIELDS[platform]
            envelope = session_small.clients[platform].codec.envelope
            bodies += fields
        if batch:
            bodies += [envelope.encode_request(fields)] + [
                {envelope.request_key: bad} for bad in ("x", 5, [5], [[]])
            ]
        for body in bodies:
            response = transport.request(HttpRequest(method, path, body=body))
            assert isinstance(response, HttpResponse), (path, body)
            if response.status != 200:
                error = response.body
                _check_error(response.status, error["error"], error.get("kind"))
            elif envelope is not None and envelope.response_key in response.body:
                n_items = len(response.body[envelope.response_key])
                for _, parts in envelope.decode_response(response.body, n_items):
                    if parts is not None:
                        _check_error(*parts)
