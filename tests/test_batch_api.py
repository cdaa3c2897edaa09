"""Tests for the batched reach-estimation pipeline.

Covers the three layers the batch path adds: the server-side batch
endpoints (per-item results and errors, envelope limits, rate-limit
cost accounting), the clients' ``estimate_many`` (chunking, 429
back-off, typed per-item errors), and the audit core's query planner
(dedup, and bit-identical parity with direct per-composition audits).
Below the routes, the platforms' one count path: ``estimate_batch``
gives every item the result a lone ``estimate_reach`` would, and
LinkedIn's demographic facet clauses fold into the slice mask without
changing a count.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import FakeTransport, build_clients, mount_suite_routes
from repro.api.client import FacebookReachClient, GoogleReachClient
from repro.api.transport import HttpRequest
from repro.api.obfuscation import GoogleWireCodec, criterion_id
from repro.api.wire import (
    MAX_BATCH_SIZE,
    PLAIN_ENVELOPE,
    FacebookWireCodec,
    LinkedInWireCodec,
)
from repro.core.audit import build_audit_targets
from repro.obs import Tracer
from repro.platforms.errors import (
    BadRequestError,
    CampaignConfigError,
    DisallowedTargetingError,
    PlatformError,
    UnsupportedCompositionError,
    error_parts,
)
from repro.platforms.google import FrequencyCap
from repro.platforms.linkedin import LinkedInInterface
from repro.platforms.targeting import TargetingSpec
from repro.population.demographics import SENSITIVE_ATTRIBUTES, AgeRange, Gender


@pytest.fixture(scope="module")
def clients(session_small):
    return session_small.clients


@pytest.fixture(scope="module")
def study_ids(session_small):
    """Study option ids per interface key (fresh targets, shared clients)."""
    targets = build_audit_targets(session_small.clients)
    return {key: t.study_option_ids() for key, t in targets.items()}


def _specs(ids, n=5):
    return [TargetingSpec.of(option) for option in ids[:n]]


class TestBatchEndpoints:
    @pytest.mark.parametrize(
        "key", ["facebook", "facebook_restricted", "google", "linkedin"]
    )
    def test_batch_matches_single_calls(self, clients, study_ids, key):
        """Happy path: estimate_many equals per-spec estimate() calls."""
        client = clients[key]
        specs = _specs(study_ids[key])
        singles = [client.estimate(s) for s in specs]
        batched = client.estimate_many(specs)
        assert batched == singles

    def test_mixed_item_errors_do_not_fail_batch(self, clients, study_ids):
        """Inexpressible specs come back as typed per-item errors."""
        client = clients["facebook_restricted"]
        good = TargetingSpec.of(study_ids["facebook_restricted"][0])
        bad = good.with_gender(Gender.MALE)  # restricted: no demographics
        results = client.estimate_many([good, bad, good])
        assert isinstance(results[0], int)
        assert isinstance(results[1], DisallowedTargetingError)
        assert results[2] == results[0]

    def test_google_composition_error_is_per_item(self, clients, study_ids):
        """Same-feature AND on Google errors that item only."""
        client = clients["google"]
        ids = study_ids["google"]
        features = {o.option_id: o.feature for o in client.catalog()}
        same = [i for i in ids if features[i] == features[ids[0]]][:2]
        cross = [ids[0], next(i for i in ids if features[i] != features[ids[0]])]
        results = client.estimate_many(
            [TargetingSpec.of(*cross), TargetingSpec.of(*same)]
        )
        assert isinstance(results[0], int)
        assert isinstance(results[1], UnsupportedCompositionError)

    def test_oversized_batch_rejected(self, session_small, study_ids):
        """More than MAX_BATCH_SIZE items in one envelope is a 400."""
        from repro.api.transport import HttpRequest

        spec = TargetingSpec.of(study_ids["facebook"][0])
        client = session_small.clients["facebook"]
        items = client._encode_items([spec]) * (MAX_BATCH_SIZE + 1)
        response = session_small.transport.request(
            HttpRequest(
                method="POST",
                path="/facebook/delivery_estimates",
                body=PLAIN_ENVELOPE.encode_request(items),
            )
        )
        assert response.status == 400
        assert str(MAX_BATCH_SIZE) in response.body["error"]

    def test_client_chunks_large_spec_lists(self, clients, study_ids):
        """estimate_many transparently chunks past the envelope limit."""
        client = clients["linkedin"]
        specs = _specs(study_ids["linkedin"]) * 20  # 100 specs -> 2 chunks
        before = client.transport.total_requests
        results = client.estimate_many(specs)
        assert len(results) == len(specs)
        assert all(isinstance(r, int) for r in results)
        assert client.transport.total_requests - before == 2
        # Order survives chunking: repeated specs repeat their estimate.
        assert results[:5] * 20 == results


class TestRateLimiting:
    def _limited_session(self, session_small, rate, burst, tracer=None):
        """Clients on a fresh rate-limited transport over the same suite."""
        transport = FakeTransport(rate=rate, burst=burst, tracer=tracer)
        mount_suite_routes(transport, session_small.suite)
        return transport, build_clients(transport)

    def test_backs_off_on_429_between_batches(self, session_small, study_ids):
        """A mid-run 429 is absorbed by virtual-clock back-off."""
        tracer = Tracer("rate-limited")
        transport, clients = self._limited_session(
            session_small, rate=2.0, burst=8, tracer=tracer
        )
        client = clients["facebook"]
        specs = _specs(study_ids["facebook"]) * 26  # 130 specs -> 3 chunks
        results = client.estimate_many(specs)
        assert all(isinstance(r, int) for r in results)
        (span,) = tracer.root.children  # client.estimate_many
        throttled = [
            attrs
            for name, _t, attrs in span.events
            if name == "transport.request" and attrs["status"] == 429
        ]
        assert len(throttled) >= 1
        assert {attrs["endpoint"] for attrs in throttled} == {"delivery_estimates"}
        assert transport.clock.now() > transport.latency * 3

    def test_batch_cost_charged_per_item(self, session_small, study_ids):
        """A batch drains 1 + 0.1*(n-1) tokens, far less than n singles."""
        # Near-zero refill rate so the bucket level isolates the cost.
        transport, clients = self._limited_session(
            session_small, rate=0.001, burst=40
        )
        bucket = transport._bucket("audit")
        client = clients["linkedin"]
        spec = TargetingSpec.of(study_ids["linkedin"][0])
        start = bucket.available
        client.estimate(spec)
        assert bucket.available == pytest.approx(start - 1.0, abs=0.01)
        start = bucket.available
        client.estimate_many([spec] * 11)
        assert bucket.available == pytest.approx(start - 2.0, abs=0.01)
        start = bucket.available
        client.estimate_many([spec] * 64)
        assert bucket.available == pytest.approx(start - 7.3, abs=0.01)


class TestQueryPlanner:
    def test_planner_dedups_repeated_compositions(self, session_small, study_ids):
        """Duplicate compositions cost no extra server queries."""
        target = build_audit_targets(session_small.clients)["facebook"]
        attribute = SENSITIVE_ATTRIBUTES["gender"]
        a, b = study_ids["facebook"][:2]
        once = build_audit_targets(session_small.clients)["facebook"]
        transport = once.client.transport
        before = transport.total_requests
        once.audit_many([(a,), (b,)], attribute)
        unique_cost = transport.total_requests - before
        before = transport.total_requests
        target.audit_many([(a,), (b,), (a,), (b,), (a,)], attribute)
        assert transport.total_requests - before == unique_cost
        assert target.cache_hits > 0

    def test_warm_cache_issues_no_requests(self, session_small, study_ids):
        target = build_audit_targets(session_small.clients)["facebook"]
        attribute = SENSITIVE_ATTRIBUTES["age"]
        compositions = [(i,) for i in study_ids["facebook"][:3]]
        target.audit_many(compositions, attribute)
        before = target.client.transport.total_requests
        again = target.audit_many(compositions, attribute)
        assert target.client.transport.total_requests == before
        assert len(again) == 3

    @pytest.mark.parametrize(
        "key", ["facebook", "facebook_restricted", "google", "linkedin"]
    )
    @pytest.mark.parametrize("attribute_name", ["gender", "age"])
    def test_batched_parity_with_sequential(
        self, session_small, study_ids, key, attribute_name
    ):
        """Batched audits equal a loop of direct ``audit`` calls."""
        ids = study_ids[key]
        compositions = [
            (ids[0],),
            (ids[0], ids[-1]),
            (ids[1], ids[-2]),
            (ids[2], ids[2]),  # duplicate option: skipped by both
            (ids[3], ids[-4]),
        ]
        attribute = SENSITIVE_ATTRIBUTES[attribute_name]
        batched = build_audit_targets(session_small.clients)[key].audit_many(
            compositions, attribute
        )
        target = build_audit_targets(session_small.clients)[key]
        sequential = [
            target.audit(options, attribute)
            for options in compositions
            if target.can_compose(options)
        ]
        assert batched.audits == sequential


def _linkedin_facets(interface) -> dict[str, object]:
    """LinkedIn's demographic facet ids and the value each one is."""
    return {
        entry.option_id: entry.demographic_value
        for entry in interface.catalog
        if entry.demographic_value is not None
    }


def _direct_count(interface, spec) -> int:
    """Popcount of a spec's audience straight from the population index."""
    index = interface.population.index
    facets = _linkedin_facets(interface)

    def members(option_id):
        if option_id in facets:
            return index.demographic(facets[option_id]).to_bool()
        return index.attribute(option_id).to_bool()

    audience = index.everyone.to_bool()
    for clause in spec.clauses:
        audience &= np.logical_or.reduce([members(o) for o in clause])
    for option_id in spec.exclusions:
        audience &= ~members(option_id)
    return int(audience.sum())


@st.composite
def _linkedin_batches(draw, attributes, facets):
    """Batches of LinkedIn and-of-or specs with 0-2 facet clauses.

    Facet clauses cover a gender, an age, a multi-age complement and a
    gender AND an age; a mixed facet+attribute clause and a facet among
    the exclusions must stay in the rule.
    """
    genders = [f for f in facets if "gender" in f]
    ages = [f for f in facets if "age" in f]
    facet_clause = st.one_of(
        st.sampled_from(genders).map(lambda f: [f]),
        st.sampled_from(ages).map(lambda f: [f]),
        st.sampled_from(ages).map(lambda f: [a for a in ages if a != f]),
    )
    attribute_clause = st.lists(
        st.sampled_from(attributes), min_size=1, max_size=2, unique=True
    )
    mixed_clause = st.tuples(
        st.sampled_from(facets), st.sampled_from(attributes)
    ).map(list)
    spec = st.builds(
        lambda rule, demo, mixed, excluded: TargetingSpec.and_of_ors(
            rule + demo + mixed
        ).excluding(*excluded),
        st.lists(attribute_clause, max_size=2),
        st.lists(facet_clause, max_size=2),
        st.lists(mixed_clause, max_size=1),
        st.lists(st.sampled_from(facets + attributes), max_size=1),
    )
    return draw(st.lists(spec, min_size=1, max_size=6))


class TestServerPriming:
    """The batch's validate-resolve-popcount step and its rule memo."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fold_matches_direct_popcount(self, linkedin_platform, data):
        """Folding facet clauses into the slice mask changes no count."""
        interface = linkedin_platform.interface
        facets = sorted(_linkedin_facets(interface))
        specs = data.draw(
            _linkedin_batches(interface.study_option_ids()[:8], facets)
        )
        direct = [_direct_count(interface, spec) for spec in specs]
        assert interface.prime_counts(specs) == direct
        scale = interface.population.scale
        assert interface.estimate_batch([(spec, {}) for spec in specs]) == [
            interface.rounding.round(count * scale) for count in direct
        ]

    def test_resolution_memo_shared_across_slices(
        self, linkedin_platform, google_platform
    ):
        """Demographic slices of one rule in one request resolve it once.

        Google slices by its gender field; LinkedIn ANDs a gender facet
        clause into the rule, which folds into the slice's mask.  A
        clause mixing a facet with an attribute, and an excluded facet,
        stay part of the rule.
        """
        interface = LinkedInInterface(
            linkedin_platform.population, linkedin_platform.build
        )
        study = interface.study_option_ids()
        rule = TargetingSpec.of(study[7])
        male = interface.demographic_option_id(Gender.MALE)
        female = interface.demographic_option_id(Gender.FEMALE)
        batch = [
            rule.and_option(male),
            rule.and_option(female),
            rule.and_clause([male, study[8]]),
            rule.excluding(male),
        ]
        interface.estimate_batch([(spec, {}) for spec in batch])
        assert interface.resolution_stats() == {"hits": 1, "misses": 3}

        interface = google_platform.display
        spec = TargetingSpec.of(interface.study_option_ids()[7])
        before = interface.resolution_stats()
        interface.estimate_batch(
            [(spec.with_gender(g), {}) for g in (Gender.MALE, Gender.FEMALE)]
        )
        after = interface.resolution_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1


def _same_feature_pair(interface, ids):
    feature = interface.option_entry(ids[0]).feature
    return [i for i in ids if interface.option_entry(i).feature == feature][:2]


#: One invalid item per kind: (interface key, spec builder, objective).
INVALID = {
    "unknown_option": (
        "facebook", lambda i, ids: TargetingSpec.of(ids[0], "fb:no-such-option"),
        None,
    ),
    "non_us_country": (
        "facebook", lambda i, ids: TargetingSpec.of(ids[0], country="FR"), None,
    ),
    "gender_on_linkedin": (
        "linkedin",
        lambda i, ids: TargetingSpec.of(ids[0]).with_gender(Gender.MALE),
        None,
    ),
    "age_on_restricted": (
        "facebook_restricted",
        lambda i, ids: TargetingSpec.of(ids[0]).with_age(AgeRange.AGE_25_34),
        None,
    ),
    "exclusion_on_restricted": (
        "facebook_restricted",
        lambda i, ids: TargetingSpec.of(ids[0]).excluding(ids[1]),
        None,
    ),
    "same_feature_and_on_google": (
        "google",
        lambda i, ids: TargetingSpec.of(*_same_feature_pair(i, ids)),
        None,
    ),
    "rejected_objective": (
        "facebook", lambda i, ids: TargetingSpec.of(ids[0]), "No such goal",
    ),
    "rejected_objective_and_spec": (
        "facebook", lambda i, ids: TargetingSpec.of(ids[0], country="FR"),
        "No such goal",
    ),
}

#: Single-estimate route of each interface (the batch route is the
#: client's ``paths.batch``).
SINGLE_PATHS = {
    "facebook": "/facebook/delivery_estimate",
    "facebook_restricted": "/facebook/special/delivery_estimate",
    "google": "/google/reach_estimate",
}


class TestPerItemErrorParity:
    """An invalid item fails alike alone and among valid batch-mates."""

    @pytest.mark.parametrize("kind", list(INVALID))
    def test_platform_batch_matches_single_calls(
        self, session_small, study_ids, kind
    ):
        key, build, objective = INVALID[kind]
        interface = session_small.suite.interfaces[key]
        ids = study_ids[key]
        bad = build(interface, ids)
        options = {} if objective is None else {"objective": objective}
        neighbours = [TargetingSpec.of(o) for o in ids[2:4]]

        before = interface.query_count
        with pytest.raises(PlatformError) as alone:
            interface.estimate_reach(bad, **options)
        singles = [interface.estimate_reach(s).estimate for s in neighbours]
        single_queries = interface.query_count - before

        before = interface.query_count
        batch = interface.estimate_batch(
            [(neighbours[0], {}), (bad, options), (neighbours[1], {})]
        )
        assert interface.query_count - before == single_queries == 2
        assert [batch[0], batch[2]] == singles
        assert isinstance(batch[1], PlatformError)
        assert error_parts(batch[1]) == error_parts(alone.value)
        if objective is not None:
            assert isinstance(batch[1], CampaignConfigError)

    @pytest.mark.parametrize(
        "kind", [k for k, (key, _, _) in INVALID.items() if key in SINGLE_PATHS]
    )
    def test_routes_answer_alike(self, session_small, study_ids, kind):
        """Same status, kind and message from the single and batch routes."""
        key, build, objective = INVALID[kind]
        interface = session_small.suite.interfaces[key]
        ids = study_ids[key]
        transport = FakeTransport(rate=None)
        mount_suite_routes(transport, session_small.suite)
        if key == "google":
            client = GoogleReachClient(transport)
            bad_client = GoogleReachClient(transport, objective=objective)
        else:
            restricted = key == "facebook_restricted"
            client = FacebookReachClient(transport, restricted=restricted)
            bad_client = FacebookReachClient(
                transport, restricted=restricted, objective=objective or "Reach"
            )
        if objective is None:
            bad_client = client
        [bad] = bad_client._encode_items([build(interface, ids)])
        neighbours = client._encode_items([TargetingSpec.of(o) for o in ids[2:4]])
        envelope = client.codec.envelope

        def post(path, body):
            return transport.request(HttpRequest("POST", path, body, "audit"))

        before = interface.query_count
        alone = post(SINGLE_PATHS[key], bad)
        singles = [post(SINGLE_PATHS[key], body).body for body in neighbours]
        single_queries = interface.query_count - before

        before = interface.query_count
        response = post(
            client.paths.batch,
            envelope.encode_request([neighbours[0], bad, neighbours[1]]),
        )
        assert response.status == 200
        entries = envelope.decode_response(response.body, 3)
        assert interface.query_count - before == single_queries == 2
        assert [entries[0][0], entries[2][0]] == singles
        assert entries[1][0] is None
        assert entries[1][1] == (
            alone.status, alone.body["error"], alone.body.get("kind")
        )
        if objective is not None:
            assert alone.body["kind"] == "CampaignConfigError"


#: Both field maps of the one batch protocol.
ENVELOPES = [
    pytest.param(PLAIN_ENVELOPE, id="plain"),
    pytest.param(GoogleWireCodec.envelope, id="google"),
]


@pytest.mark.parametrize("envelope", ENVELOPES)
class TestBatchEnvelope:
    def test_round_trip(self, envelope):
        items = [{"a": 1}, {"b": 2}]
        request = envelope.encode_request(items)
        assert envelope.decode_request(request) == items
        assert envelope.size(request) == 2
        results = [
            envelope.item_ok({"x": 1}),
            envelope.item_error(400, "nope", "TargetingError"),
            envelope.item_error(422, "too small"),
        ]
        assert envelope.decode_response(
            envelope.encode_response(results), expected=3
        ) == [
            ({"x": 1}, None),
            (None, (400, "nope", "TargetingError")),
            (None, (422, "too small", None)),
        ]

    def test_empty_batch_rejected(self, envelope):
        with pytest.raises(BadRequestError, match="missing or empty"):
            envelope.decode_request(envelope.encode_request([]))
        with pytest.raises(BadRequestError, match="missing or empty"):
            envelope.decode_request({})

    def test_oversized_batch_rejected(self, envelope):
        request = envelope.encode_request([{}] * (MAX_BATCH_SIZE + 1))
        with pytest.raises(BadRequestError, match=str(MAX_BATCH_SIZE)):
            envelope.decode_request(request)

    def test_size_prices_non_batch_bodies_as_one(self, envelope):
        assert envelope.size(None) == envelope.size({}) == 1
        assert envelope.size({envelope.request_key: "abc"}) == 1

    @pytest.mark.parametrize("allow_truncated", [False, True])
    def test_longer_response_rejected(self, envelope, allow_truncated):
        body = envelope.encode_response([envelope.item_ok({})] * 3)
        with pytest.raises(BadRequestError, match="malformed batch response"):
            envelope.decode_response(body, 2, allow_truncated=allow_truncated)

    def test_truncated_response_needs_allow_truncated(self, envelope):
        body = envelope.encode_response([envelope.item_ok({"x": 1})])
        with pytest.raises(BadRequestError, match="malformed batch response"):
            envelope.decode_response(body, 2)
        assert envelope.decode_response(body, 2, allow_truncated=True) == [
            ({"x": 1}, None)
        ]

    @pytest.mark.parametrize("entry", [5, "x", None, [1], {"other": 1}])
    def test_non_entry_rejected(self, envelope, entry):
        body = envelope.encode_response([entry])
        with pytest.raises(BadRequestError, match="malformed batch entry"):
            envelope.decode_response(body, 1)

    @pytest.mark.parametrize(
        "error",
        [
            {"message": "boom"},
            {"status": 503},
            {"status": "503", "message": "boom"},
            {"status": 503.0, "message": "boom"},
            {"status": True, "message": "boom"},
            "boom",
        ],
        ids=[
            "no-status", "no-message", "str-status", "float-status",
            "bool-status", "non-mapping",
        ],
    )
    def test_malformed_error_entry_rejected(self, envelope, error):
        """No retryable 500 is invented for an incomplete error entry."""
        if isinstance(error, dict):
            keys = {"status": envelope.status_key, "message": envelope.message_key}
            error = {keys[field]: value for field, value in error.items()}
        body = envelope.encode_response([{envelope.error_key: error}])
        with pytest.raises(BadRequestError, match="malformed batch error entry"):
            envelope.decode_response(body, 1)


# -- per-envelope codecs -----------------------------------------------------

_OPTION_IDS = [f"x:feat:opt-{i}" for i in range(6)]
_FEATURE_OF = {o: "audiences" if i < 3 else "topics" for i, o in enumerate(_OPTION_IDS)}
_FACET_IDS = ["li:gender:m", "li:gender:f", "li:age:18-24", "li:age:25-34"]
_GOOGLE = GoogleWireCodec(_OPTION_IDS + _FACET_IDS)
_CAP = FrequencyCap(1, "month")

#: Per platform: the codec, its chunk encoder and its one-item encoder
#: under the same client settings.
_CODECS = {
    "facebook": (
        FacebookWireCodec,
        lambda specs: FacebookWireCodec.encode_batch(specs, objective="Reach"),
        lambda spec: FacebookWireCodec.encode_batch([spec], objective="Reach")[0],
    ),
    "google": (
        _GOOGLE,
        lambda specs: _GOOGLE.encode_batch(specs, _FEATURE_OF, _CAP, "Brand"),
        lambda spec: _GOOGLE.encode_batch([spec], _FEATURE_OF, _CAP, "Brand")[0],
    ),
    "linkedin": (
        LinkedInWireCodec,
        LinkedInWireCodec.encode_batch,
        lambda spec: LinkedInWireCodec.encode_batch([spec])[0],
    ),
}

_FB_GEO = {"geo_locations": {"countries": ["US"]}}

#: Per platform, bodies whose one-item decode raises, several of them
#: next to a valid item's gender, age or clause codes so that an
#: envelope memo filled by a valid item must not answer them.
_MALFORMED = {
    "facebook": [
        {},
        {"targeting_spec": {**_FB_GEO, "genders": []}},
        {"targeting_spec": {**_FB_GEO, "genders": [1, 9]}},
        {"targeting_spec": {**_FB_GEO, "genders": 1}},
        {"targeting_spec": {**_FB_GEO, "genders": "1"}},
        {"targeting_spec": {**_FB_GEO, "age_ranges": [[18, 24], [1, 2]]}},
        {"targeting_spec": {**_FB_GEO, "age_ranges": [18]}},
        {"targeting_spec": {**_FB_GEO, "flexible_spec": [{"interests": []}]}},
        {"targeting_spec": {**_FB_GEO, "exclusions": {"interests": "ab"}}},
    ],
    "google": [
        {"1": 999},
        {"1": 840, "2": []},
        {"1": 840, "2": [10, "x"]},
        {"1": 840, "2": "1"},
        {"1": 840, "3": [503001, 1]},
        {"1": 840, "4": {"201": [[criterion_id("x:feat:unknown")]]}},
        {"1": 840, "4": {"201": [[]]}},
        {"1": 840, "4": {"299": [[criterion_id(_OPTION_IDS[0])]]}},
        {"1": 840, "5": {"1": 0, "2": 3}},
        {"1": 840, "5": {"1": 1}},
    ],
    "linkedin": [
        {"locations": ["US"]},
        {"locations": ["US"], "include": {"and": [{"or": ["li:no-urn"]}]}},
        {"locations": ["US"], "include": {"and": [{"or": []}]}},
        {"locations": ["US"], "include": {"and": []}, "exclude": {"or": ["x"]}},
    ],
}


@st.composite
def _sliced_specs(draw, platform):
    """1-64 specs: a few rules, each under several demographic slices.

    Facebook and Google slice by their gender and age fields, LinkedIn
    by ANDing a facet clause; Google clauses stay within one feature.
    """
    if platform == "google":
        clause = st.sampled_from([_OPTION_IDS[:3], _OPTION_IDS[3:]]).flatmap(
            lambda ids: st.sets(st.sampled_from(ids), min_size=1, max_size=2)
        )
    else:
        clause = st.sets(st.sampled_from(_OPTION_IDS), min_size=1, max_size=3)
    rules = draw(
        st.lists(
            st.tuples(
                st.lists(clause, max_size=3),
                st.sets(st.sampled_from(_OPTION_IDS), max_size=2),
            ),
            min_size=1,
            max_size=4,
        )
    )
    sliced = []
    for clauses, excluded in rules:
        rule = TargetingSpec.and_of_ors([sorted(c) for c in clauses])
        if platform != "google" and excluded:
            rule = rule.excluding(*excluded)
        if platform == "linkedin":
            sliced += [rule] + [rule.and_option(f) for f in _FACET_IDS]
            sliced.append(rule.and_clause(_FACET_IDS[2:]))
        else:
            sliced += [rule] + [rule.with_gender(g) for g in Gender]
            sliced += [rule.with_age(a) for a in AgeRange]
            sliced.append(rule.with_gender(Gender.MALE).with_ages(list(AgeRange)[1:]))
    return draw(st.lists(st.sampled_from(sliced), min_size=1, max_size=MAX_BATCH_SIZE))


def _json(value) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("platform", sorted(_CODECS))
class TestEnvelopeCodecs:
    """A chunk encoded or decoded at once equals its items one by one."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_chunk_encode_matches_per_item_bodies(self, platform, data):
        codec, encode_batch, encode_one = _CODECS[platform]
        specs = data.draw(_sliced_specs(platform))
        envelope = codec.envelope
        assert _json(envelope.encode_request(encode_batch(specs))) == _json(
            envelope.encode_request([encode_one(spec) for spec in specs])
        )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_pending_subset_reencodes_to_the_same_bytes(self, platform, data):
        """Partial retry re-encodes the pending items alone."""
        _, encode_batch, _ = _CODECS[platform]
        specs = data.draw(_sliced_specs(platform))
        pending = data.draw(
            st.lists(st.sampled_from(range(len(specs))), min_size=1, unique=True)
        )
        pending.sort()
        full = encode_batch(specs)
        assert _json(encode_batch([specs[i] for i in pending])) == _json(
            [full[i] for i in pending]
        )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mixed_envelope_decodes_like_one_item_decodes(self, platform, data):
        codec, encode_batch, _ = _CODECS[platform]
        specs = data.draw(_sliced_specs(platform))
        bodies = encode_batch(specs)
        malformed = data.draw(
            st.lists(st.sampled_from(_MALFORMED[platform]), max_size=8)
        )
        for body in malformed:
            bodies.insert(data.draw(st.integers(0, len(bodies))), body)
        decoded = codec.decode_batch(bodies)
        assert len(decoded) == len(bodies)
        for body, item in zip(bodies, decoded):
            [alone] = codec.decode_batch([body])
            if isinstance(alone, PlatformError):
                assert type(item) is type(alone) and str(item) == str(alone)
            else:
                assert item == alone
        # Google groups criteria by feature, so clause order may differ.
        valid = [item for item in decoded if not isinstance(item, PlatformError)]
        assert [_unordered(spec) for spec, _ in valid] == [
            _unordered(spec) for spec in specs
        ]


def _unordered(spec: TargetingSpec) -> tuple:
    return (
        spec.genders,
        spec.age_ranges,
        sorted(sorted(clause) for clause in spec.clauses),
        spec.exclusions,
    )
