"""Tests for the AuditTarget measurement engine.

The ground-truth checks run against the *exact-rounding* session so the
representation ratios measured through the whole stack (audit ->
client -> wire -> transport -> interface -> bitsets) can be compared
with ratios computed directly from the population internals.
"""

from __future__ import annotations

import math

import pytest

from repro.core.audit import build_audit_targets
from repro.core.checkpoint import EstimateCheckpoint
from repro.platforms.errors import UnsupportedCompositionError
from repro.platforms.targeting import TargetingSpec
from repro.population.demographics import (
    SENSITIVE_ATTRIBUTES,
    AgeRange,
    Gender,
)

GENDER = SENSITIVE_ATTRIBUTES["gender"]
AGE = SENSITIVE_ATTRIBUTES["age"]


class TestStudyOptions:
    def test_counts(self, session_small):
        targets = session_small.targets
        assert len(targets["facebook_restricted"].study_option_ids()) == 393
        assert len(targets["facebook"].study_option_ids()) == 667
        assert len(targets["google"].study_option_ids()) == 3297
        assert len(targets["linkedin"].study_option_ids()) == 552

    def test_linkedin_demographics_excluded_from_study(self, session_small):
        ids = session_small.targets["linkedin"].study_option_ids()
        assert not any("demographics" in i for i in ids)


class TestComposition:
    def test_facebook_can_compose_any_pair(self, session_small):
        target = session_small.targets["facebook"]
        a, b = target.study_option_ids()[:2]
        assert target.can_compose((a, b))
        assert not target.can_compose((a, a))

    def test_google_cross_feature_only(self, session_small):
        target = session_small.targets["google"]
        options = target.study_options()
        audiences = [o.option_id for o in options if o.feature == "audiences"]
        topics = [o.option_id for o in options if o.feature == "topics"]
        assert target.can_compose((audiences[0], topics[0]))
        assert not target.can_compose((audiences[0], audiences[1]))

    def test_uncomposable_raises(self, session_small):
        target = session_small.targets["google"]
        audiences = [
            o.option_id
            for o in target.study_options()
            if o.feature == "audiences"
        ]
        with pytest.raises(UnsupportedCompositionError):
            target.composition_spec(audiences[:2])


class TestBaseSizes:
    def test_gender_bases_cover_population(self, session_exact):
        target = session_exact.targets["facebook"]
        bases = target.base_sizes(GENDER)
        total = target.measure(TargetingSpec.everyone())
        assert sum(bases.values()) == pytest.approx(total, rel=0.01)

    def test_linkedin_bases_via_facets(self, session_exact):
        target = session_exact.targets["linkedin"]
        bases = target.base_sizes(AGE)
        total = target.measure(TargetingSpec.everyone())
        assert sum(bases.values()) == pytest.approx(total, rel=0.01)


class TestAuditGroundTruth:
    """Measured ratios equal ratios computed from the raw population."""

    def _direct_ratio(self, population, option_ids, value):
        index = population.index
        vec = None
        for option_id in option_ids:
            attr = index.attribute(option_id)
            vec = attr if vec is None else (vec & attr)
        group = index.demographic(value)
        other = ~group
        share_in = vec.intersect_count(group) / group.count()
        share_out = vec.intersect_count(other) / other.count()
        return share_in / share_out if share_out else math.inf

    def test_facebook_individual(self, session_exact):
        target = session_exact.targets["facebook"]
        option = "fb:interests:interests--electrical-engineering"
        measured = target.audit((option,), GENDER).ratio(Gender.MALE)
        direct = self._direct_ratio(
            session_exact.suite.facebook.population, [option], Gender.MALE
        )
        assert measured == pytest.approx(direct, rel=1e-6)

    def test_facebook_composition(self, session_exact):
        target = session_exact.targets["facebook"]
        options = (
            "fb:interests:interests--electrical-engineering",
            "fb:interests:interests--cars",
        )
        measured = target.audit(options, GENDER).ratio(Gender.MALE)
        direct = self._direct_ratio(
            session_exact.suite.facebook.population, options, Gender.MALE
        )
        assert measured == pytest.approx(direct, rel=1e-6)

    def test_restricted_measures_via_normal_interface(self, session_exact):
        """The restricted target must agree with the normal target on the
        shared population even though the restricted interface cannot
        target demographics itself."""
        restricted = session_exact.targets["facebook_restricted"]
        normal = session_exact.targets["facebook"]
        option = restricted.study_option_ids()[0]
        r1 = restricted.audit((option,), GENDER).ratio(Gender.MALE)
        r2 = normal.audit((option,), GENDER).ratio(Gender.MALE)
        assert r1 == pytest.approx(r2)

    def test_linkedin_age_audit(self, session_exact):
        target = session_exact.targets["linkedin"]
        option = target.study_option_ids()[0]
        measured = target.audit((option,), AGE).ratio(AgeRange.AGE_55_PLUS)
        direct = self._direct_ratio(
            session_exact.suite.linkedin.population,
            [option],
            AgeRange.AGE_55_PLUS,
        )
        assert measured == pytest.approx(direct, rel=1e-6)


class TestCachingAndAccounting:
    def test_measure_is_cached(self, session_small):
        target = session_small.targets["facebook"]
        spec = TargetingSpec.of(target.study_option_ids()[5])
        before_cache = len(target.cached_estimates())
        target.measure(spec, Gender.MALE)
        mid_requests = target.client.transport.total_requests
        target.measure(spec, Gender.MALE)
        assert target.client.transport.total_requests == mid_requests
        assert len(target.cached_estimates()) >= before_cache + 1

    def test_cached_estimates_exposed(self, session_small):
        target = build_audit_targets(session_small.clients)["facebook"]
        store = EstimateCheckpoint()
        target.attach_checkpoint(store)
        everyone = TargetingSpec.everyone()
        estimate = target.measure(everyone)
        male = target.measure(everyone, Gender.MALE)
        assert sorted(target.cached_estimates()) == sorted([estimate, male])
        # One estimate per spec sent, wherever the cache keeps it.
        assert sorted(target.cached_estimates()) == sorted(
            store.shard("facebook").values()
        )

    def test_gender_complement_reads_the_other_column(self, session_small):
        target = build_audit_targets(session_small.clients)["facebook"]
        options = tuple(target.study_option_ids()[:2])
        audit = target.audit(options, GENDER)
        spec = target.composition_spec(options)
        held = len(target.cached_estimates())
        hits, requests = target.cache_hits, target.client.transport.total_requests
        excluded = target.measure(spec, Gender.MALE, exclude=True)
        assert excluded == audit.sizes[Gender.FEMALE]
        assert target.client.transport.total_requests == requests
        assert target.cache_hits == hits + 1
        assert len(target.cached_estimates()) == held


class TestDemographicSpecs:
    def test_exclude_gender_is_other_gender(self, session_exact):
        target = session_exact.targets["facebook"]
        spec = TargetingSpec.everyone()
        excl = target.measure(spec, Gender.MALE, exclude=True)
        female = target.measure(spec, Gender.FEMALE)
        assert excl == female

    def test_exclude_age_sums_complement(self, session_exact):
        target = session_exact.targets["facebook"]
        spec = TargetingSpec.everyone()
        excl = target.measure(spec, AgeRange.AGE_18_24, exclude=True)
        parts = sum(
            target.measure(spec, a)
            for a in AgeRange
            if a is not AgeRange.AGE_18_24
        )
        assert excl == pytest.approx(parts, rel=0.01)

    def test_linkedin_exclude_via_or_facets(self, session_exact):
        target = session_exact.targets["linkedin"]
        spec = TargetingSpec.everyone()
        excl = target.measure(spec, AgeRange.AGE_55_PLUS, exclude=True)
        incl = target.measure(spec, AgeRange.AGE_55_PLUS)
        total = target.measure(spec)
        assert excl + incl == pytest.approx(total, rel=0.01)

    @pytest.mark.parametrize("key", ["facebook", "google", "linkedin"])
    def test_spec_restricting_the_sliced_attribute_is_refused(
        self, session_small, key
    ):
        """A female-only spec sliced as male would size the plain male
        audience on Facebook and Google and nobody on LinkedIn; all
        three refuse it before sending anything."""
        target = build_audit_targets(session_small.clients)[key]
        option = target.study_option_ids()[0]
        female = TargetingSpec(
            genders=[Gender.FEMALE], clauses=TargetingSpec.of(option).clauses
        )
        young = TargetingSpec.of(option).with_age(AgeRange.AGE_18_24)
        requests = target.client.transport.total_requests
        with pytest.raises(ValueError, match="already restricts"):
            target.measure(female, Gender.MALE)
        with pytest.raises(ValueError, match="already restricts"):
            target.measure(young, AgeRange.AGE_55_PLUS, exclude=True)
        assert target.client.transport.total_requests == requests
        assert target.cached_estimates() == []

    def test_gender_and_age_values_do_not_collide(self, session_exact):
        """Gender.MALE and AgeRange.AGE_18_24 share the raw IntEnum value
        0; the measurement layer must still treat them differently."""
        target = session_exact.targets["linkedin"]
        spec = TargetingSpec.everyone()
        male = target.measure(spec, Gender.MALE)
        young = target.measure(spec, AgeRange.AGE_18_24)
        assert male != young


class TestIntersectionSize:
    def test_google_unsupported(self, session_small):
        target = session_small.targets["google"]
        assert not target.supports_boolean_rules
        options = target.study_option_ids()[:1]
        with pytest.raises(UnsupportedCompositionError):
            target.intersection_size([options])

    def test_intersection_matches_ground_truth(self, session_exact):
        target = session_exact.targets["facebook"]
        population = session_exact.suite.facebook.population
        ids = target.study_option_ids()
        comp_a, comp_b = (ids[0], ids[1]), (ids[2], ids[3])
        measured = target.intersection_size([comp_a, comp_b])
        index = population.index
        vec = (
            index.attribute(ids[0])
            & index.attribute(ids[1])
            & index.attribute(ids[2])
            & index.attribute(ids[3])
        )
        assert measured == pytest.approx(population.users(vec))
