"""Tests for custom, pixel, lookalike, and special ad audiences."""

from __future__ import annotations

import numpy as np
import pytest

from repro.platforms.audiences import (
    MIN_MATCHED_USERS,
    TrackingPixel,
)
from repro.platforms.errors import TargetingError, UnknownOptionError
from repro.platforms.targeting import TargetingSpec
from repro.population.demographics import Gender


@pytest.fixture()
def fb(fb_platform):
    return fb_platform


@pytest.fixture()
def service(fb):
    return fb.audiences


def male_factor(fb) -> int:
    return int(np.argmax(fb.model.factor_gender_shift))


class TestCustomAudiences:
    def test_create_from_pii(self, fb, service):
        uploads = list(service.pii.records(range(500)))
        audience = service.create_custom_audience("customers", uploads)
        assert audience.kind == "pii"
        assert audience.matched_count == 500
        assert audience.members.count() == 500

    def test_minimum_enforced(self, service):
        uploads = list(service.pii.records(range(MIN_MATCHED_USERS - 1)))
        with pytest.raises(TargetingError):
            service.create_custom_audience("tiny", uploads)

    def test_targetable_on_both_interfaces(self, fb, service):
        uploads = list(service.pii.records(range(300)))
        audience = service.create_custom_audience("both", uploads)
        spec = TargetingSpec.of(audience.audience_id)
        assert fb.normal.estimate_reach(spec).estimate >= 0
        assert fb.restricted.estimate_reach(spec).estimate >= 0

    def test_composes_with_attributes(self, fb, service):
        uploads = list(service.pii.records(range(1000)))
        audience = service.create_custom_audience("compose", uploads)
        attr = fb.normal.study_option_ids()[0]
        spec = TargetingSpec.of(audience.audience_id, attr)
        assert fb.normal.exact_users(spec) <= fb.normal.exact_users(
            TargetingSpec.of(audience.audience_id)
        )

    def test_unknown_audience_rejected(self, fb):
        with pytest.raises(UnknownOptionError):
            fb.normal.estimate_reach(TargetingSpec.of("audience:fb:pii:9999"))

    def test_registry(self, service):
        uploads = list(service.pii.records(range(200)))
        audience = service.create_custom_audience("registry", uploads)
        assert service.get(audience.audience_id) is audience
        assert len(service) >= 1


class TestPixelAudiences:
    def test_visitors_realised(self, fb, service):
        pixel = TrackingPixel(pixel_id="shop", base_logit=-2.0)
        audience = service.create_pixel_audience("visitors", pixel, seed=1)
        assert audience.kind == "pixel"
        assert 0 < audience.matched_count < fb.population.n_records

    def test_direction_biases_gender(self, fb, service):
        pixel = TrackingPixel(
            pixel_id="mens-shop",
            base_logit=-2.5,
            direction={male_factor(fb): 1.5},
        )
        audience = service.create_pixel_audience("male site", pixel, seed=1)
        members = audience.members
        males = fb.population.index.gender(Gender.MALE)
        females = fb.population.index.gender(Gender.FEMALE)
        male_rate = members.intersect_count(males) / males.count()
        female_rate = members.intersect_count(females) / females.count()
        assert male_rate > female_rate

    def test_attribute_boost(self, fb, service):
        attr = fb.normal.study_option_ids()[0]
        pixel = TrackingPixel(
            pixel_id="niche", base_logit=-4.0, attribute_boosts={attr: 3.0}
        )
        audience = service.create_pixel_audience("boosted", pixel, seed=1)
        holders = fb.population.index.attribute(attr)
        inside = audience.members.intersect_count(holders) / holders.count()
        outside_vec = audience.members.difference(holders)
        outside = outside_vec.count() / (
            fb.population.n_records - holders.count()
        )
        assert inside > outside

    def test_deterministic_in_seed(self, service):
        pixel = TrackingPixel(pixel_id="det", base_logit=-2.0)
        a = service.create_pixel_audience("a", pixel, seed=9)
        b = service.create_pixel_audience("b", pixel, seed=9)
        assert a.members == b.members


class TestLookalikes:
    def _seed_audience(self, fb, service):
        pixel = TrackingPixel(
            pixel_id="seed-site",
            base_logit=-3.0,
            direction={male_factor(fb): 1.2},
        )
        return service.create_pixel_audience("seed", pixel, seed=2)

    def test_lookalike_size(self, fb, service):
        seed = self._seed_audience(fb, service)
        lookalike = service.create_lookalike("lal", seed, target_fraction=0.02)
        assert lookalike.members.count() == int(fb.population.n_records * 0.02)

    def test_lookalike_excludes_seed(self, fb, service):
        seed = self._seed_audience(fb, service)
        lookalike = service.create_lookalike("lal2", seed)
        assert lookalike.members.intersect_count(seed.members) == 0

    def test_lookalike_inherits_skew(self, fb, service):
        seed = self._seed_audience(fb, service)
        lookalike = service.create_lookalike("lal3", seed, target_fraction=0.02)
        males = fb.population.index.gender(Gender.MALE)
        females = fb.population.index.gender(Gender.FEMALE)
        male_rate = lookalike.members.intersect_count(males) / males.count()
        female_rate = lookalike.members.intersect_count(females) / females.count()
        assert male_rate > female_rate

    def test_lookalike_not_on_restricted(self, fb, service):
        seed = self._seed_audience(fb, service)
        lookalike = service.create_lookalike("lal4", seed)
        spec = TargetingSpec.of(lookalike.audience_id)
        assert fb.normal.estimate_reach(spec).estimate >= 0
        with pytest.raises(UnknownOptionError):
            fb.restricted.estimate_reach(spec)

    def test_special_ad_audience_on_restricted(self, fb, service):
        seed = self._seed_audience(fb, service)
        special = service.create_special_ad_audience("saa", seed)
        spec = TargetingSpec.of(special.audience_id)
        assert fb.restricted.estimate_reach(spec).estimate >= 0

    def test_special_ad_less_skewed_than_lookalike(self, fb, service):
        seed = self._seed_audience(fb, service)
        lookalike = service.create_lookalike("lal5", seed, target_fraction=0.02)
        special = service.create_special_ad_audience(
            "saa2", seed, target_fraction=0.02
        )
        males = fb.population.index.gender(Gender.MALE)

        def male_share(audience):
            return audience.members.intersect_count(males) / max(
                audience.members.count(), 1
            )

        assert male_share(special) <= male_share(lookalike)

    def test_empty_seed_rejected(self, fb, service):
        from repro.platforms.audiences import CustomAudience
        from repro.population.bitsets import BitVector

        empty = CustomAudience(
            audience_id="audience:fb:pii:0",
            name="empty",
            kind="pii",
            members=BitVector.zeros(fb.population.n_records),
            matched_count=0,
        )
        with pytest.raises(TargetingError):
            service.create_lookalike("nope", empty)

    def test_fraction_validated(self, fb, service):
        seed = self._seed_audience(fb, service)
        with pytest.raises(ValueError):
            service.create_lookalike("big", seed, target_fraction=0.5)


class TestAudienceRegistration:
    def test_bad_id_rejected(self, fb):
        from repro.population.bitsets import BitVector

        with pytest.raises(ValueError):
            fb.normal.register_audience(
                "not-an-audience", BitVector.zeros(fb.population.n_records)
            )

    def test_population_mismatch_rejected(self, fb):
        from repro.population.bitsets import BitVector

        with pytest.raises(ValueError):
            fb.normal.register_audience(
                "audience:fb:pii:77", BitVector.zeros(13)
            )

    def test_google_audience_is_own_feature(self, google_platform):
        """A custom audience AND a Google audience attribute is a valid
        cross-feature composition."""
        service = google_platform.audiences
        uploads = list(service.pii.records(range(300)))
        audience = service.create_custom_audience("gcm", uploads)
        catalog = google_platform.display.catalog
        attr = next(e.option_id for e in catalog.entries if e.feature == "audiences")
        spec = TargetingSpec.of(audience.audience_id, attr)
        assert google_platform.display.estimate_reach(spec).estimate >= 0
