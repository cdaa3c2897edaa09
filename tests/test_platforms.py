"""Tests for the platform interfaces (validation, resolution, estimates)."""

from __future__ import annotations

import pytest

from repro.platforms.errors import (
    CampaignConfigError,
    DisallowedTargetingError,
    ExclusionNotAllowedError,
    NoSizeEstimateError,
    TargetingError,
    UnknownOptionError,
    UnsupportedCompositionError,
)
from repro.platforms.google import MOST_RESTRICTIVE_CAP, FrequencyCap
from repro.platforms.targeting import TargetingSpec
from repro.population.demographics import AgeRange, Gender


def feature_ids(catalog, feature):
    """Option ids of one targeting feature, in catalog order."""
    return [e.option_id for e in catalog.entries if e.feature == feature]


class TestFacebookNormal:
    def test_estimate_everyone(self, fb_platform):
        est = fb_platform.normal.estimate_reach(TargetingSpec.everyone())
        assert est.estimate > 0
        assert est.unit == "users"

    def test_gender_targeting_partitions(self, fb_platform):
        fb = fb_platform.normal
        total = fb.exact_users(TargetingSpec.everyone())
        male = fb.exact_users(TargetingSpec.everyone().with_gender(Gender.MALE))
        female = fb.exact_users(
            TargetingSpec.everyone().with_gender(Gender.FEMALE)
        )
        assert male + female == pytest.approx(total)

    def test_age_targeting_partitions(self, fb_platform):
        fb = fb_platform.normal
        total = fb.exact_users(TargetingSpec.everyone())
        parts = sum(
            fb.exact_users(TargetingSpec.everyone().with_age(a)) for a in AgeRange
        )
        assert parts == pytest.approx(total)

    def test_unknown_option_rejected(self, fb_platform):
        with pytest.raises(UnknownOptionError):
            fb_platform.normal.estimate_reach(TargetingSpec.of("fb:nope"))

    def test_non_us_rejected(self, fb_platform):
        with pytest.raises(TargetingError):
            fb_platform.normal.estimate_reach(TargetingSpec.everyone("FR"))

    def test_bad_objective_rejected(self, fb_platform):
        with pytest.raises(CampaignConfigError):
            fb_platform.normal.estimate_reach(
                TargetingSpec.everyone(), objective="World domination"
            )

    def test_and_shrinks_audience(self, fb_platform):
        fb = fb_platform.normal
        ids = fb.study_option_ids()[:2]
        single = fb.exact_users(TargetingSpec.of(ids[0]))
        pair = fb.exact_users(TargetingSpec.of(*ids))
        assert pair <= single

    def test_or_grows_audience(self, fb_platform):
        fb = fb_platform.normal
        ids = fb.study_option_ids()[:2]
        single = fb.exact_users(TargetingSpec.of(ids[0]))
        union = fb.exact_users(TargetingSpec.and_of_ors([ids]))
        assert union >= single

    def test_exclusion_removes_users(self, fb_platform):
        fb = fb_platform.normal
        ids = fb.study_option_ids()[:2]
        base = fb.exact_users(TargetingSpec.of(ids[0]))
        excluded = fb.exact_users(TargetingSpec.of(ids[0]).excluding(ids[1]))
        assert excluded <= base

    def test_estimates_are_rounded(self, fb_platform):
        est = fb_platform.normal.estimate_reach(TargetingSpec.everyone())
        assert est.estimate == fb_platform.normal.rounding.round(
            fb_platform.normal.exact_users(TargetingSpec.everyone())
        )

    def test_free_form_search_realises(self, fb_platform):
        matches = fb_platform.normal.search("Marie Claire")
        assert any(m.option_id == "fb:freeform:marie-claire" for m in matches)
        est = fb_platform.normal.estimate_reach(
            TargetingSpec.of("fb:freeform:marie-claire")
        )
        assert est.estimate > 0

    def test_query_count_increments(self, fb_platform):
        before = fb_platform.normal.query_count
        fb_platform.normal.estimate_reach(TargetingSpec.everyone())
        assert fb_platform.normal.query_count == before + 1


class TestFacebookRestricted:
    def test_catalog_is_restricted_subset(self, fb_platform):
        normal_ids = set(fb_platform.normal.catalog.ids())
        restricted_ids = set(fb_platform.restricted.catalog.ids())
        assert len(restricted_ids) == 393
        assert restricted_ids <= normal_ids

    def test_gender_targeting_rejected(self, fb_platform):
        with pytest.raises(DisallowedTargetingError):
            fb_platform.restricted.estimate_reach(
                TargetingSpec.everyone().with_gender(Gender.MALE)
            )

    def test_age_targeting_rejected(self, fb_platform):
        with pytest.raises(DisallowedTargetingError):
            fb_platform.restricted.estimate_reach(
                TargetingSpec.everyone().with_age(AgeRange.AGE_18_24)
            )

    def test_exclusions_rejected(self, fb_platform):
        ids = fb_platform.restricted.study_option_ids()[:2]
        with pytest.raises(ExclusionNotAllowedError):
            fb_platform.restricted.estimate_reach(
                TargetingSpec.of(ids[0]).excluding(ids[1])
            )

    def test_excluded_options_unknown(self, fb_platform):
        normal_only = set(fb_platform.normal.catalog.ids()) - set(
            fb_platform.restricted.catalog.ids()
        )
        some = next(iter(normal_only))
        with pytest.raises(UnknownOptionError):
            fb_platform.restricted.estimate_reach(TargetingSpec.of(some))

    def test_same_population_as_normal(self, fb_platform):
        spec = TargetingSpec.of(fb_platform.restricted.study_option_ids()[0])
        assert fb_platform.restricted.exact_users(spec) == pytest.approx(
            fb_platform.normal.exact_users(spec)
        )


class TestGoogleDisplay:
    def test_cross_feature_and_allowed(self, google_platform):
        g = google_platform.display
        audience = feature_ids(g.catalog, "audiences")[0]
        topic = feature_ids(g.catalog, "topics")[0]
        est = g.estimate_reach(TargetingSpec.of(audience, topic))
        assert est.unit == "impressions"

    def test_same_feature_and_rejected(self, google_platform):
        g = google_platform.display
        a1, a2 = feature_ids(g.catalog, "audiences")[:2]
        with pytest.raises(UnsupportedCompositionError):
            g.estimate_reach(TargetingSpec.of(a1, a2))

    def test_same_feature_or_allowed(self, google_platform):
        g = google_platform.display
        a1, a2 = feature_ids(g.catalog, "audiences")[:2]
        est = g.estimate_reach(TargetingSpec.and_of_ors([[a1, a2]]))
        assert est.estimate >= 0

    def test_mixed_feature_clause_rejected(self, google_platform):
        g = google_platform.display
        audience = feature_ids(g.catalog, "audiences")[0]
        topic = feature_ids(g.catalog, "topics")[0]
        with pytest.raises(UnsupportedCompositionError):
            g.estimate_reach(TargetingSpec.and_of_ors([[audience, topic]]))

    def test_frequency_cap_scales_impressions(self, google_platform):
        g = google_platform.display
        spec = TargetingSpec.everyone()
        uncapped = g.estimate_reach(spec)
        capped = g.estimate_reach(spec, frequency_cap=MOST_RESTRICTIVE_CAP)
        assert uncapped.estimate > capped.estimate
        # Most restrictive cap: impressions ~= users.
        users = g.exact_users(spec)
        assert capped.estimate == g.rounding.round(users)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            FrequencyCap(impressions=0)
        with pytest.raises(ValueError):
            FrequencyCap(impressions=1, per="fortnight")
        assert FrequencyCap(2, "week").monthly_equivalent == pytest.approx(8.7)

    def test_exclusions_rejected(self, google_platform):
        g = google_platform.display
        ids = feature_ids(g.catalog, "audiences")[:2]
        with pytest.raises(ExclusionNotAllowedError):
            g.estimate_reach(TargetingSpec.of(ids[0]).excluding(ids[1]))


class TestGoogleSearchCampaign:
    def test_boolean_combos_accepted_but_no_size(self, google_platform):
        search = google_platform.search_campaign
        a1, a2 = feature_ids(search.catalog, "audiences")[:2]
        with pytest.raises(NoSizeEstimateError):
            search.estimate_reach(TargetingSpec.of(a1, a2))

    def test_invalid_targeting_still_rejected(self, google_platform):
        search = google_platform.search_campaign
        with pytest.raises(UnknownOptionError):
            search.estimate_reach(TargetingSpec.of("g:nope"))


class TestLinkedIn:
    def test_no_demographic_fields(self, linkedin_platform):
        li = linkedin_platform.interface
        with pytest.raises(DisallowedTargetingError):
            li.estimate_reach(TargetingSpec.everyone().with_gender(Gender.MALE))

    def test_demographics_as_detailed_attributes(self, linkedin_platform):
        li = linkedin_platform.interface
        male_id = li.demographic_option_id(Gender.MALE)
        female_id = li.demographic_option_id(Gender.FEMALE)
        male = li.exact_users(TargetingSpec.of(male_id))
        female = li.exact_users(TargetingSpec.of(female_id))
        total = li.exact_users(TargetingSpec.everyone())
        assert male + female == pytest.approx(total)

    def test_age_facets_cover_population(self, linkedin_platform):
        li = linkedin_platform.interface
        total = li.exact_users(TargetingSpec.everyone())
        parts = sum(
            li.exact_users(TargetingSpec.of(li.demographic_option_id(a)))
            for a in AgeRange
        )
        assert parts == pytest.approx(total)

    def test_and_of_ors(self, linkedin_platform):
        li = linkedin_platform.interface
        ids = li.study_option_ids()[:3]
        est = li.estimate_reach(
            TargetingSpec.and_of_ors([[ids[0], ids[1]], [ids[2]]])
        )
        assert est.estimate >= 0

    def test_demographic_option_lookup_error(self, linkedin_platform):
        with pytest.raises(KeyError):
            linkedin_platform.interface.demographic_option_id(
                "toddler"  # type: ignore[arg-type]
            )

    def test_estimate_floor(self, linkedin_platform):
        li = linkedin_platform.interface
        ids = li.study_option_ids()
        # AND of many unrelated attributes -> empty audience -> 0 (below 300).
        spec = TargetingSpec.of(*ids[:6])
        assert li.estimate_reach(spec).estimate == 0
