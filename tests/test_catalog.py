"""Tests for catalog construction (counts, curated entries, restricted list)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.platforms.catalog import (
    FACEBOOK_NORMAL_COUNT,
    FACEBOOK_RESTRICTED_COUNT,
    GOOGLE_ATTRIBUTE_COUNT,
    GOOGLE_TOPIC_COUNT,
    LINKEDIN_COUNT,
    Catalog,
    CatalogEntry,
    build_facebook_universe,
    build_google_universe,
    build_linkedin_universe,
)
from repro.population.calibration import get_calibration
from repro.population.demographics import AgeRange, Gender
from repro.population.model import default_model


@pytest.fixture(scope="module")
def fb_build():
    return build_facebook_universe(get_calibration("facebook"), default_model())


@pytest.fixture(scope="module")
def google_build():
    return build_google_universe(get_calibration("google"), default_model())


@pytest.fixture(scope="module")
def linkedin_build():
    return build_linkedin_universe(get_calibration("linkedin"), default_model())


class TestCatalogClass:
    def test_duplicate_ids_rejected(self):
        entry = CatalogEntry("x:1", "f", "C", "N")
        with pytest.raises(ValueError):
            Catalog((entry, entry))

    def test_lookups(self):
        entry = CatalogEntry("x:1", "f", "Cat", "Name")
        catalog = Catalog((entry,))
        assert catalog.get("x:1").display == "Cat — Name"
        assert "x:1" in catalog
        assert catalog.ids() == ["x:1"]
        assert catalog.names() == {"x:1": "Cat — Name"}

    def test_search_case_insensitive(self):
        catalog = Catalog((CatalogEntry("x:1", "f", "Cat", "Electrical"),))
        assert catalog.search("electrical")
        assert not catalog.search("plumbing")

    def test_subset_preserves_order(self):
        entries = tuple(
            CatalogEntry(f"x:{i}", "f", "C", f"N{i}") for i in range(5)
        )
        catalog = Catalog(entries)
        sub = catalog.subset(["x:3", "x:1"])
        assert sub.ids() == ["x:1", "x:3"]


class TestFacebookUniverse:
    def test_counts_match_paper(self, fb_build):
        assert len(fb_build.catalog) == FACEBOOK_NORMAL_COUNT
        assert len(fb_build.restricted_ids) == FACEBOOK_RESTRICTED_COUNT

    def test_restricted_subset_of_normal(self, fb_build):
        ids = set(fb_build.catalog.ids())
        assert set(fb_build.restricted_ids) <= ids

    def test_curated_examples_present(self, fb_build):
        names = set(fb_build.catalog.names().values())
        assert "Interests — Electrical engineering" in names
        assert "Interests — Cars" in names
        assert "Relationship Status — Widowed" in names

    def test_curated_restricted_entries_in_restricted_list(self, fb_build):
        restricted = set(fb_build.restricted_ids)
        assert "fb:interests:interests--electrical-engineering" in restricted
        assert "fb:interests:interests--reverse-mortgage" in restricted

    def test_sensitive_categories_not_in_restricted_bulk(self, fb_build):
        restricted = fb_build.catalog.subset(fb_build.restricted_ids)
        categories = {e.category for e in restricted}
        # Curated restricted entries are all Interests; sensitive bulk
        # categories must not leak in.
        assert "Relationship Status" not in categories
        assert "Politics (US)" not in categories

    def test_free_form_attributes_exist(self, fb_build):
        assert "fb:freeform:marie-claire" in fb_build.searchable_specs
        entry = fb_build.searchable_entries["fb:freeform:marie-claire"]
        assert entry.free_form

    def test_specs_match_catalog(self, fb_build):
        assert {s.attr_id for s in fb_build.specs} == set(fb_build.catalog.ids())

    def test_unique_display_names(self, fb_build):
        names = [e.display for e in fb_build.catalog]
        assert len(names) == len(set(names))

    def test_deterministic(self, fb_build):
        again = build_facebook_universe(
            get_calibration("facebook"), default_model()
        )
        assert again.catalog.ids() == fb_build.catalog.ids()
        assert again.restricted_ids == fb_build.restricted_ids
        assert [s.beta_gender for s in again.specs] == [
            s.beta_gender for s in fb_build.specs
        ]


class TestGoogleUniverse:
    def test_counts_match_paper(self, google_build):
        features = [e.feature for e in google_build.catalog.entries]
        assert features.count("audiences") == GOOGLE_ATTRIBUTE_COUNT
        assert features.count("topics") == GOOGLE_TOPIC_COUNT

    def test_curated_examples_present(self, google_build):
        names = set(google_build.catalog.names().values())
        assert "Gamers — Sports Game Fans" in names
        assert "Martial Arts — Kickboxing" in names

    def test_curated_features_split(self, google_build):
        catalog = google_build.catalog
        assert catalog.get("g:audiences:gamers--sports-game-fans").feature == (
            "audiences"
        )
        assert catalog.get("g:topics:martial-arts--kickboxing").feature == "topics"


class TestLinkedInUniverse:
    def test_counts_match_paper(self, linkedin_build):
        study = [
            e for e in linkedin_build.catalog if e.demographic_value is None
        ]
        assert len(study) == LINKEDIN_COUNT

    def test_demographic_detail_options(self, linkedin_build):
        demo = [
            e for e in linkedin_build.catalog if e.demographic_value is not None
        ]
        values = {e.demographic_value for e in demo}
        assert Gender.MALE in values and Gender.FEMALE in values
        assert all(a in values for a in AgeRange)
        assert len(demo) == 6

    def test_curated_examples_present(self, linkedin_build):
        names = set(linkedin_build.catalog.names().values())
        assert "Job Seniorities — CXO" in names
        assert "Desktop/Laptop Preference — Linux" in names


class TestCuratedSkewDirections:
    """Curated specs should encode the paper's skew directions."""

    def test_fb_curated_gender_totals(self, fb_build):
        model = default_model()
        by_id = {s.attr_id: s for s in fb_build.specs}
        ee = by_id["fb:interests:interests--electrical-engineering"]
        mlm = by_id["fb:interests:interests--multi-level-marketing"]
        assert model.approximate_gender_ratio(ee) == pytest.approx(3.71, rel=0.01)
        assert model.approximate_gender_ratio(mlm) == pytest.approx(
            1 / 5.0, rel=0.01
        )

    def test_fb_curated_age_totals(self, fb_build):
        model = default_model()
        by_id = {s.attr_id: s for s in fb_build.specs}
        reverse_mortgage = by_id["fb:interests:interests--reverse-mortgage"]
        # Rare-attribute approximation: log-odds in 55+ against the mean
        # log-odds of the other age ranges.
        lam = reverse_mortgage.loading_vector(model.n_factors)
        beta = np.asarray(reverse_mortgage.beta_age, dtype=np.float64)
        beta = beta + np.asarray(model.factor_age_shift).T @ lam
        older = int(AgeRange.AGE_55_PLUS)
        ratio = float(np.exp(beta[older] - np.delete(beta, older).mean()))
        # Platform-wide age tilt shifts the anchor; direction and rough
        # magnitude must survive.
        assert ratio > 4.0

    def test_google_curated_female_skew(self, google_build):
        model = default_model()
        by_id = {s.attr_id: s for s in google_build.specs}
        eye_makeup = by_id["g:audiences:makeup-cosmetics--eye-makeup"]
        assert model.approximate_gender_ratio(eye_makeup) < 0.2
