"""Cross-layer integration tests: the paper's claims, end to end.

These tests drive the entire stack -- population, platform simulators,
fake-HTTP API, audit core -- and assert the *findings* of the paper
hold on the simulated platforms.
"""

from __future__ import annotations


import pytest

from repro import build_audit_session
from repro.core import (
    audit_individuals,
    fraction_outside_four_fifths,
    pairwise_overlaps,
    random_compositions,
    skewed_compositions,
    union_recall,
)
from repro.core.stats import BoxStats
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_all
from repro.obs import Tracer
from repro.obs.report import summarize
from repro.population.demographics import (
    SENSITIVE_ATTRIBUTES,
    AgeRange,
    Gender,
)

GENDER = SENSITIVE_ATTRIBUTES["gender"]
AGE = SENSITIVE_ATTRIBUTES["age"]
MIN_REACH = 10_000


@pytest.fixture(scope="module")
def individuals(session_small):
    return {
        key: audit_individuals(session_small.targets[key], GENDER).filtered(
            MIN_REACH
        )
        for key in session_small.target_order
    }


class TestPaperFinding1_RestrictedInterfaceStillSkewed:
    """Section 4.1: the sanitised interface still contains skew, and
    compositions amplify it."""

    def test_individual_skew_exists(self, individuals):
        box = BoxStats.from_values(
            individuals["facebook_restricted"].ratios(Gender.MALE)
        )
        assert box.p90 > 1.25
        assert box.p10 < 0.8

    def test_restricted_less_extreme_than_full(self, individuals):
        restricted = BoxStats.from_values(
            individuals["facebook_restricted"].ratios(Gender.MALE)
        )
        full = BoxStats.from_values(individuals["facebook"].ratios(Gender.MALE))
        assert restricted.maximum <= full.maximum

    def test_composition_amplifies(self, session_small, individuals):
        target = session_small.targets["facebook_restricted"]
        top = skewed_compositions(
            target, GENDER, individuals["facebook_restricted"], Gender.MALE,
            "top", n=80, seed=0,
        ).filtered(MIN_REACH)
        top_box = BoxStats.from_values(top.ratios(Gender.MALE))
        individual_box = BoxStats.from_values(
            individuals["facebook_restricted"].ratios(Gender.MALE)
        )
        assert top_box.median > individual_box.p90


class TestPaperFinding2_AllPlatformsAffected:
    """Section 4.2/4.3: skewed options and compositions exist on every
    platform, with platform-specific signatures."""

    def test_every_platform_has_four_fifths_violations(self, individuals):
        for key, individual in individuals.items():
            fraction = fraction_outside_four_fifths(individual.ratios(Gender.MALE))
            assert fraction > 0.05, key

    def test_linkedin_skews_male(self, individuals):
        li = BoxStats.from_values(individuals["linkedin"].ratios(Gender.MALE))
        fb = BoxStats.from_values(individuals["facebook"].ratios(Gender.MALE))
        assert li.median > fb.median

    def test_google_linkedin_skew_away_from_young(self, session_small):
        for key in ("google", "linkedin"):
            individual = audit_individuals(
                session_small.targets[key], AGE
            ).filtered(MIN_REACH)
            box = BoxStats.from_values(individual.ratios(AgeRange.AGE_18_24))
            assert box.median < 1.0, key

    def test_top_pairs_violate_four_fifths_en_masse(self, session_small, individuals):
        for key in ("facebook", "linkedin"):
            target = session_small.targets[key]
            top = skewed_compositions(
                target, GENDER, individuals[key], Gender.MALE, "top", n=60,
                seed=0,
            ).filtered(MIN_REACH)
            fraction = fraction_outside_four_fifths(top.ratios(Gender.MALE))
            assert fraction > 0.85, key


class TestPaperFinding3_RandomPairsDriftToo:
    """Even honest advertisers composing random options see more skew."""

    def test_random_pairs_wider_than_individuals(self, session_small, individuals):
        target = session_small.targets["facebook"]
        random_set = random_compositions(
            target, GENDER, n=120, seed=0
        ).filtered(MIN_REACH)
        random_box = BoxStats.from_values(random_set.ratios(Gender.MALE))
        individual_box = BoxStats.from_values(
            individuals["facebook"].ratios(Gender.MALE)
        )
        spread_random = random_box.p90 / random_box.p10
        spread_individual = individual_box.p90 / individual_box.p10
        assert spread_random > spread_individual


class TestPaperFinding4_UnionRecall:
    """Section 4.3: small overlaps let advertisers stack compositions."""

    def test_union_of_top10_beats_top1(self, session_small, individuals):
        target = session_small.targets["facebook"]
        top = skewed_compositions(
            target, GENDER, individuals["facebook"], Gender.FEMALE, "top",
            n=80, seed=0,
        ).filtered(MIN_REACH)
        comps = [a.options for a in top.top_by_ratio(Gender.FEMALE, 10)]
        top1 = target.intersection_size([comps[0]], Gender.FEMALE)
        union = union_recall(target, comps, Gender.FEMALE)
        assert union.converged
        assert union.estimate > top1 * 1.5

    def test_overlaps_small(self, session_small, individuals):
        target = session_small.targets["facebook"]
        top = skewed_compositions(
            target, GENDER, individuals["facebook"], Gender.FEMALE, "top",
            n=80, seed=0,
        ).filtered(MIN_REACH)
        comps = [a.options for a in top.top_by_ratio(Gender.FEMALE, 12)]
        study = pairwise_overlaps(target, comps, Gender.FEMALE, max_pairs=40)
        if study.overlaps:
            assert study.median_overlap < 0.5


class TestQueryAccounting:
    def test_all_measurement_flows_through_api(self):
        """Every audit size query of a full run shows up in its trace.

        A fresh traced run rather than the shared session: the count
        must not depend on which other tests drove that session first.
        """
        tracer = Tracer("accounting")
        report = run_all(config=ExperimentConfig.tiny(), tracer=tracer)
        by_route = summarize({}, tracer.export())["queries"]["by_route"]
        assert sum(by_route.values()) == report.total_api_requests > 1000
        assert by_route["facebook/delivery_estimate"] > 0
        assert by_route["google/reach_estimate"] > 0
        assert by_route["linkedin/audience_count"] > 0


class TestDeterminism:
    def test_same_seed_same_audit(self):
        a = build_audit_session(n_records=3000, seed=77)
        b = build_audit_session(n_records=3000, seed=77)
        spec_ids = a.targets["facebook"].study_option_ids()[:10]
        for option in spec_ids:
            audit_a = a.targets["facebook"].audit((option,), GENDER)
            audit_b = b.targets["facebook"].audit((option,), GENDER)
            assert audit_a.sizes == audit_b.sizes
