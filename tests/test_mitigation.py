"""Tests for the outcome-based mitigation module (paper Section 5)."""

from __future__ import annotations

import math

import pytest

from repro.core.discovery import audit_individuals, greedy_candidates
from repro.core.mitigation import OutcomeMonitor, RemovalPolicy
from repro.core.results import CompositionSet
from repro.population.demographics import SENSITIVE_ATTRIBUTES, Gender

GENDER = SENSITIVE_ATTRIBUTES["gender"]


@pytest.fixture(scope="module")
def restricted(session_small):
    return session_small.targets["facebook_restricted"]


@pytest.fixture(scope="module")
def individual(restricted):
    return audit_individuals(restricted, GENDER)


class TestOutcomeMonitor:
    def test_review_records_history(self, restricted):
        monitor = OutcomeMonitor(restricted, min_campaigns=2)
        options = restricted.study_option_ids()[:2]
        review = monitor.review_campaign("adv", tuple(options))
        assert review.advertiser_id == "adv"
        assert monitor.history("adv").n_campaigns == 1
        assert set(review.ratios) <= {
            "male", "female", "18-24", "25-34", "35-54", "55+",
        }

    def test_flagging_requires_history(self, restricted, individual):
        monitor = OutcomeMonitor(restricted, min_campaigns=3)
        skewed = greedy_candidates(
            restricted, individual, Gender.MALE, "top", n=2, seed=0
        )
        for campaign in skewed:
            monitor.review_campaign("new", campaign)
        # Only 2 campaigns: under min_campaigns, whatever their skew.
        assert "new" not in monitor.consistently_skewed_advertisers(0.0)

    def test_directional_consistency_of_discriminator(
        self, restricted, individual
    ):
        monitor = OutcomeMonitor(restricted, min_campaigns=3)
        skewed = greedy_candidates(
            restricted, individual, Gender.MALE, "top", n=4, seed=0
        )
        for campaign in skewed:
            monitor.review_campaign("disc", campaign)
        consistency = monitor.directional_consistency("disc")
        assert consistency[("male", "toward")] >= 0.75
        flagged = monitor.consistently_skewed_advertisers(min_fraction=0.75)
        assert "disc" in flagged
        label, direction, fraction = flagged["disc"]
        # "toward male" and "away from female" are the same consistent
        # direction for a binary attribute; either description is valid.
        assert (label, direction) in (("male", "toward"), ("female", "away"))
        assert fraction >= 0.75

    def test_unknown_advertiser_empty(self, restricted):
        monitor = OutcomeMonitor(restricted)
        assert monitor.history("ghost").n_campaigns == 0
        assert monitor.directional_consistency("ghost") == {}

    def test_validation(self, restricted):
        with pytest.raises(ValueError):
            OutcomeMonitor(restricted, min_campaigns=0)


class TestRemovalPolicy:
    def test_bans_top_percentile(self, individual):
        policy = RemovalPolicy(individual.audits, percentile=10.0)
        eligible = [a for a in individual.audits if a.total_reach >= 10_000]
        assert len(policy.banned) == round(len(eligible) * 0.10)

    def test_zero_percentile_bans_nothing(self, individual):
        policy = RemovalPolicy(individual.audits, percentile=0.0)
        assert not policy.banned
        assert policy.allows(("anything",))

    def test_banned_options_are_the_most_skewed(self, individual):
        policy = RemovalPolicy(individual.audits, percentile=4.0)
        by_option = {
            a.options[0]: a
            for a in individual.audits
            if a.total_reach >= 10_000
        }
        banned_worst = min(
            max(
                abs(math.log(by_option[o].ratio(v)))
                for v in GENDER.values
                if not math.isnan(by_option[o].ratio(v))
                and by_option[o].ratio(v) > 0
            )
            for o in policy.banned
        )
        surviving_sample = [
            o for o in by_option if o not in policy.banned
        ][:50]
        for option in surviving_sample:
            worst = max(
                abs(math.log(by_option[option].ratio(v)))
                for v in GENDER.values
                if by_option[option].ratio(v) > 0
            )
            assert worst <= banned_worst + 1e-9

    def test_allows_blocks_banned(self, individual):
        policy = RemovalPolicy(individual.audits, percentile=10.0)
        banned_option = next(iter(policy.banned))
        assert not policy.allows((banned_option, "other"))
        assert policy.allows(("other",))

    def test_percentile_validated(self, individual):
        with pytest.raises(ValueError):
            RemovalPolicy(individual.audits, percentile=120.0)


class TestPolicyComparison:
    def test_adapted_discriminator_evades_removal(self, restricted, individual):
        """The paper's core mitigation finding as a single test: a
        discriminator composing only *surviving* options is never
        blocked by removal, yet the outcome monitor catches them."""
        policy = RemovalPolicy(individual.audits, percentile=10.0)
        surviving = CompositionSet(
            "Individual",
            [a for a in individual.audits if a.options[0] not in policy.banned],
        )
        campaigns = greedy_candidates(
            restricted, surviving, Gender.MALE, "top", n=4, seed=0
        )
        assert campaigns
        assert all(policy.allows(c) for c in campaigns)

        monitor = OutcomeMonitor(restricted, min_campaigns=3)
        for campaign in campaigns:
            monitor.review_campaign("adapted", campaign)
        assert "adapted" in monitor.consistently_skewed_advertisers(0.75)
