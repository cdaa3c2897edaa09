"""Tests for composition discovery (random, greedy top/bottom)."""

from __future__ import annotations

import math
from itertools import combinations

import pytest

from repro import build_audit_session
from repro.core.discovery import (
    audit_individuals,
    greedy_candidates,
    random_compositions,
    skewed_compositions,
    smallest_k_for_combinations,
)
from repro.population.demographics import SENSITIVE_ATTRIBUTES, Gender

GENDER = SENSITIVE_ATTRIBUTES["gender"]


class TestSmallestK:
    def test_paper_parameters(self):
        """1,000 pairs need the 46 most skewed options (C(46,2)=1,035)."""
        assert smallest_k_for_combinations(1000, 2) == 46
        assert math.comb(46, 2) == 1035

    def test_three_way(self):
        k = smallest_k_for_combinations(1000, 3)
        assert math.comb(k, 3) >= 1000
        assert math.comb(k - 1, 3) < 1000

    def test_edge_cases(self):
        assert smallest_k_for_combinations(1, 2) == 2
        with pytest.raises(ValueError):
            smallest_k_for_combinations(0, 2)


@pytest.fixture(scope="module")
def fb_individual(session_small):
    return audit_individuals(
        session_small.targets["facebook_restricted"], GENDER
    )


class TestIndividualAudits:
    def test_covers_study_list(self, session_small, fb_individual):
        assert len(fb_individual) == 393
        assert all(len(a.options) == 1 for a in fb_individual.audits)
        assert fb_individual.label == "Individual"

    def test_empty_option_ids_audit_nothing(self, session_small):
        target = session_small.targets["facebook"]
        empty = audit_individuals(target, GENDER, option_ids=[])
        assert len(empty) == 0 and empty.label == "Individual"

    def test_ratio_distribution_sane(self, fb_individual):
        ratios = fb_individual.filtered(10_000).ratios(Gender.MALE)
        assert len(ratios) > 300
        assert 0.5 < sorted(ratios)[len(ratios) // 2] < 1.5  # median near 1


class TestRandomCompositions:
    def test_counts_and_dedup(self, session_small):
        target = session_small.targets["facebook_restricted"]
        result = random_compositions(target, GENDER, n=50, seed=1)
        assert len(result) == 50
        combos = {a.options for a in result.audits}
        assert len(combos) == 50
        assert all(len(c) == 2 for c in combos)

    def test_deterministic_in_seed(self, session_small):
        target = session_small.targets["facebook_restricted"]
        a = random_compositions(target, GENDER, n=20, seed=5)
        b = random_compositions(target, GENDER, n=20, seed=5)
        assert [x.options for x in a.audits] == [x.options for x in b.audits]

    def test_google_pairs_are_cross_feature(self, session_small):
        target = session_small.targets["google"]
        result = random_compositions(target, GENDER, n=20, seed=2)
        for audit in result.audits:
            features = {target.feature_of(o) for o in audit.options}
            assert len(features) == 2

    def test_empty_option_ids_raise(self, session_small):
        target = session_small.targets["facebook"]
        with pytest.raises(ValueError, match="not enough options"):
            random_compositions(target, GENDER, n=5, option_ids=[])

    def test_arity_3(self, session_small):
        target = session_small.targets["facebook"]
        result = random_compositions(target, GENDER, arity=3, n=10, seed=3)
        assert all(len(a.options) == 3 for a in result.audits)


class TestGreedyCandidates:
    def test_candidates_come_from_most_skewed(self, session_small, fb_individual):
        target = session_small.targets["facebook_restricted"]
        candidates = greedy_candidates(
            target, fb_individual, Gender.MALE, "top", n=100, seed=0
        )
        assert candidates
        # Collect the individual ratios of every option used.
        ratio_by_option = {
            a.options[0]: a.ratio(Gender.MALE)
            for a in fb_individual.audits
            if a.total_reach >= 10_000
        }
        used = {o for combo in candidates for o in combo}
        used_ratios = [ratio_by_option[o] for o in used]
        overall_median = sorted(ratio_by_option.values())[
            len(ratio_by_option) // 2
        ]
        assert min(used_ratios) > overall_median

    def test_direction_validation(self, session_small, fb_individual):
        target = session_small.targets["facebook_restricted"]
        with pytest.raises(ValueError):
            greedy_candidates(target, fb_individual, Gender.MALE, "sideways")

    def test_google_three_way_rejected(self, session_small):
        target = session_small.targets["google"]
        individual = audit_individuals(
            target, GENDER, option_ids=target.study_option_ids()[:40]
        )
        with pytest.raises(ValueError):
            greedy_candidates(target, individual, Gender.MALE, "top", arity=3)

    def test_empty_individual_gives_no_candidates(self, session_small):
        target = session_small.targets["facebook"]
        from repro.core.results import CompositionSet

        assert (
            greedy_candidates(
                target, CompositionSet("Individual"), Gender.MALE, "top"
            )
            == []
        )


class TestSkewedCompositions:
    def test_top_more_skewed_than_individual(self, session_small, fb_individual):
        target = session_small.targets["facebook_restricted"]
        top = skewed_compositions(
            target, GENDER, fb_individual, Gender.MALE, "top", n=60, seed=0
        ).filtered(10_000)
        top_ratios = top.ratios(Gender.MALE)
        individual_ratios = fb_individual.filtered(10_000).ratios(Gender.MALE)
        assert sorted(top_ratios)[len(top_ratios) // 2] > max(
            sorted(individual_ratios)[int(len(individual_ratios) * 0.9)], 1.0
        )

    def test_bottom_skews_other_way(self, session_small, fb_individual):
        target = session_small.targets["facebook_restricted"]
        bottom = skewed_compositions(
            target, GENDER, fb_individual, Gender.MALE, "bottom", n=60, seed=0
        ).filtered(10_000)
        ratios = bottom.ratios(Gender.MALE)
        assert ratios
        assert sorted(ratios)[len(ratios) // 2] < 0.8

    def test_labels(self, session_small, fb_individual):
        target = session_small.targets["facebook_restricted"]
        top = skewed_compositions(
            target, GENDER, fb_individual, Gender.MALE, "top", n=5, seed=0
        )
        assert top.label == "Top 2-way"

    def test_three_way_amplifies(self, session_small, fb_individual):
        """The paper's 3-way experiment: composing three options yields
        more skew than composing two."""
        target = session_small.targets["facebook_restricted"]
        two = skewed_compositions(
            target, GENDER, fb_individual, Gender.MALE, "top", arity=2, n=60,
            seed=0,
        ).filtered(10_000)
        three = skewed_compositions(
            target, GENDER, fb_individual, Gender.MALE, "top", arity=3, n=60,
            seed=0,
        ).filtered(10_000)
        two_ratios = two.ratios(Gender.MALE)
        three_ratios = three.ratios(Gender.MALE)
        if three_ratios:  # small populations can filter everything out
            assert max(three_ratios) >= max(two_ratios) * 0.8


class TestGreedyAblation:
    """Greedy vs exhaustive discovery on a catalog slice small enough to
    crawl every pair (DESIGN.md section 5)."""

    CATALOG_SLICE = 60  # C(60, 2) = 1,770 pairs
    TOP_K = 50

    def test_greedy_captures_exhaustive_top(self):
        """The paper accepts greedy discovery as an approximate lower
        bound (Section 3); it must still capture over 30% of the true
        top-50 compositions to be usable."""
        session = build_audit_session(n_records=15_000, seed=9)
        target = session.targets["facebook"]
        options = target.study_option_ids()[: self.CATALOG_SLICE]
        individual = audit_individuals(target, GENDER, option_ids=options)

        pairs = [tuple(sorted(p)) for p in combinations(options, 2)]
        audits = target.audit_many(pairs, GENDER).filtered(10_000).audits
        audits.sort(key=lambda a: a.ratio(Gender.MALE), reverse=True)
        true_top = {a.options for a in audits[: self.TOP_K]}

        greedy = set(
            greedy_candidates(
                target, individual, Gender.MALE, "top", n=self.TOP_K, seed=0
            )
        )
        assert len(true_top & greedy) / len(true_top) > 0.3
