"""Tests for overlap measurement and inclusion-exclusion union recall.

The central ground-truth check: with rounding disabled, the truncated
inclusion-exclusion estimate must converge to the *exact* union size
computed directly on the population bitsets.
"""

from __future__ import annotations

import pytest

from repro.core.overlap import pairwise_overlaps, union_recall
from repro.population.bitsets import union_all
from repro.population.demographics import Gender


def fb_target(session):
    return session.targets["facebook"]


def comps_from(target, n, arity=2):
    ids = target.study_option_ids()
    return [tuple(ids[i * arity : (i + 1) * arity]) for i in range(n)]


class TestPairwiseOverlaps:
    def test_overlaps_in_unit_interval(self, session_exact):
        target = fb_target(session_exact)
        comps = comps_from(target, 6)
        study = pairwise_overlaps(target, comps, Gender.MALE)
        assert study.overlaps
        assert all(0.0 <= o <= 1.0 for o in study.overlaps)

    def test_identical_compositions_overlap_fully(self, session_exact):
        target = fb_target(session_exact)
        comp = comps_from(target, 1)[0]
        study = pairwise_overlaps(target, [comp, comp], Gender.MALE)
        assert study.overlaps == [pytest.approx(1.0)]

    def test_max_pairs_caps_queries(self, session_exact):
        target = fb_target(session_exact)
        comps = comps_from(target, 8)
        study = pairwise_overlaps(target, comps, Gender.MALE, max_pairs=5)
        assert len(study.overlaps) <= 5

    def test_median(self, session_exact):
        target = fb_target(session_exact)
        comps = comps_from(target, 5)
        study = pairwise_overlaps(target, comps, Gender.MALE)
        assert 0.0 <= study.median_overlap <= 1.0

    def test_empty(self):
        from repro.core.overlap import OverlapStudy

        import math

        assert math.isnan(OverlapStudy(Gender.MALE, [], 0).median_overlap)


class TestUnionRecallGroundTruth:
    def _exact_union(self, session, comps, gender=None):
        population = session.suite.facebook.population
        index = population.index
        vectors = []
        for comp in comps:
            vec = None
            for option in comp:
                attr = index.attribute(option)
                vec = attr if vec is None else vec & attr
            vectors.append(vec)
        union = union_all(vectors)
        if gender is not None:
            union = union & index.gender(gender)
        return population.users(union)

    def test_matches_exact_union(self, session_exact):
        target = fb_target(session_exact)
        comps = comps_from(target, 6)
        estimate = union_recall(target, comps, rel_tol=0.0)
        exact = self._exact_union(session_exact, comps)
        assert estimate.estimate == pytest.approx(exact, rel=1e-6)
        assert estimate.converged

    def test_matches_exact_union_with_demographic(self, session_exact):
        target = fb_target(session_exact)
        comps = comps_from(target, 5)
        estimate = union_recall(target, comps, Gender.FEMALE, rel_tol=0.0)
        exact = self._exact_union(session_exact, comps, Gender.FEMALE)
        assert estimate.estimate == pytest.approx(exact, rel=1e-6)

    def test_partial_sums_bonferroni(self, session_exact):
        """Odd-order partial sums over-estimate, even-order under-estimate."""
        target = fb_target(session_exact)
        comps = comps_from(target, 6)
        estimate = union_recall(target, comps, rel_tol=0.0)
        exact = self._exact_union(session_exact, comps)
        for order, partial in enumerate(estimate.partial_sums, start=1):
            if order % 2 == 1:
                assert partial >= exact - 1e-6
            else:
                assert partial <= exact + 1e-6

    def test_union_at_least_max_single(self, session_small):
        """Even with rounding, the union estimate is ~at least the
        largest single composition's recall."""
        target = fb_target(session_small)
        comps = comps_from(target, 5)
        singles = [
            target.intersection_size([c], Gender.FEMALE) for c in comps
        ]
        estimate = union_recall(target, comps, Gender.FEMALE)
        assert estimate.estimate >= max(singles) * 0.8

    def test_empty_input(self, session_small):
        estimate = union_recall(fb_target(session_small), [])
        assert estimate.estimate == 0.0
        assert estimate.converged

    def test_zero_pruning_limits_queries(self, session_small):
        """Disjoint compositions prune the 2^n term explosion."""
        target = fb_target(session_small)
        comps = comps_from(target, 8)
        estimate = union_recall(target, comps, Gender.MALE)
        assert estimate.n_queries < 2**8 - 1

    def test_max_order_truncation(self, session_exact):
        target = fb_target(session_exact)
        comps = comps_from(target, 5)
        estimate = union_recall(target, comps, rel_tol=0.0, max_order=1)
        assert len(estimate.partial_sums) == 1
        exact = self._exact_union(session_exact, comps)
        assert estimate.estimate >= exact - 1e-6  # order-1 is an upper bound

    def test_bounds(self, session_exact):
        target = fb_target(session_exact)
        comps = comps_from(target, 5)
        estimate = union_recall(target, comps, rel_tol=0.0)
        lo, hi = estimate.bounds()
        exact = self._exact_union(session_exact, comps)
        assert lo - 1e6 <= exact <= hi + 1e6
