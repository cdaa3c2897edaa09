"""Tests for the skew metrics (Equation 1, four-fifths rule, recall)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (
    FOUR_FIFTHS_HIGH,
    FOUR_FIFTHS_LOW,
    least_skewed_ratio,
    recall_excluding,
    recall_including,
    representation_ratio,
    representation_ratio_from_sizes,
    violates_four_fifths,
)
from repro.population.demographics import AGE_RANGES, AgeRange, Gender


class TestRepresentationRatio:
    def test_balanced_is_one(self):
        assert representation_ratio(10, 100, 10, 100) == pytest.approx(1.0)

    def test_paper_example_structure(self):
        # Twice as likely to include males than females.
        assert representation_ratio(20, 100, 10, 100) == pytest.approx(2.0)

    def test_unequal_bases_normalised(self):
        # same inclusion *rates* with different base sizes -> ratio 1.
        assert representation_ratio(20, 200, 10, 100) == pytest.approx(1.0)

    def test_empty_complement_is_inf(self):
        assert math.isinf(representation_ratio(5, 100, 0, 100))

    def test_empty_audience_is_nan(self):
        assert math.isnan(representation_ratio(0, 100, 0, 100))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            representation_ratio(-1, 100, 5, 100)
        with pytest.raises(ValueError):
            representation_ratio(1, 0, 5, 100)

    def test_from_sizes_aggregates_complement(self):
        sizes = {
            AgeRange.AGE_18_24: 30,
            AgeRange.AGE_25_34: 10,
            AgeRange.AGE_35_54: 10,
            AgeRange.AGE_55_PLUS: 10,
        }
        bases = {a: 100 for a in AGE_RANGES}
        ratio = representation_ratio_from_sizes(sizes, bases, AgeRange.AGE_18_24)
        assert ratio == pytest.approx((30 / 100) / (30 / 300))

    def test_from_sizes_missing_value(self):
        with pytest.raises(KeyError):
            representation_ratio_from_sizes({}, {}, Gender.MALE)

    def test_gender_ratios_are_reciprocal(self):
        sizes = {Gender.MALE: 30, Gender.FEMALE: 10}
        bases = {Gender.MALE: 100, Gender.FEMALE: 100}
        male = representation_ratio_from_sizes(sizes, bases, Gender.MALE)
        female = representation_ratio_from_sizes(sizes, bases, Gender.FEMALE)
        assert male == pytest.approx(1 / female)


class TestRecall:
    def test_including_and_excluding(self):
        sizes = {Gender.MALE: 30, Gender.FEMALE: 12}
        assert recall_including(sizes, Gender.MALE) == 30
        assert recall_excluding(sizes, Gender.MALE) == 12

    def test_excluding_age_sums_others(self):
        sizes = {a: 10 * (i + 1) for i, a in enumerate(AGE_RANGES)}
        assert recall_excluding(sizes, AgeRange.AGE_18_24) == 90


class TestFourFifths:
    @pytest.mark.parametrize(
        "ratio,expected",
        [
            (1.0, False),
            (1.24, False),
            (1.25, True),
            (0.81, False),
            (0.8, True),
            (float("inf"), True),
            (float("nan"), False),
        ],
    )
    def test_violations(self, ratio, expected):
        assert violates_four_fifths(ratio) is expected

    def test_thresholds_are_four_fifths(self):
        assert FOUR_FIFTHS_LOW == pytest.approx(0.8)
        assert FOUR_FIFTHS_HIGH == pytest.approx(1 / 0.8)


class TestLeastSkewedRatio:
    def test_interval_straddling_one(self):
        assert least_skewed_ratio(0.9, 1.2) == 1.0

    def test_interval_above_one(self):
        assert least_skewed_ratio(1.5, 2.5) == 1.5

    def test_interval_below_one(self):
        assert least_skewed_ratio(0.3, 0.6) == 0.6

    def test_order_insensitive(self):
        assert least_skewed_ratio(2.5, 1.5) == 1.5

    def test_nan_propagates(self):
        assert math.isnan(least_skewed_ratio(float("nan"), 2.0))


positive_sizes = st.integers(min_value=0, max_value=10**7)
positive_bases = st.integers(min_value=1, max_value=10**8)


class TestRatioProperties:
    @given(
        a=positive_sizes, b=positive_bases, c=positive_sizes, d=positive_bases
    )
    @settings(max_examples=150, deadline=None)
    def test_reciprocity(self, a, b, c, d):
        """rep_ratio_s == 1 / rep_ratio_{not s} for binary attributes."""
        forward = representation_ratio(a, b, c, d)
        backward = representation_ratio(c, d, a, b)
        if math.isnan(forward):
            assert math.isnan(backward)
        elif math.isinf(forward):
            assert backward == 0.0
        elif forward == 0.0:
            assert math.isinf(backward)
        else:
            assert forward == pytest.approx(1 / backward)

    @given(
        a=positive_sizes, b=positive_bases, c=positive_sizes, d=positive_bases,
        scale=st.integers(min_value=2, max_value=1000),
    )
    @settings(max_examples=150, deadline=None)
    def test_scale_invariance(self, a, b, c, d, scale):
        """Scaling all counts uniformly never changes the ratio."""
        base = representation_ratio(a, b, c, d)
        scaled = representation_ratio(a * scale, b * scale, c * scale, d * scale)
        if math.isnan(base):
            assert math.isnan(scaled)
        else:
            assert scaled == pytest.approx(base) or (
                math.isinf(base) and math.isinf(scaled)
            )

    @given(
        a=positive_sizes, b=positive_bases, c=positive_sizes, d=positive_bases
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_numerator(self, a, b, c, d):
        """Adding users of RA_s never lowers the ratio."""
        base = representation_ratio(a, b, c, d)
        more = representation_ratio(a + 1, b, c, d)
        if not (math.isnan(base) or math.isinf(more)):
            assert more >= base
