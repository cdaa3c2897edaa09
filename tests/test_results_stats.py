"""Tests for TargetingAudit / CompositionSet records and BoxStats."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import CompositionSet, TargetingAudit
from repro.core.stats import BoxStats, fraction_outside_four_fifths
from repro.population.demographics import SENSITIVE_ATTRIBUTES, Gender

GENDER = SENSITIVE_ATTRIBUTES["gender"]
BASES = {Gender.MALE: 1000, Gender.FEMALE: 1000}


def audit(male: int, female: int, options=("a",)) -> TargetingAudit:
    return TargetingAudit(
        options=tuple(options),
        attribute=GENDER,
        sizes={Gender.MALE: male, Gender.FEMALE: female},
        bases=BASES,
    )


class TestTargetingAudit:
    def test_total_reach(self):
        assert audit(30, 20).total_reach == 50

    def test_cached_total_reach_stays_out_of_repr_and_equality(self):
        read = audit(30, 20)
        assert read.total_reach == 50
        assert read == audit(30, 20)
        assert repr(read) == repr(audit(30, 20))

    def test_ratio(self):
        assert audit(30, 10).ratio(Gender.MALE) == pytest.approx(3.0)
        assert audit(30, 10).ratio(Gender.FEMALE) == pytest.approx(1 / 3)

    def test_recalls(self):
        a = audit(30, 10)
        assert a.recall(Gender.MALE) == 30
        assert a.recall_excluding(Gender.MALE) == 10

    def test_is_skewed(self):
        assert audit(30, 10).is_skewed(Gender.MALE)
        assert not audit(10, 10).is_skewed(Gender.MALE)

    def test_missing_value_rejected(self):
        with pytest.raises(ValueError):
            TargetingAudit(
                options=("a",),
                attribute=GENDER,
                sizes={Gender.MALE: 5},
                bases=BASES,
            )

    def test_describe_uses_names(self):
        a = audit(1, 1, options=("x", "y"))
        assert a.describe({"x": "X", "y": "Y"}) == "X AND Y"


class TestCompositionSet:
    def make_set(self):
        return CompositionSet(
            "Test",
            [audit(30, 10), audit(10, 30), audit(5, 5), audit(2000, 0)],
        )

    def test_ratios_drop_non_finite(self):
        ratios = self.make_set().ratios(Gender.MALE)
        assert len(ratios) == 3  # the inf from audit(2000, 0) is dropped

    def test_recalls(self):
        recalls = self.make_set().recalls(Gender.MALE)
        assert recalls == [30, 10, 5, 2000]
        excludes = self.make_set().recalls(Gender.MALE, excluding=True)
        assert excludes == [10, 30, 5, 0]

    def test_filtered(self):
        filtered = self.make_set().filtered(min_reach=20)
        assert len(filtered) == 3
        assert filtered.label == "Test"

    def test_skewed_subset(self):
        skewed = self.make_set().skewed_subset(Gender.MALE)
        # 30/10 (3.0), 10/30 (0.33) and 2000/0 (inf) violate; 5/5 does not.
        assert len(skewed) == 3

    def test_fraction_skewed(self):
        assert self.make_set().fraction_skewed(Gender.MALE) == pytest.approx(
            3 / 4
        )
        assert math.isnan(CompositionSet("x").fraction_skewed(Gender.MALE))

    def test_top_by_ratio(self):
        top = self.make_set().top_by_ratio(Gender.MALE, 2)
        assert top[0].ratio(Gender.MALE) == math.inf
        bottom = self.make_set().top_by_ratio(Gender.MALE, 1, ascending=True)
        assert bottom[0].ratio(Gender.MALE) == pytest.approx(1 / 3)


class TestBoxStats:
    def test_empty(self):
        box = BoxStats.from_values([])
        assert box.is_empty
        assert math.isnan(box.median)
        assert "empty" in box.format_row("x")

    def test_percentiles(self):
        box = BoxStats.from_values(range(1, 101))
        assert box.n == 100
        assert box.median == pytest.approx(50.5)
        assert box.p10 == pytest.approx(10.9)
        assert box.p90 == pytest.approx(90.1)
        assert box.minimum == 1 and box.maximum == 100

    def test_drops_nan_and_inf(self):
        box = BoxStats.from_values([1.0, float("nan"), float("inf"), 3.0])
        assert box.n == 2
        assert box.mean == pytest.approx(2.0)

    def test_format_row(self):
        row = BoxStats.from_values([1, 2, 3]).format_row("Individual")
        assert row.startswith("Individual")
        assert "med=2" in row

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_ordering_invariant(self, values):
        box = BoxStats.from_values(values)
        assert (
            box.minimum
            <= box.p10
            <= box.p25
            <= box.median
            <= box.p75
            <= box.p90
            <= box.maximum
        )


class TestFractionOutside:
    def test_counts_violations(self):
        values = [1.0, 1.3, 0.7, float("inf"), float("nan")]
        # of the 4 non-nan: 1.3, 0.7, inf violate
        assert fraction_outside_four_fifths(values) == pytest.approx(3 / 4)

    def test_empty_is_nan(self):
        assert math.isnan(fraction_outside_four_fifths([]))
