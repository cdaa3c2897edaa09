"""Tests for TargetingAudit / CompositionSet records and BoxStats."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.discovery import rank_options
from repro.core.metrics import (
    representation_ratio_from_sizes,
    representation_ratios,
)
from repro.core.results import CompositionSet, TargetingAudit
from repro.core.stats import BoxStats, fraction_outside_four_fifths
from repro.population.demographics import SENSITIVE_ATTRIBUTES, Gender

GENDER = SENSITIVE_ATTRIBUTES["gender"]
AGE = SENSITIVE_ATTRIBUTES["age"]
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
        assert recalls.tolist() == [30, 10, 5, 2000]
        excludes = self.make_set().recalls(Gender.MALE, excluding=True)
        assert excludes.tolist() == [10, 30, 5, 0]

    def test_filtered(self):
        filtered = self.make_set().filtered(min_reach=20)
        assert len(filtered) == 3
        assert filtered.label == "Test"

    def test_top_by_ratio(self):
        top = self.make_set().top_by_ratio(Gender.MALE, 2)
        assert top[0].ratio(Gender.MALE) == math.inf
        bottom = self.make_set().top_by_ratio(Gender.MALE, 1, ascending=True)
        assert bottom[0].ratio(Gender.MALE) == pytest.approx(1 / 3)

    def test_columns_round_trip_through_records(self):
        made = self.make_set()
        assert made.sizes.dtype == np.int64
        assert made.sizes.tolist() == [[30, 10], [10, 30], [5, 5], [2000, 0]]
        assert made.reach().tolist() == [40, 40, 10, 2000]
        assert CompositionSet("Test", made.audits) == made
        assert all(a.bases is made.bases for a in made.audits)

    def test_subset_keeps_order_and_shares_bases(self):
        made = self.make_set()
        kept = made.subset([True, False, True, True], "Kept")
        assert kept.label == "Kept"
        assert kept.sizes.tolist() == [[30, 10], [5, 5], [2000, 0]]
        assert kept.bases is made.bases

    def test_empty_set(self):
        empty = CompositionSet("x")
        assert len(empty) == 0 and empty.audits == []
        assert empty.ratios(Gender.MALE) == []
        assert empty.recalls(Gender.MALE).tolist() == []
        assert len(empty.filtered(1)) == 0
        assert empty.top_by_ratio(Gender.MALE, 3) == []

    def test_unknown_value_raises_key_error_like_the_record(self):
        with pytest.raises(KeyError):
            audit(1, 1).ratio("other")
        with pytest.raises(KeyError):
            CompositionSet("x", [audit(1, 1)]).ratios("other")

    def test_mixed_attributes_rejected(self):
        age = TargetingAudit(
            options=("a",),
            attribute=AGE,
            sizes={v: 1 for v in AGE.values},
            bases={v: 10 for v in AGE.values},
        )
        with pytest.raises(ValueError):
            CompositionSet("x", [audit(1, 1), age])


def _bits(values) -> list[int]:
    return [struct.unpack("<q", struct.pack("<d", v))[0] for v in values]


#: Audience sizes with many zeros and ties: zero-``s``, zero-complement
#: and all-zero rows come up in most examples.
_SIZE = st.one_of(st.integers(0, 3), st.integers(0, 10**12))


class TestColumnarProperties:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_ratios_bit_identical_to_scalar(self, data):
        attribute = data.draw(st.sampled_from([GENDER, AGE]))
        k = len(attribute.values)
        rows = data.draw(
            st.lists(st.lists(_SIZE, min_size=k, max_size=k), max_size=25)
        )
        rows += [[0] * k, [7] + [0] * (k - 1), [0] * (k - 1) + [7]]
        bases = data.draw(
            st.lists(st.integers(1, 10**12), min_size=k, max_size=k)
        )
        base_map = dict(zip(attribute.values, bases))
        matrix = np.array(rows, dtype=np.int64)
        records = CompositionSet(
            "x",
            [
                TargetingAudit(("a",), attribute, dict(zip(attribute.values, r)),
                               base_map)
                for r in rows
            ],
        )
        for column, value in enumerate(attribute.values):
            scalar = [
                representation_ratio_from_sizes(
                    dict(zip(attribute.values, row)), base_map, value
                )
                for row in rows
            ]
            assert _bits(representation_ratios(matrix, bases, column)) == _bits(
                scalar
            )
            assert _bits(records.ratio_column(value)) == _bits(scalar)

    def test_scalar_value_errors_kept(self):
        with pytest.raises(ValueError):
            representation_ratios(np.array([[1, -2]]), [10, 10], 0)
        with pytest.raises(ValueError):
            representation_ratios(np.array([[1, 2]]), [10, 0], 0)

    @given(
        rows=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=40),
        k=st.integers(0, 45),
        ascending=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_top_by_ratio_matches_stable_sort(self, rows, k, ascending):
        audits = [audit(m, f, options=(f"o{i}",)) for i, (m, f) in enumerate(rows)]

        def key(a: TargetingAudit) -> float:
            r = a.ratio(Gender.MALE)
            return 1.0 if math.isnan(r) else r

        expected = sorted(audits, key=key, reverse=not ascending)[:k]
        got = CompositionSet("x", audits).top_by_ratio(Gender.MALE, k, ascending)
        assert got == expected

    @given(
        rows=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=40),
        min_reach=st.integers(0, 8),
        direction=st.sampled_from(["top", "bottom"]),
        value=st.sampled_from([Gender.MALE, Gender.FEMALE]),
    )
    @settings(max_examples=120, deadline=None)
    def test_ranked_options_match_stable_sort(
        self, rows, min_reach, direction, value
    ):
        audits = [audit(m, f, options=(f"o{i}",)) for i, (m, f) in enumerate(rows)]
        eligible = [
            a
            for a in audits
            if a.total_reach >= min_reach and not math.isnan(a.ratio(value))
        ]
        eligible.sort(key=lambda a: a.ratio(value), reverse=direction == "top")
        ranked = rank_options(
            CompositionSet("x", audits), value, direction, min_reach
        )
        assert ranked == [a.options[0] for a in eligible]


class TestBoxStats:
    def test_empty(self):
        box = BoxStats.from_values([])
        assert box.is_empty
        assert math.isnan(box.median)

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

    @given(
        st.lists(
            st.one_of(
                st.floats(-1e9, 1e9),
                st.sampled_from([math.nan, math.inf, -math.inf]),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_ndarray_input_equals_list_input(self, values):
        from_list = BoxStats.from_values(values)
        from_array = BoxStats.from_values(np.array(values, dtype=float))
        assert _bits(vars(from_array).values()) == _bits(vars(from_list).values())

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
