"""Unit and property tests for the packed-bitset audience index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.population.bitsets import (
    AudienceIndex,
    BitVector,
    intersect_all,
    intersect_counts,
    union_all,
)
from repro.population.demographics import AGE_RANGES, AgeRange, Gender


def make(bits: list[int], n: int) -> BitVector:
    return BitVector.from_indices(bits, n)


class TestBitVectorConstruction:
    def test_from_bool_roundtrip(self):
        mask = np.array([True, False, True, True, False])
        vec = BitVector.from_bool(mask)
        assert vec.to_bool().tolist() == mask.tolist()

    def test_from_indices(self):
        vec = make([0, 3, 63, 64, 99], 100)
        assert vec.count() == 5
        assert vec[0] and vec[3] and vec[63] and vec[64] and vec[99]
        assert not vec[1]

    def test_from_indices_out_of_range(self):
        with pytest.raises(IndexError):
            make([100], 100)

    def test_zeros_and_ones(self):
        assert BitVector.zeros(130).count() == 0
        assert BitVector.ones(130).count() == 130

    def test_ones_tail_masked(self):
        vec = BitVector.ones(65)
        assert vec.count() == 65
        assert (~vec).count() == 0

    def test_rejects_2d_mask(self):
        with pytest.raises(ValueError):
            BitVector.from_bool(np.zeros((2, 2), dtype=bool))

    def test_len(self):
        assert len(BitVector.zeros(42)) == 42

    def test_getitem_bounds(self):
        vec = BitVector.zeros(10)
        with pytest.raises(IndexError):
            vec[10]


class TestBitVectorAlgebra:
    def test_and(self):
        a, b = make([1, 2, 3], 10), make([2, 3, 4], 10)
        assert (a & b).count() == 2

    def test_or(self):
        a, b = make([1, 2], 10), make([2, 3], 10)
        assert (a | b).count() == 3

    def test_xor(self):
        a, b = make([1, 2], 10), make([2, 3], 10)
        assert (a ^ b).count() == 2

    def test_invert(self):
        a = make([0, 1], 70)
        assert (~a).count() == 68

    def test_difference(self):
        a, b = make([1, 2, 3], 10), make([3], 10)
        assert a.difference(b).count() == 2

    def test_intersect_count_matches_and(self):
        a, b = make(list(range(0, 100, 2)), 100), make(list(range(0, 100, 3)), 100)
        assert a.intersect_count(b) == (a & b).count()

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            make([1], 10) & make([1], 11)

    def test_type_mismatch_raises(self):
        with pytest.raises(TypeError):
            make([1], 10) & object()  # type: ignore[operator]

    def test_equality_and_hash(self):
        a, b = make([1, 5], 40), make([1, 5], 40)
        assert a == b
        assert hash(a) == hash(b)
        assert a != make([1, 6], 40)

    def test_intersect_all_and_union_all(self):
        vecs = [make([1, 2, 3], 9), make([2, 3, 4], 9), make([3, 4, 5], 9)]
        assert intersect_all(vecs).count() == 1
        assert union_all(vecs).count() == 5
        with pytest.raises(ValueError):
            intersect_all([])
        with pytest.raises(ValueError):
            union_all([])


@st.composite
def index_sets(draw, n=257):
    size = draw(st.integers(0, n))
    return draw(
        st.sets(st.integers(0, n - 1), min_size=0, max_size=size)
    )


class TestIntersectCounts:
    def test_matches_scalar_counts(self):
        vectors = [make(list(range(i, 200, i + 1)), 200) for i in range(6)]
        mask = make(list(range(0, 200, 3)), 200)
        assert intersect_counts(vectors, mask) == [
            v.intersect_count(mask) for v in vectors
        ]
        assert intersect_counts(vectors) == [v.count() for v in vectors]

    def test_empty_and_single(self):
        assert intersect_counts([]) == []
        v = make([1, 5, 9], 40)
        assert intersect_counts([v]) == [3]
        assert intersect_counts([v], make([5], 40)) == [1]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            intersect_counts([make([1], 10), make([1], 10)], make([1], 11))


class TestBitVectorProperties:
    """Hypothesis: BitVector algebra agrees with Python set algebra."""

    N = 257  # deliberately not a multiple of 64

    @given(index_sets(), index_sets())
    @settings(max_examples=60, deadline=None)
    def test_and_matches_sets(self, xs, ys):
        a, b = make(xs, self.N), make(ys, self.N)
        assert (a & b).count() == len(xs & ys)

    @given(index_sets(), index_sets())
    @settings(max_examples=60, deadline=None)
    def test_or_matches_sets(self, xs, ys):
        a, b = make(xs, self.N), make(ys, self.N)
        assert (a | b).count() == len(xs | ys)

    @given(index_sets())
    @settings(max_examples=60, deadline=None)
    def test_invert_complements(self, xs):
        a = make(xs, self.N)
        assert (~a).count() == self.N - len(xs)
        assert (a & ~a).count() == 0
        assert (a | ~a).count() == self.N

    @given(index_sets(), index_sets())
    @settings(max_examples=60, deadline=None)
    def test_difference_matches_sets(self, xs, ys):
        a, b = make(xs, self.N), make(ys, self.N)
        assert a.difference(b).count() == len(xs - ys)

    @given(index_sets(), index_sets(), index_sets())
    @settings(max_examples=40, deadline=None)
    def test_demorgan(self, xs, ys, zs):
        a, b, c = (make(s, self.N) for s in (xs, ys, zs))
        assert ~(a & b) == (~a | ~b)
        assert (a & (b | c)) == ((a & b) | (a & c))


class TestAudienceIndex:
    def _index(self):
        genders = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.uint8)
        ages = np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.uint8)
        return AudienceIndex(genders, ages)

    def test_demographic_vectors(self):
        index = self._index()
        assert index.gender(Gender.MALE).count() == 4
        assert index.gender(Gender.FEMALE).count() == 4
        for age in AGE_RANGES:
            assert index.age(age).count() == 2
        assert index.everyone.count() == 8

    def test_demographic_dispatch(self):
        index = self._index()
        assert index.demographic(Gender.MALE) == index.gender(Gender.MALE)
        assert index.demographic(AgeRange.AGE_55_PLUS) == index.age(
            AgeRange.AGE_55_PLUS
        )
        with pytest.raises(TypeError):
            index.demographic("male")  # type: ignore[arg-type]

    def test_add_and_lookup_attribute(self):
        index = self._index()
        index.add_attribute("attr:a", np.array([True] * 3 + [False] * 5))
        assert "attr:a" in index
        assert index.attribute("attr:a").count() == 3
        assert len(index) == 1
        assert list(index) == ["attr:a"]

    def test_duplicate_attribute_rejected(self):
        index = self._index()
        index.add_attribute("attr:a", np.zeros(8, dtype=bool))
        with pytest.raises(KeyError):
            index.add_attribute("attr:a", np.zeros(8, dtype=bool))

    def test_wrong_length_rejected(self):
        index = self._index()
        with pytest.raises(ValueError):
            index.add_attribute("attr:b", np.zeros(9, dtype=bool))

    def test_mismatched_demographics_rejected(self):
        with pytest.raises(ValueError):
            AudienceIndex(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))

    def test_attribute_counts(self):
        index = self._index()
        index.add_attribute("attr:a", np.array([True, False] * 4))
        assert index.attribute("attr:a").count() == 4
