"""Tests for the targeting grammar (specs, clauses, intersections)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platforms.targeting import Clause, TargetingSpec, spec_intersection
from repro.population.demographics import AgeRange, Gender

SRC = Path(__file__).resolve().parent.parent / "src"


class TestClause:
    def test_basic(self):
        clause = Clause(["b", "a"])
        assert len(clause) == 2
        assert list(clause) == ["a", "b"]
        assert "a" in clause

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Clause([])

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            Clause([1])  # type: ignore[list-item]


class TestTargetingSpec:
    def test_everyone(self):
        spec = TargetingSpec.everyone()
        assert spec.clauses == () and spec.exclusions == frozenset()
        assert spec.option_ids == frozenset()

    def test_of_composition(self):
        spec = TargetingSpec.of("a", "b")
        assert len(spec.clauses) == 2
        assert all(len(c) == 1 for c in spec.clauses)

    def test_and_of_ors(self):
        spec = TargetingSpec.and_of_ors([["a", "b"], ["c"]])
        assert len(spec.clauses) == 2
        assert spec.option_ids == frozenset({"a", "b", "c"})

    def test_with_gender_and_age(self):
        spec = TargetingSpec.everyone().with_gender(Gender.MALE).with_age(
            AgeRange.AGE_18_24
        )
        assert spec.genders == frozenset({Gender.MALE})
        assert spec.age_ranges == frozenset({AgeRange.AGE_18_24})

    def test_refinement_is_immutable(self):
        base = TargetingSpec.of("a")
        refined = base.with_gender(Gender.MALE)
        assert base.genders is None
        assert refined is not base

    def test_excluding(self):
        spec = TargetingSpec.of("a").excluding("b", "c")
        assert spec.exclusions == frozenset({"b", "c"})
        assert spec.option_ids == frozenset({"a", "b", "c"})

    def test_empty_gender_set_rejected(self):
        with pytest.raises(ValueError):
            TargetingSpec(genders=frozenset())

    def test_hashable_and_cacheable(self):
        a = TargetingSpec.of("a", "b").with_gender(Gender.MALE)
        b = TargetingSpec.of("b", "a").with_gender(Gender.MALE)
        # clause order differs -> different specs; same order -> equal
        assert a == TargetingSpec.of("a", "b").with_gender(Gender.MALE)
        assert hash(a) == hash(TargetingSpec.of("a", "b").with_gender(Gender.MALE))

    def test_describe(self):
        spec = TargetingSpec.and_of_ors([["x", "y"], ["z"]]).excluding("w")
        text = spec.describe({"x": "X", "y": "Y", "z": "Z", "w": "W"})
        assert "US" in text and "(X OR Y)" in text and "Z" in text and "NOT W" in text


class TestSpecIntersection:
    def test_merges_clauses(self):
        a = TargetingSpec.of("a", "b")
        b = TargetingSpec.of("c", "d")
        merged = spec_intersection(a, b)
        assert len(merged.clauses) == 4

    def test_deduplicates_clauses(self):
        a = TargetingSpec.of("a", "b")
        b = TargetingSpec.of("b", "c")
        merged = spec_intersection(a, b)
        assert len(merged.clauses) == 3

    def test_intersects_demographics(self):
        a = TargetingSpec.of("a").with_ages(
            [AgeRange.AGE_18_24, AgeRange.AGE_25_34]
        )
        b = TargetingSpec.of("b").with_ages(
            [AgeRange.AGE_25_34, AgeRange.AGE_35_54]
        )
        merged = spec_intersection(a, b)
        assert merged.age_ranges == frozenset({AgeRange.AGE_25_34})

    def test_disjoint_demographics_rejected(self):
        a = TargetingSpec.of("a").with_gender(Gender.MALE)
        b = TargetingSpec.of("b").with_gender(Gender.FEMALE)
        with pytest.raises(ValueError):
            spec_intersection(a, b)

    def test_country_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spec_intersection(
                TargetingSpec.of("a"), TargetingSpec.of("b", country="CA")
            )

    def test_needs_one_spec(self):
        with pytest.raises(ValueError):
            spec_intersection()

    def test_merges_exclusions(self):
        a = TargetingSpec.of("a").excluding("x")
        b = TargetingSpec.of("b").excluding("y")
        assert spec_intersection(a, b).exclusions == frozenset({"x", "y"})


option_ids = st.text(
    alphabet="abcdefgh", min_size=1, max_size=3
).map(lambda s: f"opt:{s}")


class TestSpecIntersectionProperties:
    @given(
        st.lists(st.lists(option_ids, min_size=1, max_size=3), min_size=1, max_size=3),
        st.lists(st.lists(option_ids, min_size=1, max_size=3), min_size=1, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_intersection_is_commutative_as_sets(self, groups_a, groups_b):
        a = TargetingSpec.and_of_ors(groups_a)
        b = TargetingSpec.and_of_ors(groups_b)
        ab = spec_intersection(a, b)
        ba = spec_intersection(b, a)
        assert {c.options for c in ab.clauses} == {c.options for c in ba.clauses}

    @given(
        st.lists(
            st.lists(option_ids, min_size=1, max_size=3), min_size=1, max_size=4
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_self_intersection_is_identity_on_clause_sets(self, groups):
        a = TargetingSpec.and_of_ors(groups)
        aa = spec_intersection(a, a)
        assert {c.options for c in aa.clauses} == {c.options for c in a.clauses}


_SPEC_SOURCE = """
import pickle, sys
from repro.platforms.targeting import TargetingSpec
from repro.population.demographics import Gender
spec = TargetingSpec.of("fb:a", "fb:b").with_gender(Gender.MALE)
"""

#: Hashes a spec and pickles it to stdout.
_SEND_SPEC = _SPEC_SOURCE + """
hash(spec)
sys.stdout.buffer.write(pickle.dumps(spec))
"""

#: Unpickles a spec from stdin and looks it up by an equal local spec.
_RECEIVE_SPEC = _SPEC_SOURCE + """
remote = pickle.loads(sys.stdin.buffer.read())
assert remote == spec
print(hash(remote) == hash(spec), {remote: 1}.get(spec))
"""


def _run_under_hash_seed(source: str, hash_seed: int, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", source],
        env=env,
        input=stdin,
        capture_output=True,
        check=True,
    ).stdout


def test_unpickled_spec_rehashes_under_another_hash_seed():
    """A spec pickled in a process with another hash seed (for example
    a checkpoint or result shipped between runs) must land in the same
    dict bucket as an equal local one: nothing salted may travel with
    it."""
    payload = _run_under_hash_seed(_SEND_SPEC, 123)
    assert _run_under_hash_seed(_RECEIVE_SPEC, 7, payload).split() == [
        b"True",
        b"1",
    ]
