"""Property tests for inclusion-exclusion union recall.

These run against a minimal in-memory stand-in for an AuditTarget, so
the combinatorial logic (Bonferroni truncation, zero-pruning,
convergence) is verified over arbitrary random set families independent
of the platform simulators.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overlap import union_recall


class SetTarget:
    """AuditTarget stand-in: compositions are plain Python sets."""

    supports_boolean_rules = True

    def __init__(self, universe_sets):
        # keys are single-option "compositions": ("s0",), ("s1",), ...
        self.sets = {f"s{i}": frozenset(s) for i, s in enumerate(universe_sets)}
        self.queries = 0

    def intersection_size(self, compositions, value=None, exclude=False):
        self.queries += 1
        acc = None
        for comp in compositions:
            (key,) = comp
            members = self.sets[key]
            acc = members if acc is None else acc & members
        return len(acc)


set_families = st.lists(
    st.sets(st.integers(0, 30), min_size=0, max_size=20),
    min_size=1,
    max_size=7,
)


class TestUnionRecallProperties:
    @given(set_families)
    @settings(max_examples=120, deadline=None)
    def test_exact_union_when_untruncated(self, family):
        target = SetTarget(family)
        comps = [(k,) for k in target.sets]
        estimate = union_recall(target, comps, rel_tol=0.0)
        exact = len(frozenset().union(*[target.sets[k] for k in target.sets]))
        assert estimate.estimate == exact
        assert estimate.converged

    @given(set_families)
    @settings(max_examples=120, deadline=None)
    def test_bonferroni_bounds_bracket_truth(self, family):
        target = SetTarget(family)
        comps = [(k,) for k in target.sets]
        estimate = union_recall(target, comps, rel_tol=0.0)
        exact = len(frozenset().union(*[target.sets[k] for k in target.sets]))
        for order, partial in enumerate(estimate.partial_sums, start=1):
            if order % 2 == 1:
                assert partial >= exact
            else:
                assert partial <= exact
        lo, hi = estimate.bounds()
        assert lo <= exact <= hi

    @given(set_families)
    @settings(max_examples=100, deadline=None)
    def test_zero_pruning_never_exceeds_full_term_count(self, family):
        target = SetTarget(family)
        comps = [(k,) for k in target.sets]
        union_recall(target, comps, rel_tol=0.0)
        n = len(comps)
        assert target.queries <= 2**n - 1

    @given(set_families)
    @settings(max_examples=100, deadline=None)
    def test_disjoint_family_needs_linear_queries(self, family):
        """When all sets are pairwise disjoint, pruning kills order 2."""
        # Make the family disjoint by tagging elements with their index.
        disjoint = [{(i, x) for x in s} for i, s in enumerate(family)]
        target = SetTarget(disjoint)
        comps = [(k,) for k in target.sets]
        estimate = union_recall(target, comps, rel_tol=0.0)
        exact = sum(len(s) for s in disjoint)
        assert estimate.estimate == exact
        n = len(comps)
        # order 1: n queries; order 2: at most C(n,2); nothing deeper.
        assert target.queries <= n + n * (n - 1) // 2

    @given(set_families, st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_truncation_returns_valid_bound(self, family, max_order):
        target = SetTarget(family)
        comps = [(k,) for k in target.sets]
        estimate = union_recall(
            target, comps, rel_tol=0.0, max_order=max_order
        )
        exact = len(frozenset().union(*[target.sets[k] for k in target.sets]))
        evaluated = len(estimate.partial_sums)
        if evaluated % 2 == 1:
            assert estimate.partial_sums[-1] >= exact
        else:
            assert estimate.partial_sums[-1] <= exact
