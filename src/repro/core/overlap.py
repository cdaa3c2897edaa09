"""Overlap and union-recall analysis of skewed compositions.

Section 4.3 ("Increasing recall") asks whether an advertiser can reach
more of a sensitive population by running ads across *multiple* skewed
compositions.  Two measurements support the answer:

* **pairwise overlaps** between the audiences of the top skewed
  compositions, measured conservatively as the intersection size over
  the smaller audience of the pair (footnote 12) -- possible on
  Facebook and LinkedIn because they express the intersection of two
  AND-compositions as a single and-of-ors rule (footnote 11);
* **union recall** of the top-k compositions, which needs an or-of-ands
  the platforms cannot express; the paper instead estimates it through
  the **inclusion-exclusion principle** over intersection queries,
  confirming the estimate converges as higher-order terms are added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.core.audit import AuditTarget
from repro.core.results import SensitiveValue

__all__ = [
    "OverlapStudy",
    "UnionRecallEstimate",
    "pairwise_overlaps",
    "union_recall",
]


@dataclass
class OverlapStudy:
    """Pairwise-overlap measurements among skewed compositions."""

    value: SensitiveValue
    overlaps: list[float]
    n_compositions: int

    @property
    def median_overlap(self) -> float:
        """Median pairwise overlap (what the paper's Table 1 reports)."""
        if not self.overlaps:
            return math.nan
        return float(np.median(self.overlaps))


def pairwise_overlaps(
    target: AuditTarget,
    compositions: Sequence[Sequence[str]],
    value: SensitiveValue,
    max_pairs: int | None = None,
    seed: int = 0,
    exclude: bool = False,
) -> OverlapStudy:
    """Measure pairwise audience overlaps within a composition set.

    For each pair, overlap = ``|A and B and RA_value|`` divided by the
    *smaller* of the two audiences (conservative, per footnote 12).
    Pairs whose smaller audience rounds to zero are skipped: their
    overlap is unmeasurable through the interface.

    ``max_pairs`` caps query load by random-sampling the pairs.
    """
    sizes = {
        tuple(c): target.intersection_size([c], value, exclude)
        for c in compositions
    }
    pairs = list(combinations([tuple(c) for c in compositions], 2))
    if max_pairs is not None and len(pairs) > max_pairs:
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[i] for i in sorted(picks)]

    overlaps: list[float] = []
    for a, b in pairs:
        smaller = min(sizes[a], sizes[b])
        if smaller == 0:
            continue
        inter = target.intersection_size([a, b], value, exclude)
        overlaps.append(inter / smaller)
    return OverlapStudy(
        value=value, overlaps=overlaps, n_compositions=len(compositions)
    )


@dataclass
class UnionRecallEstimate:
    """Inclusion-exclusion estimate of a union audience's size.

    ``partial_sums[k-1]`` is the truncated inclusion-exclusion sum
    through order ``k``; by the Bonferroni inequalities odd orders give
    upper bounds and even orders lower bounds, so convergence of the
    partial sums certifies the estimate.
    """

    value: SensitiveValue | None
    n_sets: int
    partial_sums: list[float] = field(default_factory=list)
    n_queries: int = 0
    converged: bool = False

    @property
    def estimate(self) -> float:
        """The converged union-size estimate (never negative)."""
        if not self.partial_sums:
            return 0.0
        return max(self.partial_sums[-1], 0.0)

    def bounds(self) -> tuple[float, float]:
        """Current (lower, upper) Bonferroni bounds."""
        if len(self.partial_sums) < 2:
            upper = self.partial_sums[0] if self.partial_sums else math.inf
            return (0.0, upper)
        last_two = sorted(self.partial_sums[-2:])
        return (max(last_two[0], 0.0), last_two[1])


def union_recall(
    target: AuditTarget,
    compositions: Sequence[Sequence[str]],
    value: SensitiveValue | None = None,
    rel_tol: float = 0.01,
    max_order: int | None = None,
    exclude: bool = False,
) -> UnionRecallEstimate:
    """Estimate ``|A_1 or ... or A_n|`` via inclusion-exclusion queries.

    Each term is one intersection-size query (an and-of-ors rule).
    Intersections that round to zero prune all their supersets, which is
    what makes the full 10-set analysis tractable -- audiences of
    high-order intersections are tiny and fall below the platforms'
    reporting minimums quickly.

    Evaluation stops once consecutive partial sums agree within
    ``rel_tol`` (the paper "confirmed that the estimated recalls
    converged as we successively added the higher-order terms").
    """
    comps = [tuple(c) for c in compositions]
    n = len(comps)
    if n == 0:
        return UnionRecallEstimate(value=value, n_sets=0, converged=True)
    max_order = n if max_order is None else min(max_order, n)

    result = UnionRecallEstimate(value=value, n_sets=n)
    running = 0.0
    # Subsets (by index tuple) with provably non-zero intersections at
    # the previous order; a superset can only be non-zero if every
    # sub-subset is.
    alive: set[tuple[int, ...]] = {()}

    for order in range(1, max_order + 1):
        term_total = 0.0
        next_alive: set[tuple[int, ...]] = set()
        for subset in combinations(range(n), order):
            if order > 1 and any(
                tuple(s for s in subset if s != drop) not in alive
                for drop in subset
            ):
                continue
            size = target.intersection_size(
                [comps[i] for i in subset], value, exclude
            )
            result.n_queries += 1
            if size > 0:
                next_alive.add(subset)
                term_total += size
        sign = 1.0 if order % 2 == 1 else -1.0
        running += sign * term_total
        result.partial_sums.append(running)
        alive = next_alive

        if not alive:
            result.converged = True
            break
        if len(result.partial_sums) >= 2:
            prev = result.partial_sums[-2]
            if abs(running - prev) <= rel_tol * max(abs(running), 1.0):
                result.converged = True
                break
    else:
        # Evaluated every order: the sum is exact, hence converged.
        result.converged = True
    return result
