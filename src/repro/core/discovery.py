"""Discovery of skewed targetings and targeting compositions.

Implements the paper's procedure for approximating the most skewed
compositions without an exhaustive crawl (Section 3, "Discovering the
most skewed compositions"):

1. audit every option in the default list individually;
2. rank by representation ratio toward the sensitive value, keeping
   only targetings with total reach >= 10,000;
3. greedily AND-combine the most skewed individuals -- the 46 most
   skewed yield C(46,2) = 1,035 pairs -- and randomly sample 1,000;
4. on Google, where options compose only across features, draw the
   skewed individuals from each feature separately (the per-feature
   counts needed "vary from case to case and have to be computed in
   each case", footnote 9).

Random compositions ("Random 2-way") are sampled uniformly from the
composable option pairs as the honest-advertiser baseline.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.core.audit import AuditTarget
from repro.core.results import CompositionSet, SensitiveValue
from repro.population.demographics import SensitiveAttribute

__all__ = [
    "DEFAULT_MIN_REACH",
    "audit_individuals",
    "random_compositions",
    "rank_options",
    "greedy_candidates",
    "candidates_from_ranking",
    "skewed_compositions",
    "smallest_k_for_combinations",
]

#: The paper's niche-targeting floor: targetings with total recall under
#: 10,000 are ignored throughout.
DEFAULT_MIN_REACH = 10_000


def smallest_k_for_combinations(n_target: int, arity: int) -> int:
    """Smallest ``k`` with ``C(k, arity) >= n_target``.

    For the paper's parameters (1,000 pairs) this returns 46, matching
    the "46 most skewed individual attributes, resulting in 1,035
    pairs" in Section 3.
    """
    if n_target < 1 or arity < 1:
        raise ValueError("n_target and arity must be positive")
    k = arity
    while math.comb(k, arity) < n_target:
        k += 1
    return k


def audit_individuals(
    target: AuditTarget,
    attribute: SensitiveAttribute,
    option_ids: Sequence[str] | None = None,
    label: str = "Individual",
) -> CompositionSet:
    """Audit every option of the default study list individually.

    ``option_ids`` narrows the list; an empty one audits nothing.
    """
    if option_ids is None:
        option_ids = target.study_option_ids()
    return target.audit_many([(o,) for o in option_ids], attribute, label=label)


def random_compositions(
    target: AuditTarget,
    attribute: SensitiveAttribute,
    arity: int = 2,
    n: int = 1000,
    seed: int = 0,
    option_ids: Sequence[str] | None = None,
    label: str | None = None,
) -> CompositionSet:
    """Audit ``n`` uniformly random composable ``arity``-way compositions.

    Sampling is rejection-based against the platform's composition
    rules (so on Google only cross-feature pairs are drawn) and
    deduplicated.
    """
    rng = np.random.default_rng(seed)
    options = list(
        target.study_option_ids() if option_ids is None else option_ids
    )
    n_options = len(options)
    if n_options < arity:
        raise ValueError("not enough options to compose")
    chosen: set[tuple[str, ...]] = set()
    attempts = 0
    max_attempts = 200 * n
    while len(chosen) < n and attempts < max_attempts:
        # Draw a whole block of candidate index tuples per rng call;
        # rows with a repeated index are rejected, leaving each
        # surviving row uniform over the distinct arity-subsets.
        block = min(max(256, 4 * (n - len(chosen))), max_attempts - attempts)
        attempts += block
        draws = rng.integers(0, n_options, size=(block, arity))
        ordered = np.sort(draws, axis=1)
        keep = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
        for row in draws[keep]:
            combo = tuple(sorted(options[i] for i in row))
            if combo in chosen or not target.can_compose(combo):
                continue
            chosen.add(combo)
            if len(chosen) >= n:
                break
    return target.audit_many(
        sorted(chosen), attribute, label=label or f"Random {arity}-way"
    )


def rank_options(
    individual: CompositionSet,
    value: SensitiveValue,
    direction: str,
    min_reach: int,
) -> list[str]:
    """Study options ranked by skew toward ``value``.

    ``direction="top"`` ranks most-skewed-toward first;
    ``direction="bottom"`` most-skewed-away first.  Only individual
    targetings above the reach floor with a defined ratio participate,
    per the paper.  Ties keep set order, as Python's stable sort does.
    """
    if direction not in ("top", "bottom"):
        raise ValueError("direction must be 'top' or 'bottom'")
    ratios = individual.ratio_column(value)
    eligible = np.flatnonzero(
        (individual.reach() >= min_reach) & ~np.isnan(ratios)
    )
    key = ratios[eligible]
    order = np.argsort(-key if direction == "top" else key, kind="stable")
    options = individual.options
    return [options[i][0] for i in eligible[order].tolist()]


def greedy_candidates(
    target: AuditTarget,
    individual: CompositionSet,
    value: SensitiveValue,
    direction: str = "top",
    arity: int = 2,
    n: int = 1000,
    min_reach: int = DEFAULT_MIN_REACH,
    seed: int = 0,
) -> list[tuple[str, ...]]:
    """Candidate compositions from greedily combining skewed individuals.

    Returns at most ``n`` compositions, randomly sampled from the
    greedy candidate pool as in the paper.
    """
    ranked = rank_options(individual, value, direction, min_reach)
    return candidates_from_ranking(target, ranked, arity, n, seed)


def candidates_from_ranking(
    target: AuditTarget,
    ranked: Sequence[str],
    arity: int = 2,
    n: int = 1000,
    seed: int = 0,
) -> list[tuple[str, ...]]:
    """The greedy pool over options already ranked by :func:`rank_options`,
    sampled down to ``n`` compositions."""
    rng = np.random.default_rng(seed)
    if not ranked:
        return []

    if target.cross_feature_only:
        if arity != 2:
            raise ValueError(
                f"{target.name} composes across exactly two features; "
                f"{arity}-way compositions are not expressible"
            )
        by_feature: dict[str, list[str]] = {}
        for option in ranked:
            by_feature.setdefault(target.feature_of(option), []).append(option)
        features = sorted(by_feature, key=lambda f: -len(by_feature[f]))[:2]
        if len(features) < 2:
            return []
        first, second = by_feature[features[0]], by_feature[features[1]]
        # Grow per-feature prefixes until the cross product covers n
        # (footnote 9: the counts vary and must be computed per case).
        k1 = k2 = 1
        while k1 * k2 < n and (k1 < len(first) or k2 < len(second)):
            if k1 <= k2 and k1 < len(first):
                k1 += 1
            elif k2 < len(second):
                k2 += 1
            else:
                k1 += 1
        pool = [
            tuple(sorted((a, b)))
            for a in first[:k1]
            for b in second[:k2]
        ]
    else:
        k = smallest_k_for_combinations(n, arity)
        k = min(k, len(ranked))
        pool = [tuple(sorted(c)) for c in combinations(ranked[:k], arity)]

    pool = [c for c in pool if target.can_compose(c)]
    if len(pool) <= n:
        return pool
    picks = rng.choice(len(pool), size=n, replace=False)
    return [pool[i] for i in sorted(picks)]


def skewed_compositions(
    target: AuditTarget,
    attribute: SensitiveAttribute,
    individual: CompositionSet,
    value: SensitiveValue,
    direction: str = "top",
    arity: int = 2,
    n: int = 1000,
    min_reach: int = DEFAULT_MIN_REACH,
    seed: int = 0,
    label: str | None = None,
) -> CompositionSet:
    """Audit the greedy top/bottom composition set.

    ``label`` defaults to the paper's naming, e.g. ``"Top 2-way"``.
    """
    candidates = greedy_candidates(
        target, individual, value, direction, arity, n, min_reach, seed
    )
    return target.audit_many(
        candidates,
        attribute,
        label=label or f"{direction.capitalize()} {arity}-way",
    )
