"""Skew metrics: representation ratio, recall, and the four-fifths rule.

The paper's central metric is the **representation ratio** (Equation 1,
adopted from Speicher et al. and inspired by the disparate-impact
doctrine): within the relevant audience ``RA`` (all US users of the
platform), how much more likely is a user of sensitive population
``RA_s`` to be included in the targeted audience ``TA`` than a user
outside it?

.. math::

    \\mathrm{rep\\_ratio}_s(TA, RA) =
        \\frac{|TA \\cap RA_s| / |RA_s|}{|TA \\cap RA_{\\neg s}| / |RA_{\\neg s}|}

A ratio of 1 is ideal; following the four-fifths rule used to detect
disparate impact in employment, ratios of **1.25 or above** (over-
representation) or **0.8 and below** (under-representation) are
flagged.

**Recall** is the absolute number of users of the sensitive population
the targeting reaches: ``|TA AND RA_s|`` when including ``s``,
``|TA AND RA_{not s}|`` when excluding it.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence, TypeVar

import numpy as np

__all__ = [
    "FOUR_FIFTHS_LOW",
    "FOUR_FIFTHS_HIGH",
    "representation_ratio",
    "representation_ratio_from_sizes",
    "representation_ratios",
    "recall_including",
    "recall_excluding",
    "violates_four_fifths",
    "least_skewed_ratio",
]

#: Four-fifths rule thresholds (Section 3): under-representation below
#: 0.8, over-representation at or above 1.25 (= 1/0.8).
FOUR_FIFTHS_LOW = 0.8
FOUR_FIFTHS_HIGH = 1.25

V = TypeVar("V")


def representation_ratio(
    included_s: float,
    base_s: float,
    included_not_s: float,
    base_not_s: float,
) -> float:
    """Representation ratio from the four audience sizes of Equation 1.

    Returns ``inf`` when the targeting reaches members of ``RA_s`` but
    no one outside it, and ``nan`` when it reaches no one at all (the
    ratio is undefined; callers drop NaNs from distributions).
    """
    if min(included_s, included_not_s) < 0 or min(base_s, base_not_s) <= 0:
        raise ValueError("audience sizes must be non-negative, bases positive")
    share_s = included_s / base_s
    share_not_s = included_not_s / base_not_s
    if share_not_s == 0:
        return math.inf if share_s > 0 else math.nan
    return share_s / share_not_s


def representation_ratio_from_sizes(
    sizes: Mapping[V, float], bases: Mapping[V, float], s: V
) -> float:
    """Equation 1 computed from per-value size maps.

    ``sizes[v]`` is ``|TA AND RA_v|`` and ``bases[v]`` is ``|RA_v|``;
    the complement ``RA_{not s}`` aggregates every other value, exactly
    as the paper computes it (Section 3, "Targeting audiences").
    """
    if s not in sizes or s not in bases:
        raise KeyError(f"value {s!r} missing from size maps")
    included_not_s = sum(size for v, size in sizes.items() if v != s)
    base_not_s = sum(base for v, base in bases.items() if v != s)
    return representation_ratio(sizes[s], bases[s], included_not_s, base_not_s)


def representation_ratios(
    sizes: np.ndarray, bases: Sequence[int], column: int
) -> np.ndarray:
    """Equation 1 for every row of a size matrix, toward value ``column``.

    ``sizes[i, v]`` is ``|TA_i AND RA_v|`` (int64) and ``bases[v]`` is
    ``|RA_v|``.  Each entry equals :func:`representation_ratio_from_sizes`
    on that row bit for bit: the int64 sums are exact, int-to-float64
    conversion is exact below 2**53 (where Python's int true division
    divides the same two doubles), and a zero complement share gives
    ``inf`` or ``nan`` exactly as the scalar does.
    """
    base_s = int(bases[column])
    base_not_s = sum(int(base) for base in bases) - base_s
    included_s = sizes[:, column]
    included_not_s = sizes.sum(axis=1) - included_s
    if (
        min(base_s, base_not_s) <= 0
        or (included_s < 0).any()
        or (included_not_s < 0).any()
    ):
        raise ValueError("audience sizes must be non-negative, bases positive")
    share_s = included_s / base_s
    share_not_s = included_not_s / base_not_s
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = share_s / share_not_s
    # 0/0 yields the platform's default NaN; store the scalar's math.nan.
    ratios[(share_not_s == 0) & (share_s == 0)] = math.nan
    return ratios


def recall_including(sizes: Mapping[V, float], s: V) -> float:
    """Recall of a targeting that selectively *includes* ``RA_s``."""
    return sizes[s]


def recall_excluding(sizes: Mapping[V, float], s: V) -> float:
    """Recall of a targeting that selectively *excludes* ``RA_s``."""
    return sum(size for v, size in sizes.items() if v != s)


def violates_four_fifths(ratio: float) -> bool:
    """Whether a ratio falls outside the four-fifths band.

    NaN ratios (undefined, empty audiences) do not violate; infinite
    ratios do.
    """
    if math.isnan(ratio):
        return False
    return ratio <= FOUR_FIFTHS_LOW or ratio >= FOUR_FIFTHS_HIGH


def least_skewed_ratio(
    ratio_low: float, ratio_high: float
) -> float:
    """The value closest to 1 inside a ratio uncertainty interval.

    Used by the rounding-sensitivity analysis: given the interval of
    representation ratios consistent with the rounding ranges of the
    underlying estimates, the paper checks whether even the *least
    skewed* consistent value still shows similar skew.
    """
    if math.isnan(ratio_low) or math.isnan(ratio_high):
        return math.nan
    lo, hi = min(ratio_low, ratio_high), max(ratio_low, ratio_high)
    if lo <= 1.0 <= hi:
        return 1.0
    return lo if lo > 1.0 else hi
