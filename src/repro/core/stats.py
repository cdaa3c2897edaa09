"""Distribution summaries matching the paper's box plots.

Each box plot in the paper shows the median (thick line), the 25th and
75th percentiles (box edges), the 10th and 90th percentiles (whiskers),
and the tails beyond those as outlier points (footnote 10).
:class:`BoxStats` captures exactly those statistics so experiment
output can be compared number-for-number with the figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.metrics import FOUR_FIFTHS_HIGH, FOUR_FIFTHS_LOW

__all__ = ["BoxStats", "fraction_outside_four_fifths"]


@dataclass(frozen=True)
class BoxStats:
    """Box-plot statistics of one distribution."""

    n: int
    minimum: float
    p10: float
    p25: float
    median: float
    p75: float
    p90: float
    maximum: float
    mean: float

    @classmethod
    def from_values(cls, values: Iterable[float] | np.ndarray) -> "BoxStats":
        """Summarise finite values; NaNs and infinities are dropped.

        An ndarray is read as is; any other iterable is listed first.
        """
        if not isinstance(values, np.ndarray):
            values = list(values)
        arr = np.asarray(values, dtype=float)
        arr = arr[np.isfinite(arr)]
        if arr.size == 0:
            nan = float("nan")
            return cls(0, nan, nan, nan, nan, nan, nan, nan, nan)
        p10, p25, p50, p75, p90 = np.percentile(arr, [10, 25, 50, 75, 90])
        return cls(
            n=int(arr.size),
            minimum=float(arr.min()),
            p10=float(p10),
            p25=float(p25),
            median=float(p50),
            p75=float(p75),
            p90=float(p90),
            maximum=float(arr.max()),
            mean=float(arr.mean()),
        )

    @property
    def is_empty(self) -> bool:
        """True when no finite values were summarised."""
        return self.n == 0


def fraction_outside_four_fifths(values: Sequence[float]) -> float:
    """Fraction of ratios violating the four-fifths thresholds.

    Infinite ratios count as violations; NaNs are dropped.  The paper
    reports that over 90 percent of the most-skewed pairs fall outside
    the thresholds (Section 4.3).
    """
    kept = [v for v in values if not math.isnan(v)]
    if not kept:
        return math.nan
    outside = sum(
        1 for v in kept if v <= FOUR_FIFTHS_LOW or v >= FOUR_FIFTHS_HIGH
    )
    return outside / len(kept)
