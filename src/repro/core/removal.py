"""Mitigation analysis: removing the most skewed individual targetings.

Section 4.3 ("Removing skewed individual targetings") evaluates the
obvious mitigation -- drop the most skewed individual options from the
catalog -- by removing them in steps of two percentile and re-running
the greedy composition discovery on what remains.  The paper's Figures
3 and 6 plot the resulting 90th-percentile (Top 2-way) and
10th-percentile (Bottom 2-way) representation ratios: skew drops but
stays far outside the four-fifths band even after removing the top 10
percentile, which is the paper's case for outcome-based mitigations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.audit import AuditTarget
from repro.core.discovery import (
    DEFAULT_MIN_REACH,
    skewed_compositions,
)
from repro.core.results import CompositionSet, SensitiveValue
from repro.core.stats import BoxStats
from repro.population.demographics import SensitiveAttribute

__all__ = ["RemovalPoint", "RemovalCurve", "removal_sweep"]


@dataclass(frozen=True)
class RemovalPoint:
    """One point on a removal curve."""

    percentile_removed: float
    n_options_removed: int
    n_compositions: int
    box: BoxStats

    @property
    def headline_ratio(self) -> float:
        """The statistic the paper plots: p90 for 'top' curves."""
        return self.box.p90


@dataclass
class RemovalCurve:
    """Composition skew as a function of individual-option removal."""

    target_key: str
    value: SensitiveValue
    direction: str
    points: list[RemovalPoint] = field(default_factory=list)

    def headline_series(self) -> list[tuple[float, float]]:
        """(percentile removed, headline ratio) pairs.

        For ``direction="top"`` the headline is the 90th-percentile
        ratio; for ``"bottom"`` the 10th percentile, matching the
        paper's Figure 3 panels.
        """
        if self.direction == "top":
            return [(p.percentile_removed, p.box.p90) for p in self.points]
        return [(p.percentile_removed, p.box.p10) for p in self.points]

    def still_violates_at(self, percentile: float) -> bool:
        """Whether the headline ratio still violates four-fifths after
        removing ``percentile`` percent of skewed individuals."""
        from repro.core.metrics import violates_four_fifths

        for point in self.points:
            if point.percentile_removed == percentile:
                headline = (
                    point.box.p90 if self.direction == "top" else point.box.p10
                )
                return violates_four_fifths(headline)
        raise KeyError(f"no removal point at percentile {percentile}")


def _surviving_individuals(
    individual: CompositionSet,
    value: SensitiveValue,
    direction: str,
    percentile: float,
    min_reach: int,
) -> tuple[CompositionSet, int]:
    """Drop the ``percentile`` percent most skewed eligible options.

    "Most skewed" is direction-specific: for a ``top`` sweep the
    options most skewed *toward* the value are removed; for ``bottom``
    those most skewed *away*.  Returns the survivors and how many
    eligible options were removed.
    """
    eligible = [
        a
        for a in individual.audits
        if a.total_reach >= min_reach and not math.isnan(a.ratio(value))
    ]
    reverse = direction == "top"
    ranked = sorted(eligible, key=lambda a: a.ratio(value), reverse=reverse)
    n_remove = int(round(len(ranked) * percentile / 100.0))
    survivors = ranked[n_remove:]
    return CompositionSet(individual.label, survivors), len(ranked) - len(survivors)


def removal_sweep(
    target: AuditTarget,
    attribute: SensitiveAttribute,
    individual: CompositionSet,
    value: SensitiveValue,
    direction: str = "top",
    percentiles: Sequence[float] = (0, 2, 4, 6, 8, 10),
    n_compositions: int = 1000,
    min_reach: int = DEFAULT_MIN_REACH,
    seed: int = 0,
) -> RemovalCurve:
    """Re-discover skewed compositions after successive removals.

    Individual audits are reused (no re-measurement); each percentile
    step re-runs the greedy discovery over the surviving options and
    summarises the resulting composition ratios (reach-filtered, as
    everywhere in the paper).
    """
    if direction not in ("top", "bottom"):
        raise ValueError("direction must be 'top' or 'bottom'")
    curve = RemovalCurve(target_key=target.key, value=value, direction=direction)
    for percentile in percentiles:
        survivors, n_removed = _surviving_individuals(
            individual, value, direction, percentile, min_reach
        )
        composed = skewed_compositions(
            target,
            attribute,
            survivors,
            value,
            direction=direction,
            n=n_compositions,
            min_reach=min_reach,
            seed=seed,
        ).filtered(min_reach)
        curve.points.append(
            RemovalPoint(
                percentile_removed=float(percentile),
                n_options_removed=n_removed,
                n_compositions=len(composed),
                box=BoxStats.from_values(composed.ratios(value)),
            )
        )
    return curve
