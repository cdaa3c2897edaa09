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

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.audit import AuditTarget
from repro.core.discovery import (
    DEFAULT_MIN_REACH,
    candidates_from_ranking,
    rank_options,
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

    Individual audits are reused (no re-measurement).  The eligible
    options are ranked once, most skewed first ("most skewed" is
    direction-specific: toward ``value`` for ``top``, away for
    ``bottom``); the survivors of removing ``p`` percent are a suffix
    of that ranking.  Each step re-runs the greedy discovery over the
    survivors and summarises the resulting composition ratios
    (reach-filtered, as everywhere in the paper).
    """
    ranking = rank_options(individual, value, direction, min_reach)
    curve = RemovalCurve(target_key=target.key, value=value, direction=direction)
    for percentile in percentiles:
        n_remove = int(round(len(ranking) * percentile / 100.0))
        survivors = ranking[n_remove:]
        candidates = candidates_from_ranking(
            target, survivors, n=n_compositions, seed=seed
        )
        composed = target.audit_many(candidates, attribute).filtered(min_reach)
        curve.points.append(
            RemovalPoint(
                percentile_removed=float(percentile),
                n_options_removed=len(ranking) - len(survivors),
                n_compositions=len(composed),
                box=BoxStats.from_values(composed.ratio_column(value)),
            )
        )
    return curve
