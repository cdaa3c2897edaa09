"""Experiment E2 -- Figure 2: skew distributions across platforms.

Section 4.2/4.3: for Facebook, Google, and LinkedIn (the restricted
interface having been covered by Figure 1), plot the distributions of
representation ratios toward males and toward ages 18-24 for the
Individual / Random 2-way / Top 2-way / Bottom 2-way sets.

Headline checks: LinkedIn individual p90 toward males 2.09 vs
Facebook's 1.45; Google's and LinkedIn's attributes skewed away from
18-24; over 90% of the most-skewed pairs outside the four-fifths
thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stats import fraction_outside_four_fifths
from repro.experiments.base import Panel, panel_from_sets
from repro.experiments.context import ExperimentContext
from repro.population.demographics import AgeRange, Gender

__all__ = ["Fig2Result", "run"]

#: Figure 2 proper shows the three non-restricted platforms.
PLATFORM_KEYS = ("facebook", "google", "linkedin")


@dataclass
class Fig2Result:
    """Per-platform panels for the gender and age rows of Figure 2."""

    gender_panels: dict[str, Panel] = field(default_factory=dict)
    age_panels: dict[str, Panel] = field(default_factory=dict)
    skewed_pair_fraction: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        parts = ["Figure 2 — Individual and compositional skew per platform"]
        for key, panel in self.gender_panels.items():
            parts += ["", panel.render()]
        for key, panel in self.age_panels.items():
            parts += ["", panel.render()]
        parts += ["", "Fraction of Top 2-way pairs outside four-fifths:"]
        for key, frac in self.skewed_pair_fraction.items():
            parts.append(f"  {key:<12s} {frac:.1%} (paper: >90%)")
        return "\n".join(parts)


def run(ctx: ExperimentContext) -> Fig2Result:
    """Run E2 against the shared context, one platform at a time."""
    result = Fig2Result()
    for key in PLATFORM_KEYS:
        label = ctx.label(key)
        gender_sets = ctx.figure_sets(key, Gender.MALE)
        age_sets = ctx.figure_sets(key, AgeRange.AGE_18_24)
        result.gender_panels[key] = panel_from_sets(
            f"Repr. ratio male ({label})", gender_sets, Gender.MALE
        )
        result.age_panels[key] = panel_from_sets(
            f"Repr. ratio age 18-24 ({label})", age_sets, AgeRange.AGE_18_24
        )
        top = next(s for s in gender_sets if s.label == "Top 2-way")
        result.skewed_pair_fraction[key] = fraction_outside_four_fifths(
            top.ratios(Gender.MALE)
        )
    return result
