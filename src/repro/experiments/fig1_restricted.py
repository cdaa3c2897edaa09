"""Experiment E1 -- Figure 1: Facebook's restricted interface.

Reproduces the motivating experiment of Section 4.1: distributions of
representation ratios on Facebook's restricted (special-ad-category)
interface, toward males and toward ages 18-24, for

* Individual -- the 393 restricted-interface attributes;
* Random 2-way -- 1,000 random attribute pairs;
* Top / Bottom 2-way -- the ~1,000 most skewed pairs toward/away;
* Top / Bottom 3-way -- the gender panel additionally shows 3-way
  compositions ("we find that the skew is indeed amplified further").

Headline paper numbers this experiment checks against: Individual
p90/p10 of 1.84/0.50 (gender) and 1.39/0.39 (age 18-24); Top 2-way
p90 up to 8.98; Top 3-way p90 19.77; Bottom 3-way p10 0.11.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.base import Panel, panel_from_sets
from repro.experiments.context import ExperimentContext
from repro.population.demographics import AgeRange, Gender

__all__ = ["Fig1Result", "run"]

_KEY = "facebook_restricted"


@dataclass
class Fig1Result:
    """Both panels of Figure 1 plus headline comparison numbers."""

    gender_panel: Panel
    age_panel: Panel
    headline: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        parts = [
            "Figure 1 — Facebook restricted interface",
            "",
            self.gender_panel.render(),
            "",
            self.age_panel.render(),
            "",
            "Headline numbers (paper → measured):",
        ]
        paper = {
            "individual_p90_male": 1.84,
            "individual_p10_male": 0.50,
            "individual_p90_age18_24": 1.39,
            "individual_p10_age18_24": 0.39,
            "top2_p90_male": 8.98,
            "bottom2_p10_male": 0.10,
            "top3_p90_male": 19.77,
            "bottom3_p10_male": 0.11,
        }
        for name, measured in self.headline.items():
            expected = paper.get(name)
            expected_str = f"{expected}" if expected is not None else "n/a"
            parts.append(f"  {name:<28s} {expected_str:>6s} → {measured:.2f}")
        return "\n".join(parts)


def run(ctx: ExperimentContext) -> Fig1Result:
    """Run E1 against the shared context."""
    gender_sets = ctx.figure_sets(_KEY, Gender.MALE, include_3way=True)
    age_sets = ctx.figure_sets(_KEY, AgeRange.AGE_18_24)

    gender_panel = panel_from_sets(
        "Repr. ratio male (FB-restricted)", gender_sets, Gender.MALE
    )
    age_panel = panel_from_sets(
        "Repr. ratio age 18-24 (FB-restricted)", age_sets, AgeRange.AGE_18_24
    )

    headline = {
        "individual_p90_male": gender_panel.row("Individual").p90,
        "individual_p10_male": gender_panel.row("Individual").p10,
        "individual_p90_age18_24": age_panel.row("Individual").p90,
        "individual_p10_age18_24": age_panel.row("Individual").p10,
        "top2_p90_male": gender_panel.row("Top 2-way").p90,
        "bottom2_p10_male": gender_panel.row("Bottom 2-way").p10,
        "top3_p90_male": gender_panel.row("Top 3-way").p90,
        "bottom3_p10_male": gender_panel.row("Bottom 3-way").p10,
    }
    return Fig1Result(
        gender_panel=gender_panel, age_panel=age_panel, headline=headline
    )
