"""Experiment E4 -- Figure 4: skew distributions across age ranges.

Appendix A extends Figures 1-2 to the remaining age ranges (25-34,
35-54, 55+) across all four interfaces.  The qualitative expectation:
individual attributes already contain highly skewed options, random
pairs moderately exacerbate the skew, and the most skewed pairs
exacerbate it further -- in particular, older users (e.g. 55+ on
LinkedIn) can be effectively excluded via compositions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.base import Panel, panel_from_sets
from repro.experiments.context import ExperimentContext
from repro.population.demographics import AgeRange

__all__ = ["Fig4Result", "run", "FIG4_AGES"]

#: The age panels Figure 4 adds beyond Figure 1/2's 18-24.
FIG4_AGES: tuple[AgeRange, ...] = (
    AgeRange.AGE_25_34,
    AgeRange.AGE_35_54,
    AgeRange.AGE_55_PLUS,
)


@dataclass
class Fig4Result:
    """Panels keyed by (age range, interface key)."""

    panels: dict[tuple[AgeRange, str], Panel] = field(default_factory=dict)

    def panel(self, age: AgeRange, key: str) -> Panel:
        """Panel for one age range on one interface."""
        return self.panels[(age, key)]

    def render(self) -> str:
        parts = ["Figure 4 — Skew across age ranges (all interfaces)"]
        for (age, key), panel in self.panels.items():
            parts += ["", panel.render()]
        return "\n".join(parts)


def run(
    ctx: ExperimentContext,
    ages: tuple[AgeRange, ...] = FIG4_AGES,
    keys: tuple[str, ...] | None = None,
) -> Fig4Result:
    """Run E4 against the shared context.

    Panels are computed one interface at a time (the order the queries
    go out in) and presented age-major.
    """
    keys = keys or tuple(ctx.target_keys)
    panels = {
        (age, key): panel_from_sets(
            f"Repr. ratio age {age.label} ({ctx.label(key)})",
            ctx.figure_sets(key, age),
            age,
        )
        for key in keys
        for age in ages
    }
    return Fig4Result({(age, key): panels[age, key] for age in ages for key in keys})
