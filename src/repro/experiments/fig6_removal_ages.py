"""Experiment E6 -- Figure 6: removal sweeps for age ranges.

Appendix A's extension of Figure 3: the same
remove-then-rediscover mitigation analysis, run for the age ranges.
The paper's observation: "in most cases, the removal of even the top
10 percentile most skewed individual attributes is insufficient to
mitigate skew in the resulting targeting compositions", with a few
exceptions (e.g. selectively including 18-24 on LinkedIn) where the
p90 does drop inside the four-fifths band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.context import ExperimentContext
from repro.experiments.fig3_removal import Fig3Result, run_for_value
from repro.population.demographics import AGE_RANGES, AgeRange

__all__ = ["Fig6Result", "run", "FIG6_AGES"]

#: Age ranges swept by Figure 6 (all four; the paper plots 18-24,
#: 25-34, 35-54 "top" panels plus both directions for 55+).
FIG6_AGES: tuple[AgeRange, ...] = AGE_RANGES


@dataclass
class Fig6Result:
    """Per-age removal results (each itself a Fig3-shaped result)."""

    by_age: dict[AgeRange, Fig3Result] = field(default_factory=dict)

    def render(self) -> str:
        parts = ["Figure 6 — Removal sweeps across age ranges"]
        for age, sub in self.by_age.items():
            rendered = sub.render().replace(
                "Figure 3 — Removal of skewed individual targetings (male)",
                f"Age {age.label}:",
            )
            parts += ["", rendered]
        return "\n".join(parts)


def run(
    ctx: ExperimentContext,
    ages: tuple[AgeRange, ...] = FIG6_AGES,
    keys: tuple[str, ...] | None = None,
) -> Fig6Result:
    """Run E6 against the shared context.

    Sweeps run one interface at a time (the order the queries go out
    in) and are presented age-major.
    """
    keys = keys or tuple(ctx.target_keys)
    result = Fig6Result({age: Fig3Result() for age in ages})
    for key in keys:
        for age in ages:
            sweep = run_for_value(ctx, age, keys=(key,))
            result.by_age[age].top_curves.update(sweep.top_curves)
            result.by_age[age].bottom_curves.update(sweep.bottom_curves)
    return result
