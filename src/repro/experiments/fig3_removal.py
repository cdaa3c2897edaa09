"""Experiment E3 -- Figure 3: removing skewed individual targetings.

Section 4.3 mitigation analysis for gender: remove the most
male-skewed (resp. female-skewed) individual options in 2-percentile
steps, re-discover the Top (resp. Bottom) 2-way compositions among the
survivors, and track the 90th (resp. 10th) percentile representation
ratio.

Headline check: even after removing the top 10th percentile of
male-skewed individual attributes on Facebook's restricted interface,
the resulting Top 2-way p90 was still 3.02 (highest 5.23) -- removal
reduces but does not eliminate compositional skew.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import removal_sweep
from repro.core.removal import RemovalCurve
from repro.experiments.context import ExperimentContext
from repro.population.demographics import Gender, attribute_of
from repro.reporting import Table, format_ratio

__all__ = ["Fig3Result", "run", "run_for_value"]

@dataclass
class Fig3Result:
    """Top and Bottom removal curves per interface (gender/male)."""

    top_curves: dict[str, RemovalCurve] = field(default_factory=dict)
    bottom_curves: dict[str, RemovalCurve] = field(default_factory=dict)

    def render(self) -> str:
        parts = ["Figure 3 — Removal of skewed individual targetings (male)"]
        for direction, curves in (
            ("Top 2-way (p90)", self.top_curves),
            ("Bottom 2-way (p10)", self.bottom_curves),
        ):
            percentiles = None
            table = None
            for key, curve in curves.items():
                series = curve.headline_series()
                if table is None:
                    percentiles = [p for p, _ in series]
                    table = Table(
                        ["interface"] + [f"{p:g}%" for p in percentiles]
                    )
                table.add_row(
                    key, *[format_ratio(r) for _, r in series]
                )
            parts += ["", direction, table.render() if table else "(none)"]
        return "\n".join(parts)


def run_for_value(
    ctx: ExperimentContext, value, keys: tuple[str, ...] | None = None
) -> Fig3Result:
    """Removal sweeps toward one sensitive value on the given interfaces."""
    attribute = attribute_of(value)
    result = Fig3Result()
    for key in keys or tuple(ctx.target_keys):
        individual = ctx.individuals(key, attribute.name)
        common = dict(
            target=ctx.target(key),
            attribute=attribute,
            individual=individual,
            value=value,
            percentiles=ctx.config.removal_percentiles,
            n_compositions=ctx.config.n_compositions,
            min_reach=ctx.config.min_reach,
            seed=ctx.config.seed,
        )
        result.top_curves[key] = removal_sweep(direction="top", **common)
        result.bottom_curves[key] = removal_sweep(direction="bottom", **common)
    return result


def run(ctx: ExperimentContext) -> Fig3Result:
    """Run E3 (gender/male) against the shared context."""
    return run_for_value(ctx, Gender.MALE)
