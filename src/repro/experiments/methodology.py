"""Experiment E10 -- Section 3's "Understanding size estimates".

Three sub-studies per interface, all driven through the API clients:

1. **Consistency**: 100 back-to-back repeated calls for 20 random
   targeting options and 20 random compositions; the paper finds the
   estimates consistent on all three platforms.
2. **Granularity**: pooling every estimate collected during the audit
   (the paper used 80,000+ distinct calls per platform) and inferring
   the rounding rule; expected inference -- Facebook 2 significant
   digits with minimum 1,000; Google 1 digit below 100k / 2 above with
   minimum 40; LinkedIn 2 digits with minimum 300.
3. **Sensitivity**: re-evaluating measured skew at the least skewed
   representation ratios consistent with the rounding ranges; the
   paper finds "very similar degrees of skew".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.rounding_study import (
    ConsistencyReport,
    GranularityReport,
    SensitivityReport,
    consistency_study,
    infer_granularity,
    sensitivity_study,
)
from repro.experiments.context import ExperimentContext
from repro.platforms.targeting import TargetingSpec
from repro.population.demographics import Gender
from repro.reporting import Table, format_percent

__all__ = ["MethodologyResult", "run"]


@dataclass
class MethodologyResult:
    """Per-interface consistency / granularity / sensitivity reports."""

    consistency: dict[str, ConsistencyReport] = field(default_factory=dict)
    granularity: dict[str, GranularityReport] = field(default_factory=dict)
    sensitivity: dict[str, SensitivityReport] = field(default_factory=dict)

    def render(self) -> str:
        table = Table(
            [
                "interface",
                "consistent",
                "granularity",
                "skew preserved at least-skewed ratio",
            ]
        )
        for key in self.granularity:
            consistency = self.consistency.get(key)
            sensitivity = self.sensitivity.get(key)
            table.add_row(
                key,
                "yes" if consistency and consistency.all_consistent else "NO",
                self.granularity[key].summary(),
                format_percent(sensitivity.skew_preserved_fraction)
                if sensitivity
                else "-",
            )
        return "Methodology — size-estimate studies\n" + table.render()


def _random_specs(
    ctx: ExperimentContext, key: str, n_options: int, n_compositions: int
) -> list[TargetingSpec]:
    rng = np.random.default_rng(ctx.config.seed)
    target = ctx.target(key)
    options = target.study_option_ids()
    specs: list[TargetingSpec] = []
    picks = rng.choice(len(options), size=min(n_options, len(options)), replace=False)
    specs += [TargetingSpec.of(options[i]) for i in picks]
    made = 0
    attempts = 0
    while made < n_compositions and attempts < 50 * n_compositions:
        attempts += 1
        i, j = rng.choice(len(options), size=2, replace=False)
        pair = (options[i], options[j])
        if not target.can_compose(pair):
            continue
        specs.append(TargetingSpec.of(*pair))
        made += 1
    return specs


def run(ctx: ExperimentContext) -> MethodologyResult:
    """Run E10 against the shared context, one interface at a time.

    The granularity analysis pools every estimate currently in the
    audit caches (so running this after the figure experiments analyses
    the same tens of thousands of calls the paper pooled); if a cache
    is empty, a fresh individual sweep fills it.
    """
    result = MethodologyResult()
    for key in ctx.target_keys:
        target = ctx.target(key)
        specs = _random_specs(
            ctx,
            key,
            ctx.config.consistency_targetings,
            ctx.config.consistency_targetings,
        )
        result.consistency[key] = consistency_study(
            target.measure_client, specs, repeats=ctx.config.consistency_repeats
        )

        individual = ctx.individuals(key, "gender")
        estimates: list[int] = individual.sizes.ravel().tolist()
        estimates += target.cached_estimates()
        result.granularity[key] = infer_granularity(estimates)

        rounding = ctx.session.suite.interfaces[key].rounding
        result.sensitivity[key] = sensitivity_study(
            individual.filtered(ctx.config.min_reach).audits,
            Gender.MALE,
            rounding,
        )
    return result
