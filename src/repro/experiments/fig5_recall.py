"""Experiment E5 -- Figure 5: recall of skewed targetings.

Section 4.3 ("Recall of targeting compositions") and Appendix A: for
each favoured sensitive population and each interface, plot the
distribution of recalls (|TA and RA_s|) achieved by

* all individual targeting options (reference),
* the individually *skewed* options (outside four-fifths toward the
  favoured population),
* the skewed Random 2-way pairs,
* the skewed Top 2-way pairs,

alongside the total size of the sensitive population on that platform.

Headline checks (females): Top 2-way median recalls of 570K (0.47%),
1.9M (1.58%), 170K (0.01%), 46K (0.06%) on FB-restricted / FB / Google
/ LinkedIn, and median individual recalls of 3.2M / 5.2M / 11M / 1.4M;
compositions achieve substantially lower recalls than individual
options while remaining large enough to be useful to advertisers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core import CompositionSet
from repro.core.stats import BoxStats
from repro.experiments.context import ExperimentContext
from repro.experiments.populations import FIG5_POPULATIONS, FavoredPopulation
from repro.reporting import Table, format_count, format_percent

__all__ = ["RecallPanel", "Fig5Result", "run"]


@dataclass
class RecallPanel:
    """Recall distributions for one (population, interface) pair."""

    population: FavoredPopulation
    target_key: str
    population_size: int
    rows: list[tuple[str, BoxStats]] = field(default_factory=list)

    def row(self, label: str) -> BoxStats:
        """Stats row by label."""
        for row_label, box in self.rows:
            if row_label == label:
                return box
        raise KeyError(label)

    def median_recall_fraction(self, label: str) -> float:
        """Median recall as a fraction of the sensitive population."""
        box = self.row(label)
        if box.is_empty or self.population_size == 0:
            return math.nan
        return box.median / self.population_size


@dataclass
class Fig5Result:
    """All recall panels, keyed by (population label, interface key)."""

    panels: dict[tuple[str, str], RecallPanel] = field(default_factory=dict)

    def panel(self, population_label: str, key: str) -> RecallPanel:
        """Panel lookup."""
        return self.panels[(population_label, key)]

    def render(self) -> str:
        parts = ["Figure 5 — Recall of skewed targetings"]
        current_pop = None
        table: Table | None = None
        for (pop_label, key), panel in self.panels.items():
            if pop_label != current_pop:
                if table is not None:
                    parts += ["", f"Recall {current_pop}", table.render()]
                current_pop = pop_label
                table = Table(
                    [
                        "interface",
                        "population",
                        "med individual",
                        "med ind-skewed",
                        "med random-skewed",
                        "med top 2-way",
                        "top2 med %",
                    ]
                )
            med = panel.median_recall_fraction("Top 2-way (skewed)")
            table.add_row(
                key,
                format_count(panel.population_size),
                format_count(panel.row("Individual (all)").median),
                format_count(panel.row("Individual (skewed)").median),
                format_count(panel.row("Random 2-way (skewed)").median),
                format_count(panel.row("Top 2-way (skewed)").median),
                format_percent(med),
            )
        if table is not None:
            parts += ["", f"Recall {current_pop}", table.render()]
        return "\n".join(parts)


def _recalls(
    composition_set: CompositionSet,
    population: FavoredPopulation,
    skewed_only: bool,
) -> np.ndarray:
    recalls = population.recalls(composition_set)
    if skewed_only:
        recalls = recalls[population.favours(composition_set)]
    return recalls


def _panel(
    ctx: ExperimentContext, key: str, population: FavoredPopulation
) -> RecallPanel:
    """Recall distributions of one population on one interface."""
    attribute = population.attribute
    individual = ctx.individuals(key, attribute.name).filtered(
        ctx.config.min_reach
    )
    random_set = ctx.random_set(key, attribute.name).filtered(
        ctx.config.min_reach
    )
    top_set = ctx.skewed_set(
        key, population.value, population.direction
    ).filtered(ctx.config.min_reach)
    bases = ctx.target(key).base_sizes(attribute)
    return RecallPanel(
        population=population,
        target_key=key,
        population_size=population.population_size(bases),
        rows=[
            (
                "Individual (all)",
                BoxStats.from_values(_recalls(individual, population, False)),
            ),
            (
                "Individual (skewed)",
                BoxStats.from_values(_recalls(individual, population, True)),
            ),
            (
                "Random 2-way (skewed)",
                BoxStats.from_values(_recalls(random_set, population, True)),
            ),
            (
                "Top 2-way (skewed)",
                BoxStats.from_values(_recalls(top_set, population, True)),
            ),
        ],
    )


def run(
    ctx: ExperimentContext,
    populations: tuple[FavoredPopulation, ...] = FIG5_POPULATIONS,
    keys: tuple[str, ...] | None = None,
) -> Fig5Result:
    """Run E5 against the shared context.

    Panels are computed one interface at a time (the order the queries
    go out in) and presented population-major.
    """
    keys = keys or tuple(ctx.target_keys)
    panels = {
        (population.label, key): _panel(ctx, key, population)
        for key in keys
        for population in populations
    }
    return Fig5Result(
        {
            (population.label, key): panels[population.label, key]
            for population in populations
            for key in keys
        }
    )
