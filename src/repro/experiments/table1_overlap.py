"""Experiment E7 -- Table 1: overlap and union recall.

Section 4.3 ("Increasing recall") and Appendix A: for each favoured
population (Male, Female, Age not 18-24, Age not 55+) on the three
interfaces supporting boolean rules (FB-restricted, Facebook,
LinkedIn -- Google shows no size statistics for boolean combinations):

* median pairwise overlap between the audiences of the top 100 skewed
  compositions toward the population (conservative: intersection over
  the smaller audience);
* recall of the single most skewed composition (Top-1);
* total recall of the top 10 compositions, estimated through the
  inclusion-exclusion principle with convergence confirmation.

Headline checks: overlaps are small (largest median 22.58%); Top-10
union recall is several times Top-1 (e.g. females on FB-restricted:
1.1M -> 6.1M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core import pairwise_overlaps, union_recall
from repro.core.overlap import UnionRecallEstimate
from repro.experiments.context import ExperimentContext
from repro.experiments.populations import TABLE1_POPULATIONS, FavoredPopulation
from repro.reporting import Table, format_count, format_percent

__all__ = ["Table1Cell", "Table1Result", "run", "OVERLAP_KEYS"]

#: Table 1 covers the interfaces supporting boolean and-of-or rules.
OVERLAP_KEYS = ("facebook_restricted", "facebook", "linkedin")


@dataclass
class Table1Cell:
    """One (population, interface) cell of Table 1."""

    population: FavoredPopulation
    target_key: str
    population_size: int
    median_overlap: float
    top1_recall: int
    top10_recall: float
    union_estimate: UnionRecallEstimate
    n_compositions: int

    @property
    def top1_fraction(self) -> float:
        """Top-1 recall as a fraction of the sensitive population."""
        if not self.population_size:
            return math.nan
        return self.top1_recall / self.population_size

    @property
    def top10_fraction(self) -> float:
        """Top-10 union recall as a fraction of the population."""
        if not self.population_size:
            return math.nan
        return self.top10_recall / self.population_size


@dataclass
class Table1Result:
    """All Table 1 cells keyed by (population label, interface key)."""

    cells: dict[tuple[str, str], Table1Cell] = field(default_factory=dict)

    def render(self) -> str:
        table = Table(
            [
                "population",
                "interface",
                "median overlap",
                "top-1 recall",
                "top-10 recall",
                "gain",
            ]
        )
        for (pop_label, key), cell in self.cells.items():
            gain = (
                cell.top10_recall / cell.top1_recall
                if cell.top1_recall
                else math.nan
            )
            table.add_row(
                pop_label,
                key,
                format_percent(cell.median_overlap),
                f"{format_count(cell.top1_recall)} "
                f"({format_percent(cell.top1_fraction, 1)})",
                f"{format_count(cell.top10_recall)} "
                f"({format_percent(cell.top10_fraction, 1)})",
                f"{gain:.1f}x" if not math.isnan(gain) else "-",
            )
        return "Table 1 — Overlap and union recall\n" + table.render()


def _cell(
    ctx: ExperimentContext, key: str, population: FavoredPopulation
) -> Table1Cell | None:
    """One population's cell on one interface (None: no skewed set)."""
    target = ctx.target(key)
    skewed = ctx.skewed_set(
        key, population.value, population.direction
    ).filtered(ctx.config.min_reach)
    top = skewed.top_by_ratio(
        population.value,
        ctx.config.overlap_top_k,
        ascending=population.exclude,
    )
    comps = [a.options for a in top]
    if not comps:
        return None
    overlap = pairwise_overlaps(
        target,
        comps,
        population.value,
        max_pairs=ctx.config.overlap_max_pairs,
        seed=ctx.config.seed,
        exclude=population.exclude,
    )
    union = union_recall(
        target,
        comps[: ctx.config.union_top_k],
        population.value,
        exclude=population.exclude,
    )
    top1 = target.intersection_size(
        [comps[0]], population.value, exclude=population.exclude
    )
    bases = target.base_sizes(population.attribute)
    return Table1Cell(
        population=population,
        target_key=key,
        population_size=population.population_size(bases),
        median_overlap=overlap.median_overlap,
        top1_recall=top1,
        top10_recall=union.estimate,
        union_estimate=union,
        n_compositions=len(comps),
    )


def run(
    ctx: ExperimentContext,
    populations: tuple[FavoredPopulation, ...] = TABLE1_POPULATIONS,
    keys: tuple[str, ...] = OVERLAP_KEYS,
) -> Table1Result:
    """Run E7 against the shared context.

    Cells are computed one interface at a time (the order the queries
    go out in) and presented population-major; a population without
    skewed compositions on an interface has no cell there.
    """
    cells = {
        (population.label, key): _cell(ctx, key, population)
        for key in keys
        for population in populations
    }
    return Table1Result(
        {
            (population.label, key): cells[population.label, key]
            for population in populations
            for key in keys
            if cells[population.label, key] is not None
        }
    )
