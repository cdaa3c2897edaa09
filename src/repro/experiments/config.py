"""Experiment configuration presets.

The ``full`` preset approximates the paper's parameters (1,000
compositions per set, top-100 overlap analysis, 100-repeat consistency
study).  The ``small`` preset keeps every experiment structurally
identical but about ten times cheaper: it is the CLI default, and the
tier-1 shape checks that need more compositions than ``tiny`` run on
it.  ``tiny`` is what most tier-1 tests run on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment driver.

    Parameters
    ----------
    n_records / seed:
        Population size per platform and the root seed.
    n_compositions:
        Compositions per Random/Top/Bottom set (paper: 1,000).
    min_reach:
        Total-recall floor below which targetings are ignored
        (paper: 10,000).
    overlap_top_k / overlap_max_pairs:
        Compositions entering the pairwise-overlap analysis (paper:
        top 100; all pairs) and an optional pair-sampling cap.
    union_top_k:
        Compositions whose union recall is estimated (paper: 10).
    removal_percentiles:
        Removal-sweep steps (paper: 0..10 in steps of 2).
    consistency_repeats / consistency_targetings:
        Repeated-call study shape (paper: 100 repeats for 20 options
        plus 20 compositions).
    """

    n_records: int = 120_000
    seed: int = 42
    n_compositions: int = 1000
    min_reach: int = 10_000
    overlap_top_k: int = 100
    overlap_max_pairs: int | None = 600
    union_top_k: int = 10
    removal_percentiles: tuple[float, ...] = (0, 2, 4, 6, 8, 10)
    consistency_repeats: int = 100
    consistency_targetings: int = 20

    @classmethod
    def full(cls) -> "ExperimentConfig":
        """Paper-scale parameters."""
        return cls()

    @classmethod
    def small(cls) -> "ExperimentConfig":
        """CLI default: same structure, ~10x cheaper."""
        return cls(
            n_records=40_000,
            n_compositions=150,
            overlap_top_k=25,
            overlap_max_pairs=120,
            union_top_k=8,
            removal_percentiles=(0, 4, 8),
            consistency_repeats=25,
            consistency_targetings=8,
        )

    @classmethod
    def tiny(cls) -> "ExperimentConfig":
        """Unit-test scale."""
        return cls(
            n_records=12_000,
            n_compositions=40,
            min_reach=10_000,
            overlap_top_k=8,
            overlap_max_pairs=20,
            union_top_k=5,
            removal_percentiles=(0, 10),
            consistency_repeats=5,
            consistency_targetings=4,
        )

    def with_records(self, n_records: int) -> "ExperimentConfig":
        """Copy with a different population size."""
        return replace(self, n_records=n_records)
