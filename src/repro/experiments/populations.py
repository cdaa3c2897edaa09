"""Favoured sensitive populations.

The paper's recall analyses (Figure 5, Table 1) are organised around
the population an advertiser *favours*: a skewed targeting can favour
males, favour females, or favour "everyone except an age range" (i.e.
selectively exclude young or old users).  :class:`FavoredPopulation`
captures one such choice and knows how to read the right skew test,
recall, and discovery direction off the columns of a
:class:`~repro.core.results.CompositionSet`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import FOUR_FIFTHS_HIGH, FOUR_FIFTHS_LOW
from repro.core.results import CompositionSet, SensitiveValue
from repro.population.demographics import (
    AgeRange,
    Gender,
    SensitiveAttribute,
    attribute_of,
)

__all__ = ["FavoredPopulation", "TABLE1_POPULATIONS", "FIG5_POPULATIONS"]


@dataclass(frozen=True)
class FavoredPopulation:
    """A sensitive population an advertiser might selectively reach.

    ``exclude=False`` favours ``RA_value`` (targetings skewed *toward*
    the value); ``exclude=True`` favours ``RA_{not value}`` (targetings
    skewed *away*, i.e. the paper's "Age not 18-24" rows).
    """

    value: SensitiveValue
    exclude: bool = False

    @property
    def attribute(self) -> SensitiveAttribute:
        """The sensitive attribute the value belongs to."""
        return attribute_of(self.value)

    @property
    def label(self) -> str:
        """Display label matching the paper's table rows."""
        if isinstance(self.value, Gender):
            return self.value.label.capitalize()
        prefix = "Age not" if self.exclude else "Age"
        return f"{prefix} {self.value.label}"

    @property
    def direction(self) -> str:
        """Greedy-discovery direction producing favouring targetings."""
        return "bottom" if self.exclude else "top"

    def favours(self, composition_set: CompositionSet) -> np.ndarray:
        """Per row of the set: whether its skew favours this population
        beyond the four-fifths thresholds."""
        ratios = composition_set.ratio_column(self.value)
        if self.exclude:
            return ratios <= FOUR_FIFTHS_LOW
        return ratios >= FOUR_FIFTHS_HIGH

    def recalls(self, composition_set: CompositionSet) -> np.ndarray:
        """Per row of the set: the recall of this population."""
        return composition_set.recalls(self.value, excluding=self.exclude)

    def population_size(self, bases: dict[SensitiveValue, int]) -> int:
        """Total size of this population on the platform."""
        if self.exclude:
            return int(sum(v for k, v in bases.items() if k != self.value))
        return int(bases[self.value])


#: The four favoured populations of the paper's Table 1.
TABLE1_POPULATIONS: tuple[FavoredPopulation, ...] = (
    FavoredPopulation(Gender.MALE),
    FavoredPopulation(Gender.FEMALE),
    FavoredPopulation(AgeRange.AGE_18_24, exclude=True),
    FavoredPopulation(AgeRange.AGE_55_PLUS, exclude=True),
)

#: The populations whose recall distributions Figure 5 plots.
FIG5_POPULATIONS: tuple[FavoredPopulation, ...] = (
    FavoredPopulation(Gender.MALE),
    FavoredPopulation(Gender.FEMALE),
    FavoredPopulation(AgeRange.AGE_18_24),
    FavoredPopulation(AgeRange.AGE_55_PLUS),
    FavoredPopulation(AgeRange.AGE_18_24, exclude=True),
    FavoredPopulation(AgeRange.AGE_55_PLUS, exclude=True),
)
