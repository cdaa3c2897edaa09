"""Result records produced by the audit core.

The central record is :class:`TargetingAudit`: one targeting (an
individual option or an AND-composition), audited against one sensitive
attribute, carrying the per-value audience-size estimates it was
measured from.  Ratios and recalls are derived lazily so a single set
of size queries serves every downstream analysis (the paper's concern
about limiting query load).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from repro.core.metrics import (
    recall_excluding,
    recall_including,
    representation_ratio_from_sizes,
    violates_four_fifths,
)
from repro.population.demographics import AgeRange, Gender, SensitiveAttribute

__all__ = ["SensitiveValue", "TargetingAudit", "CompositionSet"]

SensitiveValue = Gender | AgeRange


@dataclass(frozen=True)
class TargetingAudit:
    """One targeting audited against one sensitive attribute.

    Attributes
    ----------
    options:
        The AND-composed option ids (length 1 for individual options).
    attribute:
        The sensitive attribute audited (gender or age).
    sizes:
        Estimated ``|TA AND RA_v|`` for every value ``v``.
    bases:
        Estimated ``|RA_v|`` for every value (the per-platform
        sensitive-population totals).
    """

    options: tuple[str, ...]
    attribute: SensitiveAttribute
    sizes: Mapping[SensitiveValue, int]
    bases: Mapping[SensitiveValue, int]

    def __post_init__(self) -> None:
        missing = [v for v in self.attribute.values if v not in self.sizes]
        if missing:
            raise ValueError(f"sizes missing values: {missing}")

    @cached_property
    def total_reach(self) -> int:
        """Estimated total audience size across all sensitive values.

        The paper filters targetings below a total recall of 10,000 to
        avoid very niche targetings.  Every ranking and reach filter
        reads it, so it is summed once (the sizes are frozen).
        """
        return int(sum(self.sizes.values()))

    def ratio(self, value: SensitiveValue) -> float:
        """Representation ratio toward ``value`` (Equation 1, memoised).

        Ranking, panel building, and the four-fifths checks all revisit
        the same ratios; the sizes are frozen, so each is computed once.
        """
        try:
            memo = self._ratio_memo  # type: ignore[attr-defined]
        except AttributeError:
            memo = {}
            object.__setattr__(self, "_ratio_memo", memo)
        if value in memo:
            return memo[value]
        result = memo[value] = representation_ratio_from_sizes(
            self.sizes, self.bases, value
        )
        return result

    def recall(self, value: SensitiveValue) -> int:
        """Recall when selectively including ``value``."""
        return int(recall_including(self.sizes, value))

    def recall_excluding(self, value: SensitiveValue) -> int:
        """Recall when selectively excluding ``value``."""
        return int(recall_excluding(self.sizes, value))

    def is_skewed(self, value: SensitiveValue) -> bool:
        """Whether the ratio toward ``value`` violates four-fifths."""
        return violates_four_fifths(self.ratio(value))

    def describe(self, names: Mapping[str, str] | None = None) -> str:
        """Display string of the composition (names joined by AND)."""
        def name_of(option_id: str) -> str:
            return names.get(option_id, option_id) if names else option_id

        return " AND ".join(name_of(o) for o in self.options)


@dataclass
class CompositionSet:
    """A labelled set of audited targetings (one box in the figures).

    ``label`` matches the paper's x-axis labels: ``"Individual"``,
    ``"Random 2-way"``, ``"Top 2-way"``, ``"Bottom 2-way"``,
    ``"Top 3-way"``, ``"Bottom 3-way"``.
    """

    label: str
    audits: list[TargetingAudit] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.audits)

    def ratios(self, value: SensitiveValue) -> list[float]:
        """Finite, defined ratios toward ``value`` across the set."""
        out = []
        for audit in self.audits:
            r = audit.ratio(value)
            if not math.isnan(r) and not math.isinf(r):
                out.append(r)
        return out

    def recalls(self, value: SensitiveValue, excluding: bool = False) -> list[int]:
        """Recalls toward (or excluding) ``value`` across the set."""
        if excluding:
            return [a.recall_excluding(value) for a in self.audits]
        return [a.recall(value) for a in self.audits]

    def filtered(self, min_reach: int) -> "CompositionSet":
        """Subset with total reach at least ``min_reach``."""
        return CompositionSet(
            self.label,
            [a for a in self.audits if a.total_reach >= min_reach],
        )

    def skewed_subset(self, value: SensitiveValue) -> "CompositionSet":
        """Subset violating the four-fifths rule toward ``value``."""
        return CompositionSet(
            f"{self.label} (skewed)",
            [a for a in self.audits if a.is_skewed(value)],
        )

    def fraction_skewed(self, value: SensitiveValue) -> float:
        """Fraction of the set outside the four-fifths thresholds."""
        if not self.audits:
            return math.nan
        return sum(a.is_skewed(value) for a in self.audits) / len(self.audits)

    def top_by_ratio(
        self, value: SensitiveValue, k: int, ascending: bool = False
    ) -> list[TargetingAudit]:
        """The ``k`` most (or least, if ascending) skewed audits."""
        def sort_key(audit: TargetingAudit) -> float:
            r = audit.ratio(value)
            if math.isnan(r):
                return 1.0  # undefined ratios sort as unskewed
            return r

        ordered = sorted(self.audits, key=sort_key, reverse=not ascending)
        return ordered[:k]
