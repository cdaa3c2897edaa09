"""Experiments E8/E9 -- Tables 2 and 3: illustrative skewed compositions.

The paper's Tables 2 and 3 list concrete "Top 2-way" compositions where
AND-combining two individually skewed options yields a much more skewed
targeting (e.g. *Electrical engineering* AND *Cars*: 3.71 and 2.18
individually, 12.43 combined).  This experiment selects equivalent
illustrative rows from the measured Top 2-way sets: compositions whose
combined ratio exceeds both components' individual ratios by a margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core import CompositionSet
from repro.core.results import SensitiveValue
from repro.experiments.context import ExperimentContext
from repro.population.demographics import AgeRange, Gender, attribute_of
from repro.reporting import Table, format_ratio

__all__ = [
    "ExampleRow",
    "ExamplesResult",
    "run",
    "select_examples",
]


@dataclass(frozen=True)
class ExampleRow:
    """One illustrative composition row."""

    target_key: str
    value: SensitiveValue
    option_1: str
    option_2: str
    name_1: str
    name_2: str
    ratio_1: float
    ratio_2: float
    ratio_combined: float

    @property
    def amplification(self) -> float:
        """Combined ratio over the more skewed individual ratio."""
        top = max(self.ratio_1, self.ratio_2)
        return self.ratio_combined / top if top else math.nan


def select_examples(
    individual: CompositionSet,
    top_set: CompositionSet,
    value: SensitiveValue,
    names: dict[str, str],
    target_key: str,
    k: int = 5,
    min_amplification: float = 1.3,
) -> list[ExampleRow]:
    """Pick the most compelling amplification examples from a Top set.

    A row qualifies when the combined ratio exceeds both individual
    ratios by ``min_amplification``; rows are ranked by combined ratio.
    For "bottom"-style sets (ratios below 1), pass the reciprocal view
    by selecting on the favoured population's value instead.
    """
    from repro.core.metrics import FOUR_FIFTHS_HIGH

    individual_ratio = dict(
        zip(
            [options[0] for options in individual.options],
            individual.ratio_column(value).tolist(),
        )
    )
    rows: list[ExampleRow] = []
    for options, combined in zip(
        top_set.options, top_set.ratio_column(value).tolist()
    ):
        if len(options) != 2:
            continue
        o1, o2 = options
        r1, r2 = individual_ratio.get(o1), individual_ratio.get(o2)
        if r1 is None or r2 is None:
            continue
        if any(math.isnan(x) or math.isinf(x) for x in (r1, r2, combined)):
            continue
        # Match the paper's table structure: both components individually
        # skewed toward the favoured value, and the combination clearly
        # more skewed than either.
        if min(r1, r2) < FOUR_FIFTHS_HIGH:
            continue
        if combined < max(r1, r2) * min_amplification:
            continue
        rows.append(
            ExampleRow(
                target_key=target_key,
                value=value,
                option_1=o1,
                option_2=o2,
                name_1=names.get(o1, o1),
                name_2=names.get(o2, o2),
                ratio_1=r1,
                ratio_2=r2,
                ratio_combined=combined,
            )
        )
    rows.sort(key=lambda row: row.ratio_combined, reverse=True)
    return rows[:k]


@dataclass
class ExamplesResult:
    """Illustrative rows keyed by (interface key, value label)."""

    rows: dict[tuple[str, str], list[ExampleRow]] = field(default_factory=dict)

    def render(self) -> str:
        parts = ["Tables 2/3 — Illustrative skewed compositions"]
        for (key, value_label), examples in self.rows.items():
            table = Table(
                ["T1", "T2", "T1 ratio", "T2 ratio", "T1 AND T2"]
            )
            for row in examples:
                table.add_row(
                    row.name_1[:46],
                    row.name_2[:46],
                    format_ratio(row.ratio_1),
                    format_ratio(row.ratio_2),
                    format_ratio(row.ratio_combined),
                )
            parts += ["", f"{key} — favouring {value_label}", table.render()]
        return "\n".join(parts)


#: Favoured values illustrated by Tables 2 (gender) and 3 (age).
_FAVOURED: tuple[tuple[SensitiveValue, str, str], ...] = (
    (Gender.MALE, "male", "top"),
    (Gender.FEMALE, "female", "top"),
    (AgeRange.AGE_18_24, "ages 18-24", "top"),
    (AgeRange.AGE_55_PLUS, "ages 55+", "top"),
)


def run(
    ctx: ExperimentContext,
    keys: tuple[str, ...] | None = None,
    k: int = 5,
) -> ExamplesResult:
    """Run E8/E9 against the shared context.

    Gender rows (Table 2) favour males and females; age rows (Table 3)
    favour 18-24 and 55+.  Favoured values that yield no qualifying
    examples on an interface have no rows there.
    """
    result = ExamplesResult()
    for key in keys or tuple(ctx.target_keys):
        names = ctx.target(key).option_names()
        for value, value_label, _ in _FAVOURED:
            attribute = attribute_of(value).name
            individual = ctx.individuals(key, attribute).filtered(
                ctx.config.min_reach
            )
            top_set = ctx.skewed_set(key, value, "top").filtered(
                ctx.config.min_reach
            )
            examples = select_examples(
                individual, top_set, value, names, key, k=k
            )
            if examples:
                result.rows[(key, value_label)] = examples
    return result
