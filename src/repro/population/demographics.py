"""Sensitive-attribute definitions and demographic marginals.

The paper focuses on the sensitive attributes *gender* and *age*
(Section 3), using the four age ranges 18-24, 25-34, 35-54, and 55+ --
the most granular age buckets common to all three ad platforms.  This
module defines those attributes once so the population generator, the
platform simulators, and the audit core all agree on codes and names.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

__all__ = [
    "Gender",
    "AgeRange",
    "GENDERS",
    "AGE_RANGES",
    "SensitiveAttribute",
    "SENSITIVE_ATTRIBUTES",
    "attribute_of",
    "DemographicMarginals",
    "US_MARGINALS",
]


class Gender(enum.IntEnum):
    """Gender values recognised by the studied platforms' interfaces.

    The integer values double as column codes in the population arrays.
    """

    MALE = 0
    FEMALE = 1

    @property
    def label(self) -> str:
        """Human-readable label used in reports (``"male"``)."""
        return self.name.lower()

    @property
    def other(self) -> "Gender":
        """The complementary gender value (used for :math:`RA_{\\neg s}`)."""
        return Gender.FEMALE if self is Gender.MALE else Gender.MALE


class AgeRange(enum.IntEnum):
    """The four age ranges studied in the paper (footnote 3).

    These are the most granular age targeting buckets common to
    Facebook, Google, and LinkedIn.
    """

    AGE_18_24 = 0
    AGE_25_34 = 1
    AGE_35_54 = 2
    AGE_55_PLUS = 3

    @property
    def label(self) -> str:
        """Human-readable label used in reports (``"18-24"``)."""
        return _AGE_LABELS[self]

    @property
    def bounds(self) -> tuple[int, int | None]:
        """Inclusive lower bound and inclusive upper bound (``None`` = open)."""
        return _AGE_BOUNDS[self]


_AGE_LABELS: dict[AgeRange, str] = {
    AgeRange.AGE_18_24: "18-24",
    AgeRange.AGE_25_34: "25-34",
    AgeRange.AGE_35_54: "35-54",
    AgeRange.AGE_55_PLUS: "55+",
}

_AGE_BOUNDS: dict[AgeRange, tuple[int, int | None]] = {
    AgeRange.AGE_18_24: (18, 24),
    AgeRange.AGE_25_34: (25, 34),
    AgeRange.AGE_35_54: (35, 54),
    AgeRange.AGE_55_PLUS: (55, None),
}

GENDERS: tuple[Gender, ...] = (Gender.MALE, Gender.FEMALE)
AGE_RANGES: tuple[AgeRange, ...] = (
    AgeRange.AGE_18_24,
    AgeRange.AGE_25_34,
    AgeRange.AGE_35_54,
    AgeRange.AGE_55_PLUS,
)


@dataclass(frozen=True)
class SensitiveAttribute:
    """A sensitive attribute with its set of possible values.

    The audit measures the representation ratio of a targeting for each
    value ``s`` of a sensitive attribute, comparing ``RA_s`` against
    ``RA_{not s}`` (the union of all other values).
    """

    name: str
    values: tuple[Gender, ...] | tuple[AgeRange, ...]

    def labels(self) -> tuple[str, ...]:
        """Labels for every value, in code order."""
        return tuple(v.label for v in self.values)


SENSITIVE_ATTRIBUTES: dict[str, SensitiveAttribute] = {
    "gender": SensitiveAttribute("gender", GENDERS),
    "age": SensitiveAttribute("age", AGE_RANGES),
}


def attribute_of(value: Gender | AgeRange) -> SensitiveAttribute:
    """The sensitive attribute a value belongs to."""
    return SENSITIVE_ATTRIBUTES["gender" if isinstance(value, Gender) else "age"]


def _normalised(weights: Mapping, keys: Sequence) -> tuple[float, ...]:
    total = float(sum(weights[k] for k in keys))
    if total <= 0:
        raise ValueError("marginal weights must sum to a positive value")
    return tuple(float(weights[k]) / total for k in keys)


@dataclass(frozen=True)
class DemographicMarginals:
    """Joint gender x age marginals for a simulated platform population.

    The paper assumes the relevant audience ``RA`` is the set of all
    U.S.-based users of the platform; platform user bases differ (e.g.
    LinkedIn skews older and more male than Facebook), which is why the
    marginals are a per-platform input rather than a constant.

    Parameters
    ----------
    gender_weights:
        Relative weight of each :class:`Gender`; normalised on access.
    age_weights:
        Relative weight of each :class:`AgeRange`; normalised on access.
    age_gender_tilt:
        Optional multiplicative tilt applied to the male share within
        each age range, letting the joint distribution deviate from
        independence (e.g. young LinkedIn users skew male).
    """

    gender_weights: Mapping[Gender, float]
    age_weights: Mapping[AgeRange, float]
    age_gender_tilt: Mapping[AgeRange, float] = field(default_factory=dict)

    def gender_shares(self) -> tuple[float, ...]:
        """Normalised gender shares in :class:`Gender` code order."""
        return _normalised(self.gender_weights, GENDERS)

    def age_shares(self) -> tuple[float, ...]:
        """Normalised age shares in :class:`AgeRange` code order."""
        return _normalised(self.age_weights, AGE_RANGES)

    def male_share_within_age(self, age: AgeRange) -> float:
        """Share of males within the given age range, after tilting."""
        base_male = self.gender_shares()[Gender.MALE]
        tilt = float(self.age_gender_tilt.get(age, 1.0))
        tilted = base_male * tilt
        return min(max(tilted, 0.0), 1.0)

    def joint_shares(self) -> dict[tuple[Gender, AgeRange], float]:
        """Joint (gender, age) shares, renormalised to sum to one."""
        ages = self.age_shares()
        joint: dict[tuple[Gender, AgeRange], float] = {}
        for age, age_share in zip(AGE_RANGES, ages):
            male = self.male_share_within_age(age)
            joint[(Gender.MALE, age)] = age_share * male
            joint[(Gender.FEMALE, age)] = age_share * (1.0 - male)
        total = sum(joint.values())
        return {k: v / total for k, v in joint.items()}


#: Approximate US adult online population marginals used as the default
#: for Facebook-like platforms.  Values are deliberately round: the
#: audit methodology is insensitive to the exact base rates because the
#: representation ratio normalises by ``|RA_s|``.
US_MARGINALS = DemographicMarginals(
    gender_weights={Gender.MALE: 0.485, Gender.FEMALE: 0.515},
    age_weights={
        AgeRange.AGE_18_24: 0.155,
        AgeRange.AGE_25_34: 0.225,
        AgeRange.AGE_35_54: 0.345,
        AgeRange.AGE_55_PLUS: 0.275,
    },
)
