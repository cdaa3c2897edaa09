"""Outcome-based mitigation (the paper's Section 5 proposal).

The paper's mitigation discussion concludes that removing skewed
*individual* options cannot work and that platforms "could potentially
use anomaly detection based on the outcome of ad targeting to detect
advertisers who consistently target skewed audiences".  This module
implements that proposal so it can be evaluated against the
removal-based baseline:

* :class:`OutcomeMonitor` -- platform-side review that audits every
  *composed* targeting an advertiser launches (gender and all age
  ranges), records per-advertiser history, and flags advertisers whose
  campaigns are consistently skewed;
* :class:`RemovalPolicy` -- the baseline the paper criticises: ban the
  top percentile of individually skewed options and otherwise wave
  campaigns through.

The extension experiment ``repro.experiments.ext_mitigation`` runs a
simulated advertiser population (honest advertisers composing random
options, a discriminatory advertiser using the greedy top compositions)
through both policies and compares detection and false-flag rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.core.audit import AuditTarget
from repro.core.metrics import violates_four_fifths
from repro.core.results import SensitiveValue, TargetingAudit
from repro.population.demographics import SENSITIVE_ATTRIBUTES

__all__ = [
    "CampaignReview",
    "AdvertiserHistory",
    "OutcomeMonitor",
    "RemovalPolicy",
]


@dataclass(frozen=True)
class CampaignReview:
    """Outcome review of one launched targeting.

    ``ratios`` maps sensitive-value *labels* ("male", "18-24", ...) to
    the campaign's representation ratio toward that value; labels are
    used as keys because :class:`Gender` and :class:`AgeRange` are
    IntEnums with overlapping raw values.
    """

    advertiser_id: str
    options: tuple[str, ...]
    worst_ratio: float
    worst_value: SensitiveValue | None
    skewed: bool
    ratios: Mapping[str, float] = field(default_factory=dict)


@dataclass
class AdvertiserHistory:
    """Running record of one advertiser's reviewed campaigns."""

    advertiser_id: str
    reviews: list[CampaignReview] = field(default_factory=list)

    @property
    def n_campaigns(self) -> int:
        return len(self.reviews)

    @property
    def skewed_fraction(self) -> float:
        """Fraction of campaigns with four-fifths-violating outcomes."""
        if not self.reviews:
            return 0.0
        return sum(r.skewed for r in self.reviews) / len(self.reviews)


class OutcomeMonitor:
    """Flag advertisers who consistently target skewed audiences.

    Parameters
    ----------
    target:
        The interface's audit target (the monitor *is* the platform
        here, but it deliberately reviews through the same composed-
        outcome measurements an external auditor would use).
    min_campaigns:
        Minimum history before an advertiser can be flagged, so a
        single unlucky composition does not trigger review.
    """

    def __init__(self, target: AuditTarget, min_campaigns: int = 3):
        if min_campaigns < 1:
            raise ValueError("min_campaigns must be >= 1")
        self.target = target
        self.min_campaigns = min_campaigns
        self._history: dict[str, AdvertiserHistory] = {}

    def review_campaign(
        self, advertiser_id: str, options: Sequence[str]
    ) -> CampaignReview:
        """Audit one composed targeting's outcome and record it."""
        worst_ratio, worst_value = 1.0, None
        ratios: dict[str, float] = {}
        for attribute in SENSITIVE_ATTRIBUTES.values():
            audit = self.target.audit(options, attribute)
            for value in attribute.values:
                ratio = audit.ratio(value)
                if math.isnan(ratio):
                    continue
                ratios[value.label] = ratio
                if self._magnitude(ratio) > self._magnitude(worst_ratio):
                    worst_ratio, worst_value = ratio, value
        review = CampaignReview(
            advertiser_id=advertiser_id,
            options=tuple(options),
            worst_ratio=worst_ratio,
            worst_value=worst_value,
            skewed=violates_four_fifths(worst_ratio),
            ratios=ratios,
        )
        self._history.setdefault(
            advertiser_id, AdvertiserHistory(advertiser_id)
        ).reviews.append(review)
        return review

    @staticmethod
    def _magnitude(ratio: float) -> float:
        if ratio <= 0 or math.isinf(ratio):
            return math.inf
        return abs(math.log(ratio))

    def history(self, advertiser_id: str) -> AdvertiserHistory:
        """History for one advertiser (empty if never reviewed)."""
        return self._history.get(
            advertiser_id, AdvertiserHistory(advertiser_id)
        )

    # -- directional-consistency detection ---------------------------------

    def directional_consistency(
        self, advertiser_id: str
    ) -> dict[tuple[str, str], float]:
        """Per-(value label, direction) fraction of consistent skew.

        For each sensitive value, the fraction of the advertiser's
        campaigns skewed *toward* it (ratio >= 1.25) and *away* from it
        (ratio <= 0.8).  Honest advertisers drift into skew in varying
        directions; a discriminating advertiser skews the same way on
        every campaign -- which is the separable signal (magnitude
        alone is not, since even random compositions violate
        four-fifths somewhere, Section 4.3).
        """
        history = self.history(advertiser_id)
        if not history.reviews:
            return {}
        out: dict[tuple[str, str], float] = {}
        labels = {
            label for review in history.reviews for label in review.ratios
        }
        n = len(history.reviews)
        from repro.core.metrics import FOUR_FIFTHS_HIGH, FOUR_FIFTHS_LOW

        for label in sorted(labels):
            over = sum(
                1
                for review in history.reviews
                if review.ratios.get(label, 1.0) >= FOUR_FIFTHS_HIGH
            )
            under = sum(
                1
                for review in history.reviews
                if review.ratios.get(label, 1.0) <= FOUR_FIFTHS_LOW
            )
            out[(label, "toward")] = over / n
            out[(label, "away")] = under / n
        return out

    def consistently_skewed_advertisers(
        self, min_fraction: float = 0.8
    ) -> dict[str, tuple[str, str, float]]:
        """Advertisers skewing the same direction on most campaigns.

        Returns ``{advertiser: (value label, direction, fraction)}`` for
        advertisers with at least ``min_campaigns`` reviews whose most
        consistent (label, direction) reaches ``min_fraction``.
        """
        flagged: dict[str, tuple[str, str, float]] = {}
        for advertiser, history in self._history.items():
            if history.n_campaigns < self.min_campaigns:
                continue
            consistency = self.directional_consistency(advertiser)
            if not consistency:
                continue
            (label, direction), fraction = max(
                consistency.items(), key=lambda item: item[1]
            )
            if fraction >= min_fraction:
                flagged[advertiser] = (label, direction, fraction)
        return flagged


class RemovalPolicy:
    """Baseline mitigation: ban the most skewed individual options.

    Built from the individual audits of the default list; a campaign is
    blocked only when it uses a banned option.  This is exactly the
    mitigation the paper's Figures 3/6 show to be insufficient, because
    compositions of *surviving* options remain skewed.
    """

    def __init__(
        self,
        individual_audits: Iterable[TargetingAudit],
        percentile: float = 10.0,
        min_reach: int = 10_000,
    ):
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        scored: list[tuple[float, str]] = []
        for audit in individual_audits:
            if audit.total_reach < min_reach:
                continue
            worst = 0.0
            for value in audit.attribute.values:
                ratio = audit.ratio(value)
                if math.isnan(ratio):
                    continue
                worst = max(worst, OutcomeMonitor._magnitude(ratio))
            scored.append((worst, audit.options[0]))
        scored.sort(reverse=True)
        n_banned = int(round(len(scored) * percentile / 100.0))
        self.banned: frozenset[str] = frozenset(
            option for _, option in scored[:n_banned]
        )

    def allows(self, options: Sequence[str]) -> bool:
        """Whether a campaign passes (uses no banned option)."""
        return not any(option in self.banned for option in options)
