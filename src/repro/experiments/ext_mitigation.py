"""Extension experiment E12 -- outcome-based vs removal-based mitigation.

The paper's concluding discussion proposes detecting "advertisers who
consistently target skewed audiences" from the *outcome* of their
composed targetings, arguing that option-removal cannot work.  This
extension simulates an advertiser population on Facebook's restricted
interface and scores both policies:

* **honest advertisers** compose random pairs of allowed options (the
  paper's Random 2-way behaviour);
* a **discriminatory advertiser** uses the greedy most-skewed pairs;
* the **removal policy** bans the top-10-percentile skewed individual
  options and blocks campaigns using them;
* the **outcome monitor** reviews every composed campaign and flags
  advertisers whose history is consistently skewed.

Expected shape: the removal policy barely touches the discriminatory
campaigns (their components survive sanitisation) while the outcome
monitor flags the discriminator without flagging most honest
advertisers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.discovery import greedy_candidates
from repro.core.mitigation import OutcomeMonitor, RemovalPolicy
from repro.experiments.context import ExperimentContext
from repro.population.demographics import SENSITIVE_ATTRIBUTES, Gender
from repro.reporting import Table, format_percent

__all__ = ["MitigationResult", "run"]

GENDER = SENSITIVE_ATTRIBUTES["gender"]
_KEY = "facebook_restricted"


@dataclass
class MitigationResult:
    """Detection/false-positive rates of the two policies."""

    n_honest: int = 0
    campaigns_per_advertiser: int = 0
    removal_blocked_discriminator: float = float("nan")
    removal_blocked_honest: float = float("nan")
    monitor_flagged_discriminator: bool = False
    monitor_flagged_honest: float = float("nan")
    discriminator_skewed_fraction: float = float("nan")

    def render(self) -> str:
        table = Table(
            ["policy", "stops discriminator", "burden on honest advertisers"]
        )
        table.add_row(
            "remove top-10% options",
            f"{format_percent(self.removal_blocked_discriminator, 0)} "
            "of campaigns blocked",
            f"{format_percent(self.removal_blocked_honest, 0)} "
            "of campaigns blocked",
        )
        table.add_row(
            "outcome monitor (paper §5)",
            "advertiser FLAGGED"
            if self.monitor_flagged_discriminator
            else "advertiser missed",
            f"{format_percent(self.monitor_flagged_honest, 0)} "
            "of advertisers flagged",
        )
        lines = [
            "Extension — mitigation policy comparison (FB-restricted, gender)",
            f"{self.n_honest} honest advertisers + 1 discriminatory, "
            f"{self.campaigns_per_advertiser} campaigns each",
            "",
            table.render(),
            "",
            f"discriminator's campaigns with skewed outcomes: "
            f"{format_percent(self.discriminator_skewed_fraction, 0)}",
        ]
        return "\n".join(lines)


def run(
    ctx: ExperimentContext,
    n_honest: int = 12,
    campaigns_per_advertiser: int = 6,
) -> MitigationResult:
    """Run E12 against the shared context."""
    target = ctx.target(_KEY)
    config = ctx.config
    individual = ctx.individuals(_KEY, "gender")
    rng = np.random.default_rng(config.seed)

    # Campaign portfolios.
    options = [o[0] for o in individual.filtered(config.min_reach).options]
    honest_campaigns: dict[str, list[tuple[str, ...]]] = {}
    for advertiser in range(n_honest):
        picks: list[tuple[str, ...]] = []
        while len(picks) < campaigns_per_advertiser:
            i, j = rng.choice(len(options), size=2, replace=False)
            picks.append(tuple(sorted((options[i], options[j]))))
        honest_campaigns[f"honest-{advertiser}"] = picks

    # Policy 1: removal of the top-10-percentile skewed options.
    removal = RemovalPolicy(individual.audits, percentile=10.0)

    # The discriminator adapts to the ban list (the paper's point:
    # compositions of the *surviving* options remain highly skewed), so
    # their campaigns greedily combine the most skewed allowed options.
    surviving = individual.subset(
        [o[0] not in removal.banned for o in individual.options]
    )
    discriminator_campaigns = greedy_candidates(
        target, surviving, Gender.MALE, "top",
        n=campaigns_per_advertiser, seed=config.seed,
    )

    def blocked_fraction(campaigns: list[tuple[str, ...]]) -> float:
        if not campaigns:
            return float("nan")
        return sum(not removal.allows(c) for c in campaigns) / len(campaigns)

    # Policy 2: outcome monitoring of every launched campaign.
    monitor = OutcomeMonitor(target, min_campaigns=min(3, campaigns_per_advertiser))
    for advertiser, campaigns in honest_campaigns.items():
        for campaign in campaigns:
            monitor.review_campaign(advertiser, campaign)
    for campaign in discriminator_campaigns:
        monitor.review_campaign("discriminator", campaign)

    flagged = monitor.consistently_skewed_advertisers(min_fraction=0.8)
    flagged_honest = sum(
        a in flagged for a in honest_campaigns
    ) / max(len(honest_campaigns), 1)

    return MitigationResult(
        n_honest=n_honest,
        campaigns_per_advertiser=campaigns_per_advertiser,
        removal_blocked_discriminator=blocked_fraction(
            list(discriminator_campaigns)
        ),
        removal_blocked_honest=blocked_fraction(
            [c for cs in honest_campaigns.values() for c in cs]
        ),
        monitor_flagged_discriminator="discriminator" in flagged,
        monitor_flagged_honest=flagged_honest,
        discriminator_skewed_fraction=monitor.history(
            "discriminator"
        ).skewed_fraction,
    )
