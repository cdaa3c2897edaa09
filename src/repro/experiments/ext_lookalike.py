"""Extension experiment E11 -- do special ad audiences de-bias lookalikes?

Facebook's restricted interface replaces lookalike audiences with
"special ad audiences ... adjusted to comply with the audience
selection restrictions" (paper Section 2.2).  The paper does not
measure them; this extension does, using the simulated lookalike
machinery:

1. build a demographically skewed seed audience (a retargeting pixel on
   a male-leaning website, plus a PII custom audience drawn from it);
2. expand it with a normal lookalike (similarity over interests *and*
   demographics) and with a special ad audience (demographics removed
   from the similarity features);
3. audit all three audiences' gender representation ratios.

Expected shape (and the reason the paper's composition warning extends
to derived audiences): removing demographic *features* does not remove
demographic *correlation* -- the special ad audience is less skewed
than the plain lookalike but can remain outside the four-fifths band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import violates_four_fifths
from repro.experiments.context import ExperimentContext
from repro.platforms.audiences import TrackingPixel
from repro.population.demographics import SENSITIVE_ATTRIBUTES, Gender
from repro.reporting import Table, format_count, format_ratio

__all__ = ["LookalikeResult", "run"]

GENDER = SENSITIVE_ATTRIBUTES["gender"]

@dataclass
class LookalikeResult:
    """Male representation ratios of seed and derived audiences."""

    seed_ratio: float = float("nan")
    lookalike_ratio: float = float("nan")
    special_ad_ratio: float = float("nan")
    seed_size: int = 0
    lookalike_size: int = 0
    special_ad_size: int = 0

    @property
    def special_ad_attenuates(self) -> bool:
        """Whether the special ad audience is less skewed than the
        plain lookalike."""
        return abs(np.log(self.special_ad_ratio)) < abs(
            np.log(self.lookalike_ratio)
        )

    @property
    def special_ad_still_skewed(self) -> bool:
        """Whether it nonetheless violates the four-fifths rule."""
        return violates_four_fifths(self.special_ad_ratio)

    def render(self) -> str:
        table = Table(["audience", "size", "male ratio", "four-fifths"])
        for label, ratio, size in (
            ("seed (pixel visitors)", self.seed_ratio, self.seed_size),
            ("lookalike", self.lookalike_ratio, self.lookalike_size),
            ("special ad audience", self.special_ad_ratio, self.special_ad_size),
        ):
            table.add_row(
                label,
                format_count(size),
                format_ratio(ratio),
                "VIOLATES" if violates_four_fifths(ratio) else "ok",
            )
        lines = [
            "Extension — lookalike vs special ad audience (gender skew)",
            table.render(),
            "",
            f"special ad audience attenuates skew: "
            f"{'yes' if self.special_ad_attenuates else 'NO'}",
            f"special ad audience still outside four-fifths: "
            f"{'YES' if self.special_ad_still_skewed else 'no'}",
        ]
        return "\n".join(lines)


def run(ctx: ExperimentContext) -> LookalikeResult:
    """Run E11 against the shared context's Facebook platform."""
    platform = ctx.session.suite.facebook
    service = platform.audiences
    model = platform.model

    # A website whose audience leans on the most male-tilted interest
    # factor (think: motorsports parts store).
    male_factor = int(np.argmax(model.factor_gender_shift))
    pixel = TrackingPixel(
        pixel_id="ext-lookalike-site",
        base_logit=-3.2,
        direction={male_factor: 1.2},
    )
    seed = service.create_pixel_audience("seed visitors", pixel, seed=11)
    lookalike = service.create_lookalike("lookalike 1%", seed)
    special = service.create_special_ad_audience("special ad 1%", seed)

    target = ctx.target("facebook")
    restricted_target = ctx.target("facebook_restricted")

    result = LookalikeResult()
    result.seed_ratio = target.audit((seed.audience_id,), GENDER).ratio(
        Gender.MALE
    )
    result.seed_size = seed.matched_count
    result.lookalike_ratio = target.audit(
        (lookalike.audience_id,), GENDER
    ).ratio(Gender.MALE)
    result.lookalike_size = lookalike.matched_count
    # The special ad audience is what the restricted interface offers;
    # audit it through the restricted target (validated there, measured
    # via the normal interface, like every restricted audit).
    result.special_ad_ratio = restricted_target.audit(
        (special.audience_id,), GENDER
    ).ratio(Gender.MALE)
    result.special_ad_size = special.matched_count
    return result
