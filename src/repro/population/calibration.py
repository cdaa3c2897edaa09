"""Per-platform calibration of population and skew hyperparameters.

Section 4.2 of the paper observes systematically different skew
distributions per platform: LinkedIn's default attributes skew male
(90th-percentile male ratio 2.09) while Facebook's skew female (90th
percentile toward males only 1.45); Google's and LinkedIn's attributes
skew away from 18-24 and toward 55+.  The calibrations below shape the
per-attribute demographic loadings so the simulated platforms reproduce
those *qualitative* differences.  The mapping from target percentile
ratios to normal parameters uses the rare-attribute approximation
``ratio ~= exp(beta)``: a Normal(mu, sigma) over ``beta`` puts the 90th
percentile ratio at ``exp(mu + 1.2816 sigma)``.

Nothing here is fitted to private data; the constants are derived from
the numbers printed in the paper itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.population.demographics import (
    AgeRange,
    DemographicMarginals,
    Gender,
    US_MARGINALS,
)

__all__ = [
    "SkewDistribution",
    "PlatformCalibration",
    "CALIBRATIONS",
    "get_calibration",
]

#: z-score of the 90th percentile of a standard normal.
Z90 = 1.2816


@dataclass(frozen=True)
class SkewDistribution:
    """Normal-with-outliers distribution over demographic log-odds gaps.

    ``sample`` draws from Normal(mu, sigma) clipped to ``[-clip, clip]``;
    with probability ``outlier_prob`` the draw is replaced by a heavier
    tail uniform in ``+-[clip, outlier_clip]``.  The outlier component
    models the small number of strongly stereotyped options (e.g.
    *Makeup & Cosmetics* on Google, male ratio ~0.16) that survive even
    in curated default catalogs.
    """

    mu: float
    sigma: float
    clip: float
    outlier_prob: float = 0.0
    outlier_clip: float = 0.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        draws = np.clip(rng.normal(self.mu, self.sigma, size), -self.clip, self.clip)
        if self.outlier_prob > 0 and self.outlier_clip > self.clip:
            is_outlier = rng.random(size) < self.outlier_prob
            n_out = int(is_outlier.sum())
            if n_out:
                magnitude = rng.uniform(self.clip, self.outlier_clip, n_out)
                sign = np.where(rng.random(n_out) < 0.5, -1.0, 1.0)
                draws[is_outlier] = sign * magnitude
        return draws


@dataclass(frozen=True)
class PlatformCalibration:
    """Everything platform-specific about a simulated population.

    Parameters
    ----------
    key:
        Registry key (``"facebook"``, ``"google"``, ``"linkedin"``).
    marginals:
        Joint gender/age marginals of the platform's US user base.
    total_us_users:
        Reported size of the US audience; combined with the number of
        simulated records it fixes the per-record ``scale`` weight.
    gender_skew / age_skew:
        Distributions of the per-attribute direct demographic loadings.
        ``age_skew`` draws one "age anchor" per attribute which is then
        unfolded into a smooth profile over the four buckets, plus a
        platform-wide ``age_tilt`` added to every attribute (how Google
        and LinkedIn attributes systematically under-represent 18-24).
    base_logit_mu / base_logit_sigma:
        Prevalence intercept distribution (log-odds space).
    factor_loading_prob / factor_loading_scale:
        Probability an attribute loads on each latent factor and the
        scale of that loading -- the knob controlling how much
        composition amplifies skew beyond the multiplicative effect.
    restricted_gender_clip / restricted_age_clip:
        Only used for Facebook: the restricted interface excludes the
        most skewed options; its catalog is drawn from options whose
        loadings fall inside these clips.
    """

    key: str
    marginals: DemographicMarginals
    total_us_users: float
    gender_skew: SkewDistribution
    age_skew: SkewDistribution
    age_tilt: tuple[float, float, float, float]
    base_logit_mu: float = -4.0
    base_logit_sigma: float = 1.1
    factor_loading_prob: float = 0.55
    factor_loading_scale: float = 0.65
    restricted_gender_clip: float | None = None
    restricted_age_clip: float | None = None

    def scale_for(self, n_records: int) -> float:
        """Users represented by each simulated record."""
        if n_records <= 0:
            raise ValueError("n_records must be positive")
        return self.total_us_users / n_records


def _marginals_linkedin() -> DemographicMarginals:
    # LinkedIn is a professional network: fewer 18-24s and 55+ users than
    # the general population, and a male-leaning user base.
    return DemographicMarginals(
        gender_weights={Gender.MALE: 0.56, Gender.FEMALE: 0.44},
        age_weights={
            AgeRange.AGE_18_24: 0.12,
            AgeRange.AGE_25_34: 0.35,
            AgeRange.AGE_35_54: 0.40,
            AgeRange.AGE_55_PLUS: 0.13,
        },
    )


def _marginals_google() -> DemographicMarginals:
    # Google's display network reach approximates the online population.
    return US_MARGINALS


#: Calibration registry.  ``facebook`` covers both the normal and the
#: restricted interface (they share a population; the restricted catalog
#: is a clipped subset -- see ``restricted_gender_clip``).
CALIBRATIONS: dict[str, PlatformCalibration] = {
    "facebook": PlatformCalibration(
        key="facebook",
        marginals=US_MARGINALS,
        total_us_users=232_000_000,
        # Paper: FB attributes skew female; p90 male ratio 1.45
        # => mu + Z90*sigma = ln 1.45 = 0.372.
        gender_skew=SkewDistribution(
            mu=-0.22, sigma=0.46, clip=1.7, outlier_prob=0.03, outlier_clip=2.15
        ),
        age_skew=SkewDistribution(
            mu=0.0, sigma=0.28, clip=1.1, outlier_prob=0.03, outlier_clip=1.9
        ),
        age_tilt=(0.0, 0.05, 0.0, -0.05),
        base_logit_mu=-3.9,
        base_logit_sigma=1.15,
        factor_loading_prob=0.65,
        factor_loading_scale=1.0,
        # Restricted interface: sanitized but not skew-free (its p90/p10
        # male ratios are 1.84/0.50, and it still contains options such
        # as Electrical engineering at 3.71).
        restricted_gender_clip=1.45,
        restricted_age_clip=1.25,
    ),
    "google": PlatformCalibration(
        key="google",
        marginals=_marginals_google(),
        total_us_users=246_000_000,
        # Google's default audiences/topics include strongly stereotyped
        # entries in both directions (paper Table 2: ratios 4-6 either way).
        gender_skew=SkewDistribution(
            mu=0.0, sigma=0.52, clip=1.7, outlier_prob=0.05, outlier_clip=2.0
        ),
        age_skew=SkewDistribution(
            mu=0.0, sigma=0.5, clip=1.6, outlier_prob=0.05, outlier_clip=2.2
        ),
        # Systematically skewed away from 18-24 and toward 55+ (Fig. 2/4).
        age_tilt=(-0.42, -0.05, 0.12, 0.35),
        base_logit_mu=-4.6,
        base_logit_sigma=1.2,
        factor_loading_prob=0.6,
        factor_loading_scale=0.95,
    ),
    "linkedin": PlatformCalibration(
        key="linkedin",
        marginals=_marginals_linkedin(),
        total_us_users=160_000_000,
        # Paper: LinkedIn p90 male ratio 2.09 => mu + Z90*sigma = 0.737.
        gender_skew=SkewDistribution(
            mu=0.18, sigma=0.44, clip=1.7, outlier_prob=0.04, outlier_clip=2.1
        ),
        age_skew=SkewDistribution(
            mu=0.0, sigma=0.36, clip=1.3, outlier_prob=0.04, outlier_clip=2.0
        ),
        age_tilt=(-0.5, 0.05, 0.18, 0.22),
        base_logit_mu=-4.2,
        base_logit_sigma=1.15,
        factor_loading_prob=0.55,
        factor_loading_scale=0.75,
    ),
}


def get_calibration(key: str) -> PlatformCalibration:
    """Look up a platform calibration, raising a helpful error."""
    try:
        return CALIBRATIONS[key]
    except KeyError:
        known = ", ".join(sorted(CALIBRATIONS))
        raise KeyError(f"unknown platform {key!r}; known: {known}") from None
