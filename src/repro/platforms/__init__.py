"""Simulated advertising platforms (the paper's measurement targets).

This package substitutes for live advertiser access to Facebook,
Google, and LinkedIn.  Each platform is a synthetic population plus one
or more *interfaces* enforcing that platform's real targeting grammar,
composition rules, and size-estimate rounding.  See ``DESIGN.md`` for
the substitution rationale.

The convenience factory :func:`build_platform_suite` constructs the four
interfaces the paper studies (Facebook restricted, Facebook normal,
Google Display, LinkedIn) over consistently sized populations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.platforms.audiences import (
    AudienceService,
    CustomAudience,
    TrackingPixel,
)
from repro.platforms.base import (
    AdPlatformInterface,
    InterfaceCapabilities,
    ReachEstimate,
)
from repro.platforms.catalog import Catalog, CatalogEntry
from repro.platforms.errors import (
    ApiError,
    BadRequestError,
    CampaignConfigError,
    DisallowedTargetingError,
    ExclusionNotAllowedError,
    NoSizeEstimateError,
    PlatformError,
    TargetingError,
    UnknownOptionError,
    UnsupportedCompositionError,
)
from repro.platforms.facebook import (
    FacebookMarketingPlatform,
    FacebookNormalInterface,
    FacebookRestrictedInterface,
)
from repro.platforms.google import (
    MOST_RESTRICTIVE_CAP,
    FrequencyCap,
    GoogleDisplayInterface,
    GooglePlatform,
    GoogleSearchCampaign,
)
from repro.platforms.linkedin import LinkedInInterface, LinkedInPlatform
from repro.platforms.rounding import (
    ExactRounding,
    FacebookRounding,
    GoogleRounding,
    LinkedInRounding,
    RoundingPolicy,
)
from repro.platforms.targeting import Clause, TargetingSpec, spec_intersection
from repro.population.model import LatentFactorModel, default_model

__all__ = [
    "AdPlatformInterface",
    "AudienceService",
    "CustomAudience",
    "TrackingPixel",
    "ApiError",
    "BadRequestError",
    "CampaignConfigError",
    "Catalog",
    "CatalogEntry",
    "Clause",
    "DisallowedTargetingError",
    "ExactRounding",
    "ExclusionNotAllowedError",
    "FacebookMarketingPlatform",
    "FacebookNormalInterface",
    "FacebookRestrictedInterface",
    "FacebookRounding",
    "FrequencyCap",
    "GoogleDisplayInterface",
    "GooglePlatform",
    "GoogleRounding",
    "GoogleSearchCampaign",
    "InterfaceCapabilities",
    "LinkedInInterface",
    "LinkedInPlatform",
    "LinkedInRounding",
    "MOST_RESTRICTIVE_CAP",
    "NoSizeEstimateError",
    "PlatformError",
    "PlatformSuite",
    "ReachEstimate",
    "RoundingPolicy",
    "TargetingError",
    "TargetingSpec",
    "UnknownOptionError",
    "UnsupportedCompositionError",
    "build_platform_suite",
    "spec_intersection",
]


@dataclass
class PlatformSuite:
    """The four studied interfaces plus their owning platforms."""

    facebook: FacebookMarketingPlatform
    google: GooglePlatform
    linkedin: LinkedInPlatform

    @property
    def interfaces(self) -> dict[str, AdPlatformInterface]:
        """All measurement interfaces keyed by registry key, in the
        order the paper presents them (FB-restricted first)."""
        return {
            self.facebook.restricted.key: self.facebook.restricted,
            self.facebook.normal.key: self.facebook.normal,
            self.google.display.key: self.google.display,
            self.linkedin.interface.key: self.linkedin.interface,
        }


def build_platform_suite(
    n_records: int = 50_000,
    seed: int = 42,
    model: LatentFactorModel | None = None,
    rounding: RoundingPolicy | None = None,
) -> PlatformSuite:
    """Build all simulated platforms over ``n_records``-sized populations.

    Each platform draws an independent population (seeded off ``seed``)
    with its own calibration; all share one latent-factor ``model`` so
    cross-platform comparisons use the same interest space.  Pass
    ``rounding`` (e.g. :class:`ExactRounding`) to override every
    interface's rounding policy for ablations.
    """
    model = model or default_model()
    return PlatformSuite(
        facebook=FacebookMarketingPlatform(
            n_records=n_records,
            seed=seed,
            model=model,
            rounding=rounding,
        ),
        google=GooglePlatform(
            n_records=n_records,
            seed=seed + 1,
            model=model,
            rounding=rounding,
        ),
        linkedin=LinkedInPlatform(
            n_records=n_records,
            seed=seed + 2,
            model=model,
            rounding=rounding,
        ),
    )
