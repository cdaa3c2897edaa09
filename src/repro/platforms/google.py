"""Simulated Google ads platform (Display network focus).

Google differs from the other platforms in three ways the audit must
handle (Section 3 and footnotes 8-9 of the paper):

* its reach estimate counts **impressions**, not users, and depends on
  the campaign's *frequency capping* setting; the paper sets the cap to
  its most restrictive value (one impression per user per month) so
  impressions approximate users;
* on Display campaigns, user attributes ("audiences") can be combined
  only via logical-**or**; logical-**and** composition is possible only
  *across* features -- e.g. an audience attribute AND a placement
  topic -- which is why the paper pairs Google's 873 attributes with
  its 2,424 topics;
* boolean combinations of user attributes exist for search-related
  campaign types, but those show **no audience size statistics**, which
  is why the overlap analysis (Table 1) omits Google.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.platforms.base import AdPlatformInterface, InterfaceCapabilities
from repro.platforms.catalog import UniverseBuild, build_google_universe
from repro.platforms.errors import (
    NoSizeEstimateError,
    UnsupportedCompositionError,
)
from repro.platforms.rounding import GoogleRounding, RoundingPolicy
from repro.platforms.targeting import TargetingSpec
from repro.population.calibration import get_calibration
from repro.population.generator import Population, PopulationGenerator
from repro.population.model import LatentFactorModel, default_model

__all__ = [
    "FrequencyCap",
    "MOST_RESTRICTIVE_CAP",
    "GoogleDisplayInterface",
    "GoogleSearchCampaign",
    "GooglePlatform",
]

#: Average monthly display impressions per reached user when no
#: frequency cap is set (drives the impressions estimate).
_TYPICAL_MONTHLY_IMPRESSIONS = 6.4

_PERIOD_PER_MONTH = {"day": 30.4, "week": 4.35, "month": 1.0}


@dataclass(frozen=True)
class FrequencyCap:
    """A 'max impressions per user per period' campaign setting."""

    impressions: int
    per: str = "month"

    def __post_init__(self) -> None:
        if self.impressions < 1:
            raise ValueError("frequency cap must allow at least one impression")
        if self.per not in _PERIOD_PER_MONTH:
            raise ValueError(f"unknown cap period {self.per!r}")

    @property
    def monthly_equivalent(self) -> float:
        """Maximum impressions per user per month this cap allows."""
        return self.impressions * _PERIOD_PER_MONTH[self.per]


#: The setting the paper uses: one impression per user per month, making
#: the impressions estimate approximate the number of users reached.
MOST_RESTRICTIVE_CAP = FrequencyCap(impressions=1, per="month")


class GoogleDisplayInterface(AdPlatformInterface):
    """Google's Display campaign targeting interface.

    Features: ``audiences`` (873 attribute-based options) and ``topics``
    (2,424 contextual placement topics).  Within a feature, options
    combine via logical-or only; across features, via logical-and.
    """

    name = "Google (Display)"
    key = "google"

    def __init__(
        self,
        population: Population,
        build: UniverseBuild,
        rounding: RoundingPolicy | None = None,
    ):
        super().__init__(
            population=population,
            catalog=build.catalog,
            rounding=rounding or GoogleRounding(),
            capabilities=InterfaceCapabilities(
                gender_targeting=True,
                age_targeting=True,
                exclusions=False,
                estimate_unit="impressions",
            ),
            objectives=("Brand awareness and reach", "Sales", "Website traffic"),
            default_objective="Brand awareness and reach",
        )

    def _validate_extra(self, spec: TargetingSpec) -> None:
        seen_features: set[str] = set()
        for clause in spec.clauses:
            features = {
                "custom_audiences"
                if self.has_audience(o)
                else self.option_entry(o).feature
                for o in clause.options
            }
            if len(features) > 1:
                raise UnsupportedCompositionError(
                    "Google cannot OR options from different features "
                    f"in one clause: {sorted(features)}"
                )
            feature = features.pop()
            if feature in seen_features:
                raise UnsupportedCompositionError(
                    "Google Display campaigns combine options of the same "
                    f"feature ({feature!r}) via logical-or only; logical-and "
                    "composition requires options from different features"
                )
            seen_features.add(feature)

    def _reported_value(
        self,
        exact_users: float,
        objective: str | None = None,
        frequency_cap: FrequencyCap | None = None,
    ) -> float:
        """Impressions estimate, sensitive to the frequency cap.

        Without a cap the estimate is roughly 6.4x the user count; with
        the most restrictive cap (1/user/month) it approximates users.
        """
        per_user = (
            min(frequency_cap.monthly_equivalent, _TYPICAL_MONTHLY_IMPRESSIONS)
            if frequency_cap is not None
            else _TYPICAL_MONTHLY_IMPRESSIONS
        )
        return exact_users * per_user


class GoogleSearchCampaign(AdPlatformInterface):
    """Search-product campaign: boolean audience combos, no size stats.

    Exists to model footnote 8: Google *does* allow boolean
    combinations of user attributes for campaigns related to its search
    products, but shows no audience size statistics for them, so the
    audit cannot use this interface for measurement.
    """

    name = "Google (Search)"
    key = "google_search"

    def __init__(
        self,
        population: Population,
        build: UniverseBuild,
        rounding: RoundingPolicy | None = None,
    ):
        super().__init__(
            population=population,
            catalog=build.catalog,
            rounding=rounding or GoogleRounding(),
            capabilities=InterfaceCapabilities(
                gender_targeting=True,
                age_targeting=True,
                exclusions=True,
                estimate_unit="impressions",
            ),
            objectives=("Sales", "Leads", "Website traffic"),
            default_objective="Sales",
        )

    def _reported_value(
        self, exact_users: float, objective: str | None = None
    ) -> float:
        raise NoSizeEstimateError(
            "Google shows no audience size statistics for boolean "
            "combinations of user attributes on search-product campaigns"
        )


class GooglePlatform:
    """One Google population exposing Display and Search interfaces."""

    def __init__(
        self,
        n_records: int = 50_000,
        seed: int = 2021,
        model: LatentFactorModel | None = None,
        rounding: RoundingPolicy | None = None,
    ):
        calibration = get_calibration("google")
        self.model = model or default_model()
        self.build = build_google_universe(calibration, self.model)
        generator = PopulationGenerator(
            marginals=calibration.marginals,
            model=self.model,
            n_records=n_records,
            scale=calibration.scale_for(n_records),
            seed=seed,
        )
        self.population = generator.generate(self.build.specs)
        self.display = GoogleDisplayInterface(self.population, self.build, rounding)
        self.search_campaign = GoogleSearchCampaign(
            self.population, self.build, rounding
        )
        from repro.platforms.audiences import AudienceService

        # Customer Match / remarketing / similar audiences.
        self.audiences = AudienceService(
            platform_key="g",
            population=self.population,
            interfaces=[self.display, self.search_campaign],
            pii_seed=seed,
        )
