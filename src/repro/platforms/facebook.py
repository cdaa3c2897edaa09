"""Simulated Facebook marketing platform: normal + restricted interfaces.

Facebook is the largest and most mature of the studied platforms.  Two
interfaces are modelled over one shared population:

* the **normal** interface: 667 default detailed-targeting attributes,
  hundreds of thousands of searchable free-form attributes (a curated
  sample is simulated), gender/age targeting, and attribute exclusion;
* the **restricted** interface for housing/credit/employment ads
  (Section 2.2): a sanitised list of 393 attributes, *no* gender or age
  targeting, and *no* exclusions.

Because the restricted interface cannot target demographics, the paper
measures representation ratios of restricted-interface targetings by
re-creating them on the normal interface (Section 3, "Targeting
audiences"); both interfaces sharing one population makes that exact.
"""

from __future__ import annotations

from repro.platforms.base import (
    AdPlatformInterface,
    InterfaceCapabilities,
)
from repro.platforms.catalog import (
    CatalogEntry,
    UniverseBuild,
    build_facebook_universe,
)
from repro.platforms.errors import UnknownOptionError
from repro.platforms.rounding import FacebookRounding, RoundingPolicy
from repro.population.calibration import get_calibration
from repro.population.generator import Population, PopulationGenerator
from repro.population.model import LatentFactorModel, default_model

__all__ = [
    "FacebookNormalInterface",
    "FacebookRestrictedInterface",
    "FacebookMarketingPlatform",
]

_OBJECTIVES = ("Reach", "Brand awareness", "Traffic", "Conversions")


class FacebookNormalInterface(AdPlatformInterface):
    """Facebook's full ads interface.

    Beyond the 667-entry default list, the normal interface lets
    advertisers *search* for free-form attributes (e.g. *Interested in
    Marie Claire*); matching attributes are realised in the population
    on first discovery and become targetable.
    """

    name = "Facebook"
    key = "facebook"

    def __init__(
        self,
        population: Population,
        build: UniverseBuild,
        rounding: RoundingPolicy | None = None,
    ):
        super().__init__(
            population=population,
            catalog=build.catalog,
            rounding=rounding or FacebookRounding(),
            capabilities=InterfaceCapabilities(
                gender_targeting=True,
                age_targeting=True,
                exclusions=True,
                estimate_unit="users",
            ),
            objectives=_OBJECTIVES,
            default_objective="Reach",
        )
        self._searchable_specs = dict(build.searchable_specs)
        self._searchable_entries = dict(build.searchable_entries)
        self._discovered: dict[str, CatalogEntry] = {}

    def search(self, query: str) -> list[CatalogEntry]:
        """Search default *and* free-form attributes.

        Free-form matches are realised in the population on discovery,
        after which they validate and estimate like any other option.
        """
        matches = list(self.catalog.search(query))
        q = query.lower()
        for attr_id, entry in self._searchable_entries.items():
            if q in entry.display.lower():
                if attr_id not in self._discovered:
                    self.population.realise_attribute(self._searchable_specs[attr_id])
                    self._discovered[attr_id] = entry
                matches.append(entry)
        return matches

    def option_entry(self, option_id: str) -> CatalogEntry:
        try:
            return self.catalog.get(option_id)
        except KeyError:
            if option_id in self._discovered:
                return self._discovered[option_id]
            raise UnknownOptionError(option_id, self.name) from None


class FacebookRestrictedInterface(AdPlatformInterface):
    """Facebook's special-ad-category (housing/credit/employment) interface.

    Enforces the settlement restrictions: no gender or age targeting,
    no attribute exclusion, and a sanitised 393-attribute list.
    Lookalike audiences are replaced by "special ad audiences"; since
    the paper's experiments never use them, they are not modelled
    beyond this note.
    """

    name = "Facebook (restricted)"
    key = "facebook_restricted"

    def __init__(
        self,
        population: Population,
        build: UniverseBuild,
        rounding: RoundingPolicy | None = None,
    ):
        super().__init__(
            population=population,
            catalog=build.catalog.subset(build.restricted_ids),
            rounding=rounding or FacebookRounding(),
            capabilities=InterfaceCapabilities(
                gender_targeting=False,
                age_targeting=False,
                exclusions=False,
                estimate_unit="users",
            ),
            objectives=_OBJECTIVES,
            default_objective="Reach",
        )


class FacebookMarketingPlatform:
    """One Facebook population exposing both interfaces.

    Parameters
    ----------
    n_records:
        Simulated population size in records.
    seed:
        Root seed for the population draw.
    model:
        Latent-factor model; defaults to :func:`default_model`.
    rounding:
        Override the estimate rounding (used by the rounding ablation).
    """

    def __init__(
        self,
        n_records: int = 50_000,
        seed: int = 2020,
        model: LatentFactorModel | None = None,
        rounding: RoundingPolicy | None = None,
    ):
        calibration = get_calibration("facebook")
        self.model = model or default_model()
        self.build = build_facebook_universe(calibration, self.model)
        generator = PopulationGenerator(
            marginals=calibration.marginals,
            model=self.model,
            n_records=n_records,
            scale=calibration.scale_for(n_records),
            seed=seed,
        )
        self.population = generator.generate(self.build.specs)
        self.normal = FacebookNormalInterface(self.population, self.build, rounding)
        self.restricted = FacebookRestrictedInterface(
            self.population, self.build, rounding
        )
        # PII / pixel / lookalike audiences; the restricted interface
        # receives custom and pixel audiences plus special ad audiences,
        # never plain lookalikes (Section 2.2).
        from repro.platforms.audiences import AudienceService

        self.audiences = AudienceService(
            platform_key="fb",
            population=self.population,
            interfaces=[self.normal],
            restricted_interfaces=[self.restricted],
            pii_seed=seed,
        )
