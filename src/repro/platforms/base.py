"""Common machinery for simulated advertising platform interfaces.

An *interface* is what an advertiser (and hence the audit) talks to: a
catalog of targeting options, a validator enforcing what that interface
allows, and a reach estimator returning **rounded** audience-size
estimates.  The same platform can expose several interfaces over one
population -- Facebook's normal and restricted interfaces share users
and attributes but allow different targetings.

Exact audience sizes never leave this module un-rounded: the audit sees
only what a real advertiser would see.
"""

from __future__ import annotations

from abc import ABC
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.platforms.catalog import Catalog, CatalogEntry
from repro.platforms.errors import (
    CampaignConfigError,
    DisallowedTargetingError,
    ExclusionNotAllowedError,
    TargetingError,
    UnknownOptionError,
)
from repro.platforms.rounding import RoundingPolicy
from repro.platforms.targeting import TargetingSpec
from repro.population.bitsets import BitVector, intersect_counts, union_all
from repro.population.generator import Population

__all__ = ["InterfaceCapabilities", "ReachEstimate", "AdPlatformInterface"]

#: Bound on the bit-vector words each interface's rule-resolution memo
#: retains: 8 MiB of ``uint64`` words, which is 670 entries at 100k
#: records and 27,594 at 2,400 (never fewer than one).  Every entry
#: holds a population-sized vector, so a bound in entries would let the
#: memo grow with the population: 32,768 entries of 100k-record vectors
#: take 400 MB.  Reuse is short-range -- an audit revisits a rule under
#: each demographic slice of one batch, then moves on -- so a few
#: hundred entries hit about as often as tens of thousands.
_RULE_MEMO_WORDS = 1 << 20


@dataclass(frozen=True)
class InterfaceCapabilities:
    """What a targeting interface allows, as flags the audit consults.

    Attributes
    ----------
    gender_targeting / age_targeting:
        Whether the interface has explicit gender / age targeting
        fields (Facebook's restricted interface has neither; LinkedIn
        expresses demographics only as detailed attributes).
    exclusions:
        Whether holders of an attribute can be excluded.
    and_of_ors:
        Whether arbitrary and-of-or rules over options are expressible
        (needed for the overlap analysis; Google's display interface
        does not support it across user attributes).
    cross_feature_and_only:
        True when options may be AND-composed only across different
        features (Google: audiences x topics).
    estimate_unit:
        ``"users"`` (Facebook, LinkedIn) or ``"impressions"`` (Google).
    """

    gender_targeting: bool
    age_targeting: bool
    exclusions: bool
    and_of_ors: bool
    cross_feature_and_only: bool
    estimate_unit: str


@dataclass(frozen=True)
class ReachEstimate:
    """A rounded audience-size estimate as shown by a targeting UI."""

    estimate: int
    unit: str
    spec: TargetingSpec
    objective: str

    def __int__(self) -> int:
        return self.estimate


class AdPlatformInterface(ABC):
    """Base class for the four studied targeting interfaces.

    Subclasses provide the catalog, capabilities, objectives, and any
    interface-specific validation; this base resolves validated specs
    against the population bitset index, applies the platform's
    rounding policy, and counts queries (the paper reports making over
    80,000 size queries per platform).
    """

    #: Human-readable interface name, e.g. ``"Facebook (restricted)"``.
    name: str = ""
    #: Registry key, e.g. ``"facebook_restricted"``.
    key: str = ""

    def __init__(
        self,
        population: Population,
        catalog: Catalog,
        rounding: RoundingPolicy,
        capabilities: InterfaceCapabilities,
        objectives: Sequence[str],
        default_objective: str,
    ):
        if default_objective not in objectives:
            raise ValueError("default objective must be among objectives")
        self.population = population
        self.catalog = catalog
        self.rounding = rounding
        self.capabilities = capabilities
        self.objectives = tuple(objectives)
        self.default_objective = default_objective
        self.query_count = 0
        # Custom/pixel/lookalike audiences targetable on this interface,
        # registered by an AudienceService.
        self._audience_vectors: dict[str, BitVector] = {}
        # Resolution memo: the demographic-free rule part of a spec
        # (``spec.rule``: clauses + exclusions) resolves to the same
        # bitvector under every demographic slice, so it is computed once
        # and re-sliced against precomputed gender/age vectors.
        self._rule_memo: OrderedDict[
            tuple[object, ...], BitVector
        ] = OrderedDict()
        self._rule_memo_entries = max(
            1, _RULE_MEMO_WORDS // population.index.everyone.words.size
        )
        self._demographic_memo: dict[tuple[object, ...], BitVector] = {}
        # Popcounts primed by the batch endpoints (consumed on use).
        self._count_memo: dict[TargetingSpec, int] = {}
        self.resolution_hits = 0
        self.resolution_misses = 0

    # -- catalog access ----------------------------------------------------

    def option_entry(self, option_id: str) -> CatalogEntry:
        """Catalog entry for an option (UnknownOptionError if absent)."""
        try:
            return self.catalog.get(option_id)
        except KeyError:
            raise UnknownOptionError(option_id, self.name) from None

    def option_names(self) -> dict[str, str]:
        """Display names for every catalog option."""
        return self.catalog.names()

    def study_option_ids(self) -> list[str]:
        """The default browsable option list the paper studies."""
        return self.catalog.study_ids()

    def search(self, query: str) -> list[CatalogEntry]:
        """Search targeting options (default: catalog substring search)."""
        return self.catalog.search(query)

    # -- audiences -----------------------------------------------------------

    def register_audience(self, audience_id: str, members: BitVector) -> None:
        """Make a custom/derived audience targetable on this interface."""
        if not audience_id.startswith("audience:"):
            raise ValueError("audience ids must start with 'audience:'")
        if members.n_records != self.population.n_records:
            raise ValueError("audience spans a different population")
        self._audience_vectors[audience_id] = members
        # A re-registered audience id may change what cached rules
        # resolve to; drop the memos rather than track which entries
        # referenced it.
        self._rule_memo.clear()
        self._count_memo.clear()

    def has_audience(self, audience_id: str) -> bool:
        """Whether an audience id is targetable here."""
        return audience_id in self._audience_vectors

    # -- validation ----------------------------------------------------------

    def validate(self, spec: TargetingSpec) -> None:
        """Raise a :class:`TargetingError` subclass if ``spec`` is invalid."""
        if spec.country != "US":
            raise TargetingError(
                f"{self.name} simulation only models the US audience, "
                f"got country={spec.country!r}"
            )
        if spec.genders is not None and not self.capabilities.gender_targeting:
            raise DisallowedTargetingError(
                f"{self.name} does not allow gender targeting"
            )
        if spec.age_ranges is not None and not self.capabilities.age_targeting:
            raise DisallowedTargetingError(
                f"{self.name} does not allow age targeting"
            )
        if spec.exclusions and not self.capabilities.exclusions:
            raise ExclusionNotAllowedError(
                f"{self.name} does not allow excluding attribute holders"
            )
        # A rule already in the resolution memo passed the option and
        # composition checks when it was first resolved; demographic
        # slices of it only need the field checks above.
        if spec.rule in self._rule_memo:
            return
        for option_id in spec.option_ids:
            if option_id in self._audience_vectors:
                continue
            self.option_entry(option_id)
        self._validate_extra(spec)

    def _validate_extra(self, spec: TargetingSpec) -> None:
        """Interface-specific validation hook (composition rules etc.)."""

    # -- audience resolution ---------------------------------------------

    def _option_vector(self, option_id: str) -> BitVector:
        """Membership vector for one option id."""
        if option_id in self._audience_vectors:
            return self._audience_vectors[option_id]
        entry = self.option_entry(option_id)
        if entry.demographic_value is not None:
            return self.population.index.demographic(entry.demographic_value)
        return self.population.index.attribute(option_id)

    def _rule_vector(self, spec: TargetingSpec) -> BitVector:
        """Memoised resolution of a spec's clauses and exclusions.

        Eviction is FIFO rather than LRU: audits sweep through rules
        rather than revisiting old ones, so recency tracking would cost
        a ``move_to_end`` on the hot hit path for nothing.
        """
        key = spec.rule
        cached = self._rule_memo.get(key)
        if cached is not None:
            self.resolution_hits += 1
            return cached
        self.resolution_misses += 1
        # Fold clauses without touching the all-ones vector: ANDing with
        # ``everyone`` is the identity, and most audited rules are one or
        # two single-option clauses where every saved AND matters.
        audience: BitVector | None = None
        for clause in spec.clauses:
            clause_union = None
            for option_id in clause.options:
                vec = self._option_vector(option_id)
                clause_union = vec if clause_union is None else clause_union | vec
            audience = (
                clause_union if audience is None else audience & clause_union
            )
        if audience is None:
            audience = self.population.index.everyone
        if spec.exclusions:
            for option_id in sorted(spec.exclusions):
                audience = audience.difference(self._option_vector(option_id))
        self._rule_memo[key] = audience
        if len(self._rule_memo) > self._rule_memo_entries:
            self._rule_memo.popitem(last=False)
        return audience

    def _demographic_union(self, kind: str, values, lookup) -> BitVector:
        """Memoised union of gender/age vectors for a demographic field."""
        key = (kind, values)
        cached = self._demographic_memo.get(key)
        if cached is None:
            cached = self._demographic_memo[key] = union_all(
                lookup(v) for v in values
            )
        return cached

    def audience_vector(self, spec: TargetingSpec) -> BitVector:
        """Resolve a *validated* spec to its audience bit vector.

        The clause/exclusion part resolves through a memo shared by all
        demographic slices of the same rule, so an audit's per-gender
        and per-age queries cost one AND each instead of a full
        re-resolution.
        """
        index = self.population.index
        audience = self._rule_vector(spec)
        if spec.genders is not None:
            audience = audience & self._demographic_union(
                "gender", spec.genders, index.gender
            )
        if spec.age_ranges is not None:
            audience = audience & self._demographic_union(
                "age", spec.age_ranges, index.age
            )
        return audience

    def resolution_stats(self) -> dict[str, int]:
        """Hit/miss counters of the rule-resolution memo."""
        return {
            "hits": self.resolution_hits,
            "misses": self.resolution_misses,
            "entries": len(self._rule_memo),
        }

    def prime_counts(self, specs: Iterable[TargetingSpec]) -> None:
        """Vectorise the audience popcounts an incoming batch will need.

        Batch endpoints call this with every decodable spec in a
        request: valid specs resolve to rule vectors, group by their
        demographic slice, and popcount in one 2-D numpy pass per
        group.  The per-item estimate path then consumes the counts
        from a memo instead of paying per-spec numpy dispatch.  Invalid
        specs are skipped here so the per-item path reports their
        errors exactly as a single call would.
        """
        groups: dict[
            tuple[object, object], tuple[list[TargetingSpec], list[BitVector]]
        ] = {}
        memo = self._count_memo
        rule_memo = self._rule_memo
        caps = self.capabilities
        for spec in specs:
            rule = rule_memo.get(spec.rule)
            if rule is not None:
                self.resolution_hits += 1
                # A memoised rule already passed option and composition
                # checks; re-check only the per-spec fields (and leave
                # rejects unprimed so the per-item path raises).
                if (
                    spec.country != "US"
                    or (spec.genders is not None and not caps.gender_targeting)
                    or (spec.age_ranges is not None and not caps.age_targeting)
                    or (spec.exclusions and not caps.exclusions)
                ):
                    continue
            else:
                try:
                    self.validate(spec)
                    rule = self._rule_vector(spec)
                except TargetingError:
                    continue
            bucket = groups.get((spec.genders, spec.age_ranges))
            if bucket is None:
                bucket = groups[(spec.genders, spec.age_ranges)] = ([], [])
            bucket[0].append(spec)
            bucket[1].append(rule)
        index = self.population.index
        for (genders, ages), (group_specs, rules) in groups.items():
            mask = None
            if genders is not None:
                mask = self._demographic_union("gender", genders, index.gender)
            if ages is not None:
                age_mask = self._demographic_union("age", ages, index.age)
                mask = age_mask if mask is None else mask & age_mask
            memo.update(zip(group_specs, intersect_counts(rules, mask)))

    def _audience_count(self, spec: TargetingSpec) -> int:
        """Popcount of a validated spec's audience.

        Slicing a memoised rule vector by one demographic union is the
        single hottest operation of an audit; ``intersect_count`` folds
        the AND and the popcount into one pass without materialising a
        :class:`BitVector` for the result.
        """
        index = self.population.index
        audience = self._rule_vector(spec)
        genders, ages = spec.genders, spec.age_ranges
        if genders is not None and ages is not None:
            audience = audience & self._demographic_union(
                "gender", genders, index.gender
            )
            return audience.intersect_count(
                self._demographic_union("age", ages, index.age)
            )
        if genders is not None:
            return audience.intersect_count(
                self._demographic_union("gender", genders, index.gender)
            )
        if ages is not None:
            return audience.intersect_count(
                self._demographic_union("age", ages, index.age)
            )
        return audience.count()

    def exact_users(self, spec: TargetingSpec) -> float:
        """Exact (scaled) user count -- internal; the audit never sees it."""
        # A primed count means the spec was already validated and
        # popcounted by :meth:`prime_counts` for this batch request.
        primed = self._count_memo.pop(spec, None)
        if primed is not None:
            return primed * self.population.scale
        self.validate(spec)
        return self._audience_count(spec) * self.population.scale

    # -- the advertiser-visible estimate ------------------------------------

    def _estimate_value(self, exact_users: float, objective: str) -> float:
        """Convert exact users into the quantity the UI estimates.

        Default: the estimate counts users ("the size of the audience
        that's eligible to see your ad").  Google overrides this to
        report impressions.
        """
        return exact_users

    def estimate_value(
        self, spec: TargetingSpec, objective: str | None = None
    ) -> int:
        """Rounded estimate alone, without the :class:`ReachEstimate`
        packaging.

        The batch endpoints size dozens of audiences per request and
        only ever read the number; this shares every semantic step with
        :meth:`estimate_reach` (validation, resolution, rounding, query
        accounting) minus the per-item record object.
        """
        objective = objective or self.default_objective
        if objective not in self.objectives:
            raise CampaignConfigError(
                f"{self.name} does not offer objective {objective!r}; "
                f"available: {', '.join(self.objectives)}"
            )
        exact = self.exact_users(spec)
        value = self._estimate_value(exact, objective)
        self.query_count += 1
        return self.rounding.round(value)

    def estimate_reach(
        self, spec: TargetingSpec, objective: str | None = None
    ) -> ReachEstimate:
        """Rounded audience-size estimate for a targeting spec.

        This is the only measurement channel the audit has, mirroring
        the paper's methodology of reading the size estimates shown by
        the targeting UIs.
        """
        objective = objective or self.default_objective
        return ReachEstimate(
            estimate=self.estimate_value(spec, objective),
            unit=self.capabilities.estimate_unit,
            spec=spec,
            objective=objective,
        )

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.key} options={len(self.catalog)} "
            f"records={self.population.n_records}>"
        )
