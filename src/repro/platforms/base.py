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
from typing import Any, Mapping, Sequence

from repro.platforms.catalog import Catalog, CatalogEntry
from repro.platforms.errors import (
    CampaignConfigError,
    DisallowedTargetingError,
    ExclusionNotAllowedError,
    PlatformError,
    TargetingError,
    UnknownOptionError,
)
from repro.platforms.rounding import RoundingPolicy
from repro.platforms.targeting import TargetingSpec
from repro.population.bitsets import (
    BitVector,
    intersect_all,
    intersect_counts,
    union_all,
)
from repro.population.generator import Population

__all__ = [
    "BatchItem",
    "InterfaceCapabilities",
    "ReachEstimate",
    "AdPlatformInterface",
]

#: Bound on the bit-vector words each interface's rule-resolution memo
#: retains: 2 MiB of ``uint64`` words, which is 167 entries at 100k
#: records and 6,898 at 2,400 (never fewer than one).  Every entry
#: holds a population-sized vector, so a bound in entries would let the
#: memo grow with the population: 32,768 entries of 100k-record vectors
#: take 400 MB.  Measured misses (seed 42): at 100k records the whole
#: run misses 117,256 rules with 8 MiB, 117,262 with 2 MiB and 117,264
#: with 512 KiB (41 entries), because an audit revisits a rule only
#: within one batch and its neighbour; at 2,400 records, where later
#: experiments come back to earlier compositions, 39,395 with 8 MiB,
#: 39,607 with 2 MiB, 43,634 with 1 MiB and 47,566 with 64 entries.
_RULE_MEMO_WORDS = 1 << 18

#: One batch item: a decoded ``(spec, estimate options)`` pair, or the
#: error that decoding it raised.  The options are the keyword
#: arguments of :meth:`AdPlatformInterface.estimate_reach`.
BatchItem = tuple[TargetingSpec, Mapping[str, Any]] | PlatformError

#: Size at which an interface's slice-mask memo starts over.
_MASK_MEMO_ENTRIES = 256


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
    estimate_unit:
        ``"users"`` (Facebook, LinkedIn) or ``"impressions"`` (Google).
    """

    gender_targeting: bool
    age_targeting: bool
    exclusions: bool
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
        # (clauses + exclusions, minus folded facet clauses) resolves to
        # the same bitvector under every demographic slice, so it is
        # computed once and counted against each slice's mask.
        self._rule_memo: OrderedDict[
            tuple[object, ...], BitVector
        ] = OrderedDict()
        self._rule_memo_entries = max(
            1, _RULE_MEMO_WORDS // population.index.everyone.words.size
        )
        # Demographic mask of each slice (genders, ages, facet clauses).
        self._mask_memo: dict[tuple[object, ...], BitVector | None] = {}
        # Catalog options that *are* a demographic value (LinkedIn's
        # gender and age facets).  A clause made only of these is a
        # demographic slice, not part of the rule.  A memo hit skips
        # ``_validate_extra``, so an interface with composition rules
        # folds none: they may constrain the facet clauses too.
        folds = type(self)._validate_extra is AdPlatformInterface._validate_extra
        self._facet_ids = frozenset(
            entry.option_id
            for entry in catalog
            if folds and entry.demographic_value is not None
        )
        self.resolution_hits = 0
        self.resolution_misses = 0

    # -- catalog access ----------------------------------------------------

    def option_entry(self, option_id: str) -> CatalogEntry:
        """Catalog entry for an option (UnknownOptionError if absent)."""
        try:
            return self.catalog.get(option_id)
        except KeyError:
            raise UnknownOptionError(option_id, self.name) from None

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
        # resolve to; drop the memo rather than track which entries
        # referenced it.
        self._rule_memo.clear()

    def has_audience(self, audience_id: str) -> bool:
        """Whether an audience id is targetable here."""
        return audience_id in self._audience_vectors

    # -- validation ----------------------------------------------------------

    def _check_fields(self, spec: TargetingSpec) -> None:
        """Raise if a spec sets a field this interface does not offer."""
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

    def _check_options(self, spec: TargetingSpec) -> None:
        """Raise if a spec names an unknown option or composes illegally."""
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

    def _split(
        self, spec: TargetingSpec
    ) -> tuple[tuple[object, ...], tuple[object, ...]]:
        """A spec's rule-memo key and its demographic slice.

        The key is ``(clauses, exclusions)``; the slice is ``(genders,
        ages, facet clauses)``.  A clause whose options are all
        demographic facets ANDs a demographic union into the audience,
        exactly as the gender and age fields do, so it joins the slice
        instead of the rule: every slice of one rule then shares one
        memo entry.  A clause mixing facets with other options, and a
        facet among the exclusions, stay in the rule.
        """
        _, genders, ages, clauses, exclusions = spec
        facet_ids = self._facet_ids
        if facet_ids:
            facets = tuple([c for c in clauses if c <= facet_ids])
            if facets:
                rule = tuple([c for c in clauses if not c <= facet_ids])
                return (rule, exclusions), (genders, ages, facets)
        return (clauses, exclusions), (genders, ages, ())

    def _rule_vector(self, key: tuple[object, ...]) -> BitVector:
        """Resolve a rule-memo key (clauses, exclusions) and memoise it.

        Eviction is FIFO rather than LRU: audits sweep through rules
        rather than revisiting old ones, so recency tracking would cost
        a ``move_to_end`` on the hot hit path for nothing.
        """
        clauses, exclusions = key
        self.resolution_misses += 1
        # Fold clauses without touching the all-ones vector: ANDing with
        # ``everyone`` is the identity, and most audited rules are one or
        # two single-option clauses where every saved AND matters.
        audience: BitVector | None = None
        for clause in clauses:
            clause_union = None
            for option_id in clause.options:
                vec = self._option_vector(option_id)
                clause_union = vec if clause_union is None else clause_union | vec
            audience = (
                clause_union if audience is None else audience & clause_union
            )
        if audience is None:
            audience = self.population.index.everyone
        if exclusions:
            for option_id in sorted(exclusions):
                audience = audience.difference(self._option_vector(option_id))
        self._rule_memo[key] = audience
        if len(self._rule_memo) > self._rule_memo_entries:
            self._rule_memo.popitem(last=False)
        return audience

    def _slice_mask(self, key: tuple[object, ...]) -> BitVector | None:
        """Memoised mask of a ``(genders, ages, facet clauses)`` slice.

        ``None`` is everyone.  An audit meets a few dozen slices, so the
        memo starts over at :data:`_MASK_MEMO_ENTRIES` rather than grow
        with a stream of unusual facet clauses.
        """
        memo = self._mask_memo
        if key in memo:
            return memo[key]
        genders, ages, facets = key
        index = self.population.index
        parts = [union_all(map(self._option_vector, c)) for c in facets]
        if genders is not None:
            parts.append(union_all(map(index.gender, genders)))
        if ages is not None:
            parts.append(union_all(map(index.age, ages)))
        if len(memo) >= _MASK_MEMO_ENTRIES:
            memo.clear()
        mask = memo[key] = intersect_all(parts) if parts else None
        return mask

    def resolution_stats(self) -> dict[str, int]:
        """Hit/miss counters of the rule-resolution memo."""
        return {
            "hits": self.resolution_hits,
            "misses": self.resolution_misses,
            "entries": len(self._rule_memo),
        }

    def prime_counts(
        self, specs: Sequence[TargetingSpec]
    ) -> list[int | PlatformError]:
        """Validate, resolve and popcount specs, one result per spec.

        Each spec passes the field checks, then resolves its rule
        through the memo; only a memo miss runs the option and
        composition checks, which every memoised rule already passed.
        Valid specs group by demographic slice, and each group
        popcounts in one 2-D numpy pass.  An invalid spec gets the
        error a lone call would raise, in its place.
        """
        results: list[int | PlatformError] = [0] * len(specs)
        groups: dict[tuple[object, ...], tuple[list[int], list[BitVector]]] = {}
        rule_memo = self._rule_memo
        for position, spec in enumerate(specs):
            try:
                self._check_fields(spec)
                key, demographic = self._split(spec)
                rule = rule_memo.get(key)
                if rule is None:
                    self._check_options(spec)
                    rule = self._rule_vector(key)
                else:
                    self.resolution_hits += 1
            except PlatformError as exc:
                results[position] = exc
                continue
            members = groups.get(demographic)
            if members is None:
                members = groups[demographic] = ([], [])
            members[0].append(position)
            members[1].append(rule)
        for demographic, (positions, rules) in groups.items():
            counts = intersect_counts(rules, self._slice_mask(demographic))
            for position, count in zip(positions, counts):
                results[position] = count
        return results

    def exact_users(self, spec: TargetingSpec) -> float:
        """Exact (scaled) user count -- internal; the audit never sees it."""
        [count] = self.prime_counts([spec])
        if isinstance(count, PlatformError):
            raise count
        return count * self.population.scale

    # -- the advertiser-visible estimate ------------------------------------

    def _reported_value(
        self, exact_users: float, objective: str | None = None
    ) -> float:
        """Convert exact users into the quantity the UI estimates.

        Default: the estimate counts users ("the size of the audience
        that's eligible to see your ad").  Google overrides this to
        report impressions; its extra keyword arguments are the
        interface's own estimate options.
        """
        return exact_users

    def estimate_batch(self, items: Sequence[BatchItem]) -> list[int | PlatformError]:
        """Rounded estimates for a batch, one result per item.

        One pass: each item's objective is checked, the specs that pass
        are validated, resolved and popcounted together
        (:meth:`prime_counts`), and each count is converted and rounded.
        An item that fails gets the error a lone :meth:`estimate_reach`
        call would raise, in its place; an item that failed to decode
        passes through unchanged.  Only successes count as queries.
        """
        results: list[int | PlatformError] = list(items)
        positions: list[int] = []
        specs: list[TargetingSpec] = []
        options: list[Mapping[str, Any]] = []
        for position, item in enumerate(items):
            if isinstance(item, PlatformError):
                continue
            spec, item_options = item
            objective = item_options.get("objective") or self.default_objective
            if objective not in self.objectives:
                results[position] = CampaignConfigError(
                    f"{self.name} does not offer objective {objective!r}; "
                    f"available: {', '.join(self.objectives)}"
                )
                continue
            positions.append(position)
            specs.append(spec)
            options.append(item_options)
        scale = self.population.scale
        value, round_value = self._reported_value, self.rounding.round
        estimated = 0
        for position, item_options, count in zip(
            positions, options, self.prime_counts(specs)
        ):
            if not isinstance(count, PlatformError):
                try:
                    count = round_value(value(count * scale, **item_options))
                except PlatformError as exc:
                    count = exc
                else:
                    estimated += 1
            results[position] = count
        self.query_count += estimated
        return results

    def estimate_reach(
        self, spec: TargetingSpec, objective: str | None = None, **options: Any
    ) -> ReachEstimate:
        """Rounded audience-size estimate for a targeting spec.

        This is the only measurement channel the audit has, mirroring
        the paper's methodology of reading the size estimates shown by
        the targeting UIs.  It is a batch of one; ``options`` are the
        interface's own estimate settings (Google: ``frequency_cap``).
        """
        [estimate] = self.estimate_batch([(spec, dict(options, objective=objective))])
        if isinstance(estimate, PlatformError):
            raise estimate
        return ReachEstimate(
            estimate=estimate,
            unit=self.capabilities.estimate_unit,
            spec=spec,
            objective=objective or self.default_objective,
        )

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.key} options={len(self.catalog)} "
            f"records={self.population.n_records}>"
        )
