"""The audit measurement engine.

:class:`AuditTarget` gives the analysis layers a uniform surface over
one studied interface while encoding the per-platform measurement
tricks from Section 3 of the paper:

* **Facebook restricted**: the interface forbids age/gender targeting,
  so targetings are *validated* against the restricted interface but
  the demographic slicing is *measured* through the normal interface
  (both share the same user base);
* **Google**: demographic slicing uses Google's gender/age targeting
  fields; compositions are possible only across features
  (audiences x topics), and boolean and-of-or rules have no size
  statistics, so the overlap analysis is unsupported;
* **LinkedIn**: there are no demographic targeting fields; the audit
  ANDs the corresponding detailed-targeting facet into the rule.

All size queries go through the API clients (never the simulator's
internals) and are cached per targeting spec, mirroring the paper's
care to limit query load.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.api.client import (
    CatalogOption,
    GoogleReachClient,
    LinkedInReachClient,
    ReachClient,
)
from repro.core.results import (
    NO_BASES,
    CompositionSet,
    SensitiveValue,
    TargetingAudit,
)
from repro.obs import NULL_TRACER
from repro.platforms.errors import UnsupportedCompositionError
from repro.platforms.targeting import (
    Clause,
    Restriction,
    TargetingSpec,
    restricted,
    spec_intersection,
)
from repro.population.demographics import (
    AgeRange,
    Gender,
    SensitiveAttribute,
)

__all__ = ["AuditTarget", "build_audit_targets"]


class AuditTarget:
    """One studied interface, ready to be audited.

    Parameters
    ----------
    key / name:
        Registry key and display name (``"facebook_restricted"`` /
        ``"Facebook (restricted)"``).
    client:
        The interface's own API client; used for catalog access and for
        validating that a targeting is accepted by *this* interface.
    measure_client:
        Client used for demographically sliced size queries.  Defaults
        to ``client``; Facebook's restricted target passes the normal
        interface's client here, as the paper does.
    """

    def __init__(
        self,
        key: str,
        name: str,
        client: ReachClient,
        measure_client: ReachClient | None = None,
    ):
        self.key = key
        self.name = name
        self.client = client
        self.measure_client = measure_client or client
        # Interface capabilities, fixed by the client types: read on
        # every composition check and demographic slice, so computed once.
        #: Whether AND-composition requires distinct features (Google).
        self.cross_feature_only = isinstance(client, GoogleReachClient)
        #: Whether and-of-or rules have size statistics here: True for
        #: Facebook (both interfaces) and LinkedIn; False for Google,
        #: which is why the paper's Table 1 omits Google.
        self.supports_boolean_rules = not isinstance(
            self.measure_client, GoogleReachClient
        )
        self._demographics_via_facets = isinstance(
            self.measure_client, LinkedInReachClient
        )
        # Observability rides in on the clients (and ultimately the
        # transport); targets never construct their own sinks.
        self.tracer = getattr(client, "tracer", NULL_TRACER)
        # Estimate cache, sharded per interface key: specs are hashed
        # on every lookup of the audit's hot loop, so the shard layout
        # avoids allocating and hashing a (key, spec) tuple per lookup.
        self._cache: dict[str, dict[TargetingSpec, int]] = {}
        # One int object per distinct estimate value, shared by every
        # cache entry that holds it: a full run caches over 330k
        # estimates of a few hundred rounded values, and each arrives
        # as its own int object.
        self._estimates: dict[int, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        # The base sizes |RA_v| are shared, read-only, by every audit
        # record of an attribute.
        self._base_sizes: dict[str, MappingProxyType[SensitiveValue, int]] = {}
        self._features: dict[str, str] | None = None
        # Keyed by (enum type, value): Gender and AgeRange are IntEnums
        # with overlapping raw values, so they cannot share a plain dict.
        self._li_demo_ids: dict[tuple[type, int], str] | None = None
        # Optional durable store mirroring the estimate cache; see
        # :meth:`attach_checkpoint`.
        self._checkpoint = None

    # -- checkpointing ------------------------------------------------------

    def attach_checkpoint(self, checkpoint) -> None:
        """Mirror the estimate cache into an
        :class:`~repro.core.checkpoint.EstimateCheckpoint`.

        Estimates already in the store pre-warm the cache (so the query
        planner never re-issues them), and every future successful
        estimate is recorded.  Audit records are a pure function of the
        cached estimates, so a killed run resumed through its
        checkpoint yields bit-identical output.
        """
        self._checkpoint = checkpoint
        preloaded = 0
        estimates = self._estimates
        for client in (self.client, self.measure_client):
            shard = self._cache.setdefault(client.interface_key, {})
            before = len(shard)
            shard.update(
                (spec, estimates.setdefault(value, value))
                for spec, value in checkpoint.shard(client.interface_key).items()
            )
            preloaded += len(shard) - before
        if self.tracer.enabled:
            self.tracer.event(
                "checkpoint.load", target=self.key, entries=preloaded
            )

    def _record_estimate(
        self, interface_key: str, spec: TargetingSpec, estimate: int
    ) -> None:
        if self._checkpoint is not None:
            self._checkpoint.record(interface_key, spec, estimate)

    # -- catalog ------------------------------------------------------------

    def study_options(self) -> list[CatalogOption]:
        """The default option list the paper studies on this interface."""
        return [
            o
            for o in self.client.catalog()
            if o.demographic is None and not o.free_form
        ]

    def study_option_ids(self) -> list[str]:
        """Ids of the study options."""
        return [o.option_id for o in self.study_options()]

    def option_names(self) -> dict[str, str]:
        """Display names keyed by option id."""
        return self.client.option_names()

    def feature_of(self, option_id: str) -> str:
        """Feature of a catalog option (catalog loaded once, lazily)."""
        if self._features is None:
            self._features = {o.option_id: o.feature for o in self.client.catalog()}
        return self._features[option_id]

    # -- composition rules ---------------------------------------------------

    def can_compose(self, options: Sequence[str]) -> bool:
        """Whether this interface can AND-compose the given options."""
        if len(set(options)) != len(options):
            return False
        if self.cross_feature_only:
            features = [self.feature_of(o) for o in options]
            return len(set(features)) == len(features)
        return True

    def composition_spec(self, options: Sequence[str]) -> TargetingSpec:
        """AND-composition targeting spec over the given options."""
        if not self.can_compose(options):
            raise UnsupportedCompositionError(
                f"{self.name} cannot AND-compose {list(options)}"
            )
        return TargetingSpec.of(*options)

    # -- demographic slicing ---------------------------------------------

    def _linkedin_demo_id(self, value: SensitiveValue) -> str:
        if self._li_demo_ids is None:
            self._li_demo_ids = {}
        key = (type(value), int(value))
        if key not in self._li_demo_ids:
            assert isinstance(self.measure_client, LinkedInReachClient)
            self._li_demo_ids[key] = self.measure_client.demographic_option_id(
                value.label
            )
        return self._li_demo_ids[key]

    @staticmethod
    def _complement_values(value: SensitiveValue) -> list[SensitiveValue]:
        if isinstance(value, Gender):
            return [value.other]
        if isinstance(value, AgeRange):
            return [a for a in AgeRange if a is not value]
        raise TypeError(f"not a sensitive value: {value!r}")

    def demographic_spec(
        self,
        spec: TargetingSpec,
        value: SensitiveValue | None,
        exclude: bool = False,
    ) -> TargetingSpec:
        """Restrict a spec to one sensitive value (or its complement),
        however this platform expresses that.

        ``exclude=True`` selects ``RA_{not value}`` -- used for the
        recall of exclusion-style skews such as "age not 18-24".
        """
        if value is None:
            return spec
        return self._build_demographic_spec(spec, value, exclude)

    def _build_demographic_spec(
        self,
        spec: TargetingSpec,
        value: SensitiveValue,
        exclude: bool,
    ) -> TargetingSpec:
        values = self._complement_values(value) if exclude else [value]
        [spec] = restricted([spec], [self._restriction(values)])
        return spec

    def _restriction(self, values: Sequence[SensitiveValue]) -> Restriction:
        """How this platform restricts a spec to ``values``, all of one
        sensitive attribute: through its gender or age field, or, on
        LinkedIn, by ANDing their facet clause into the rule."""
        if self._demographics_via_facets:
            ids = frozenset([self._linkedin_demo_id(v) for v in values])
            return None, None, (Clause._of(ids),)
        if isinstance(values[0], Gender):
            return frozenset(values), None, ()
        if isinstance(values[0], AgeRange):
            return None, frozenset(values), ()
        raise TypeError(f"not a sensitive value: {values[0]!r}")

    def _slice_grid(
        self, specs: Sequence[TargetingSpec], attribute: SensitiveAttribute
    ) -> list[TargetingSpec]:
        """The demographic slices of every spec, one row of
        ``attribute.values`` per spec, flattened."""
        return restricted(specs, [self._restriction([v]) for v in attribute.values])

    # -- measurement -----------------------------------------------------------

    def _shard(self, client: ReachClient) -> dict[TargetingSpec, int]:
        """The estimate cache of one client's interface."""
        shard = self._cache.get(client.interface_key)
        if shard is None:
            shard = self._cache[client.interface_key] = {}
        return shard

    def _measure(self, client: ReachClient, spec: TargetingSpec) -> int:
        shard = self._shard(client)
        cached = shard.get(spec)
        if cached is not None:
            # No per-lookup event here: the audit hot loop hits the
            # cache hundreds of thousands of times per experiment, so
            # audit_many emits one coalesced event per batch instead.
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        result = client.estimate(spec)
        result = shard[spec] = self._estimates.setdefault(result, result)
        self._record_estimate(client.interface_key, spec, result)
        return result

    def measure(
        self,
        spec: TargetingSpec,
        value: SensitiveValue | None = None,
        exclude: bool = False,
    ) -> int:
        """Cached size estimate of ``spec`` restricted to ``value``."""
        return self._measure(
            self.measure_client, self.demographic_spec(spec, value, exclude)
        )

    def base_sizes(
        self, attribute: SensitiveAttribute
    ) -> dict[SensitiveValue, int]:
        """``|RA_v|`` for every value of the sensitive attribute.

        Callers get a fresh copy of :meth:`_shared_bases`.
        """
        return dict(self._shared_bases(attribute))

    def _shared_bases(
        self, attribute: SensitiveAttribute
    ) -> MappingProxyType[SensitiveValue, int]:
        """Read-only ``|RA_v|`` map, measured once per attribute.

        Every audit record carries these, so they are hoisted out of the
        per-audit loop and all records of an attribute share one view.
        """
        cached = self._base_sizes.get(attribute.name)
        if cached is None:
            everyone = TargetingSpec.everyone()
            cached = self._base_sizes[attribute.name] = MappingProxyType(
                {v: self.measure(everyone, v) for v in attribute.values}
            )
        return cached

    def _fill(
        self,
        specs: Sequence[TargetingSpec],
        grid: Sequence[TargetingSpec],
        attribute: SensitiveAttribute,
    ) -> list[int]:
        """Per-value sizes of each spec, row-major, from the spec cache.

        ``grid`` is :meth:`_slice_grid` of the everyone spec and then
        ``specs``.  Walks the one measuring order every audit follows,
        spec by spec: validate the targeting on this interface (one
        un-sliced size query through ``client``), measure each
        demographic slice through ``measure_client``, then the shared
        base sizes.  On a warm cache every step is a counted hit; an
        uncached entry (a per-item batch error) is re-issued here and
        raises at its composition.
        """
        width = len(attribute.values)
        measure_client = self.measure_client
        validate_client = self.client if measure_client is not self.client else None
        measure = self._measure
        sizes: list[int] = []
        for row, spec in enumerate(specs, 1):
            if validate_client is not None:
                # Facebook-restricted path: confirm the restricted
                # interface accepts this exact targeting before
                # measuring elsewhere.
                measure(validate_client, spec)
            sizes.extend(
                [
                    measure(measure_client, s)
                    for s in grid[row * width : (row + 1) * width]
                ]
            )
            self._shared_bases(attribute)
        return sizes

    def audit(
        self, options: Sequence[str], attribute: SensitiveAttribute
    ) -> TargetingAudit:
        """Audit one targeting (individual or composition).

        Validates the targeting on this interface (one un-sliced size
        query through ``client``), then measures the per-value sizes
        through ``measure_client`` (:meth:`_fill`).
        """
        spec = self.composition_spec(options)
        grid = self._slice_grid([TargetingSpec.everyone(), spec], attribute)
        row = self._fill([spec], grid, attribute)
        return TargetingAudit(
            options=tuple(options),
            attribute=attribute,
            sizes=dict(zip(attribute.values, row)),
            bases=self._shared_bases(attribute),
        )

    def _plan_queries(
        self,
        compositions: Sequence[tuple[str, ...]],
        attribute: SensitiveAttribute,
    ) -> tuple[
        list[tuple[ReachClient, list[TargetingSpec]]],
        list[TargetingSpec],
        list[TargetingSpec],
    ]:
        """Every uncached size query an audit batch needs, per client in
        first-use order, deduped against the spec cache and within the
        plan.

        Base sizes are hoisted to the front -- every audit record needs
        them, so they dedupe to one query per sensitive value.

        Returns the plan, the spec of every planned composition and
        their slice grid (:meth:`_slice_grid` of the everyone spec and
        then those specs), built in one pass.  The compositions are
        ones :meth:`audit_many` let through :meth:`can_compose`.
        """
        specs = [TargetingSpec.of(*options) for options in compositions]
        grid = self._slice_grid([TargetingSpec.everyone(), *specs], attribute)

        # Dedup in first-use order at C level, then drop cached specs.
        plan: list[tuple[ReachClient, list[TargetingSpec]]] = []
        measure_client = self.measure_client
        if measure_client is not self.client:
            shard = self._shard(self.client)
            plan.append(
                (self.client, [s for s in dict.fromkeys(specs) if s not in shard])
            )
        shard = self._shard(measure_client)
        plan.append(
            (measure_client, [s for s in dict.fromkeys(grid) if s not in shard])
        )
        return plan, specs, grid

    def _dispatch_plan(
        self, plan: Sequence[tuple[ReachClient, list[TargetingSpec]]]
    ) -> None:
        """Fetch a plan's estimates in batched calls, one pass per client.

        Successful estimates land in the spec cache (and checkpoint) as
        each item completes -- streamed through ``on_result`` so a run
        killed mid-plan keeps everything already fetched.  Per-item
        errors are left uncached, so :meth:`_fill` re-issues that single
        call and raises exactly where a direct :meth:`audit` would.
        """
        for client, specs in plan:
            if not specs:
                continue
            shard = self._shard(client)
            interface_key = client.interface_key

            def commit(
                index: int,
                result,
                shard=shard,
                specs=specs,
                interface_key=interface_key,
            ) -> None:
                if isinstance(result, int):
                    result = shard[specs[index]] = self._estimates.setdefault(
                        result, result
                    )
                    self._record_estimate(interface_key, specs[index], result)

            client.estimate_many(specs, on_result=commit)

    def audit_many(
        self,
        compositions: Iterable[Sequence[str]],
        attribute: SensitiveAttribute,
        label: str = "",
    ) -> CompositionSet:
        """Audit a batch, skipping compositions :meth:`can_compose` rejects.

        The whole batch is planned up front: compositions expand into
        their demographic-sliced size queries, duplicates collapse
        against the spec cache, and each client fetches its remaining
        specs through the platform's batch endpoint in one pass.  The
        warmed cache then fills one size matrix through :meth:`_fill`,
        so every row, cache count and error equals what :meth:`audit`
        gives for that composition.
        """
        compositions = [o for o in map(tuple, compositions) if self.can_compose(o)]
        with self.tracer.span(
            "audit.audit_many", target=self.key, compositions=len(compositions)
        ):
            hits, misses = self.cache_hits, self.cache_misses
            plan, specs, grid = self._plan_queries(compositions, attribute)
            self._dispatch_plan(plan)
            sizes = np.array(
                self._fill(specs, grid, attribute), dtype=np.int64
            ).reshape(len(specs), len(attribute.values))
            self._note_cache_activity(hits, misses)
            bases = self._shared_bases(attribute) if compositions else NO_BASES
            return CompositionSet.from_columns(
                label, attribute, compositions, sizes, bases
            )

    def _note_cache_activity(self, hits_before: int, misses_before: int) -> None:
        """Emit coalesced cache events for one audit batch.

        A coalesced event carries a ``count`` attribute (N lookups in
        this batch); summarizers weight events by it, so the reported
        totals still equal the per-lookup truth.
        """
        hits = self.cache_hits - hits_before
        misses = self.cache_misses - misses_before
        if self.tracer.enabled:
            if hits:
                self.tracer.event("cache.hit", target=self.key, count=hits)
            if misses:
                self.tracer.event("cache.miss", target=self.key, count=misses)

    # -- boolean combinations (overlap / union analyses) ----------------------

    def intersection_size(
        self,
        compositions: Sequence[Sequence[str]],
        value: SensitiveValue | None = None,
        exclude: bool = False,
    ) -> int:
        """Size of the intersection of several AND-compositions.

        Expressed as a single and-of-ors rule (each composition
        contributes its clauses) -- the trick from footnote 11.
        """
        if not self.supports_boolean_rules:
            raise UnsupportedCompositionError(
                f"{self.name} shows no size statistics for boolean "
                "combinations of user attributes"
            )
        specs = [self.composition_spec(options) for options in compositions]
        return self.measure(spec_intersection(*specs), value, exclude)

    # -- accounting --------------------------------------------------------------

    def cached_estimates(self) -> list[int]:
        """Every cached estimate, one per cached spec (granularity study)."""
        return [
            estimate
            for shard in self._cache.values()
            for estimate in shard.values()
        ]


def build_audit_targets(
    clients: Mapping[str, ReachClient],
) -> dict[str, AuditTarget]:
    """Audit targets for the four studied interfaces.

    ``clients`` is the mapping produced by
    :func:`repro.api.client.build_clients`.  The Facebook restricted
    target measures demographics through the normal-interface client.
    """
    return {
        "facebook_restricted": AuditTarget(
            key="facebook_restricted",
            name="Facebook (restricted)",
            client=clients["facebook_restricted"],
            measure_client=clients["facebook"],
        ),
        "facebook": AuditTarget(
            key="facebook", name="Facebook", client=clients["facebook"]
        ),
        "google": AuditTarget(
            key="google", name="Google", client=clients["google"]
        ),
        "linkedin": AuditTarget(
            key="linkedin", name="LinkedIn", client=clients["linkedin"]
        ),
    }
