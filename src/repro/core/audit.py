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
internals) and are cached per composition row -- a composition's
clause tuple maps to its size under every value of the sensitive
attribute, ``|TA AND RA_v|`` for each ``v`` -- mirroring the paper's
care to limit query load.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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

#: The country of every spec a row holds: the paper targets US users.
_ROW_COUNTRY = TargetingSpec.everyone().country

#: A row with no estimate yet, per value type: one slot per value, at
#: the value's code.  Both sensitive attributes list their values in
#: code order, so a row is in ``attribute.values`` order.
_EMPTY_ROWS: dict[type, tuple[None, ...]] = {
    kind: (None,) * len(kind) for kind in (Gender, AgeRange)
}

#: One cache row: an estimate per value, ``None`` where not cached.
Row = tuple[int | None, ...]

#: How a plan caches the estimate of the spec at an index.
Place = Callable[[int, int], None]


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
        # Estimate caches.  Every demographic slice the measure
        # interface sizes lives in one row per (value type,
        # composition), keyed by the composition's clause tuple -- the
        # tuple its spec and slices already hold -- so a composition
        # costs one small tuple of estimates, not a slice spec per value.
        self._rows: dict[type, dict[tuple[Clause, ...], Row]] = {}
        # Every other spec the measure interface sized (age
        # complements, un-sliced specs, specs with their own
        # demographics, exclusions or country), keyed by that spec.
        self._side: dict[TargetingSpec, int] = {}
        # The restricted interface's validation estimates (Facebook
        # restricted only), one per composition spec.
        self._validated: dict[TargetingSpec, int] = {}
        # Checkpoint entries of the measure interface not yet in a row
        # or the side map; see :meth:`_settle`.
        self._unplaced: list[tuple[TargetingSpec, int]] = []
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
        # LinkedIn's demographic facet ids, both ways; see
        # :meth:`_linkedin_facets`.
        self._facets: (
            tuple[dict[tuple[type, int], str], dict[str, SensitiveValue]] | None
        ) = None

    # -- checkpointing ------------------------------------------------------

    def attach_checkpoint(self, checkpoint) -> None:
        """Pre-warm the estimate cache from an
        :class:`~repro.core.checkpoint.EstimateCheckpoint` and register
        with it, so that saving the store writes this cache out.

        The query planner never re-issues a preloaded estimate.  Audit
        records are a pure function of the cached estimates, so a
        killed run resumed through its checkpoint yields bit-identical
        output.
        """
        preloaded = 0
        if self.client is not self.measure_client:
            validated = self._validated
            before = len(validated)
            validated.update(
                (spec, self._estimates.setdefault(value, value))
                for spec, value in checkpoint.shard(self.client.interface_key).items()
            )
            preloaded = len(validated) - before
        entries = checkpoint.shard(self.measure_client.interface_key)
        self._unplaced += entries.items()
        preloaded += len(entries)
        checkpoint.register(self)
        if self.tracer.enabled:
            self.tracer.event(
                "checkpoint.load", target=self.key, entries=preloaded
            )

    def _settle(self) -> None:
        """Place preloaded checkpoint entries in their rows or side map.

        Runs at the first cache read after :meth:`attach_checkpoint`,
        not in it: on LinkedIn a slice is told apart by its demographic
        facet id, which comes from the catalog, and attaching a
        checkpoint sends no request.
        """
        if not self._unplaced:
            return
        unplaced, self._unplaced = self._unplaced, []
        estimates = self._estimates
        for spec, value in unplaced:
            value = estimates.setdefault(value, value)
            home = self._row_of(spec)
            if home is None:
                self._side[spec] = value
            else:
                self._put(*home, value)

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
        """Feature of a catalog option (the client's map, built once)."""
        return self.client.feature_of[option_id]

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

    def _linkedin_facets(
        self,
    ) -> tuple[dict[tuple[type, int], str], dict[str, SensitiveValue]]:
        """LinkedIn's facet id of every sensitive value, and the value of
        every facet id (the catalog is read once).

        Ids are keyed by (enum type, code): Gender and AgeRange are
        IntEnums with overlapping raw values, so they cannot share a
        plain dict.
        """
        if self._facets is None:
            assert isinstance(self.measure_client, LinkedInReachClient)
            facet_id = self.measure_client.demographic_option_id
            ids = {
                (kind, int(v)): facet_id(v.label)
                for kind in (Gender, AgeRange)
                for v in kind
            }
            values = {
                option_id: kind(code) for (kind, code), option_id in ids.items()
            }
            self._facets = ids, values
        return self._facets

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

        Raises
        ------
        ValueError
            If ``spec`` already restricts ``value``'s attribute: Facebook
            and Google would replace that restriction and LinkedIn would
            intersect it, so one call would size different audiences.
        """
        if value is None:
            return spec
        own = spec.genders if isinstance(value, Gender) else spec.age_ranges
        if own is not None:
            raise ValueError(
                f"{spec.describe()} already restricts the attribute of {value!r}"
            )
        values = self._complement_values(value) if exclude else [value]
        [spec] = restricted([spec], [self._restriction(values)])
        return spec

    def _restriction(self, values: Sequence[SensitiveValue]) -> Restriction:
        """How this platform restricts a spec to ``values``, all of one
        sensitive attribute: through its gender or age field, or, on
        LinkedIn, by ANDing their facet clause into the rule."""
        if self._demographics_via_facets:
            facet_ids, _ = self._linkedin_facets()
            ids = frozenset([facet_ids[(type(v), int(v))] for v in values])
            return None, None, (Clause._of(ids),)
        if isinstance(values[0], Gender):
            return frozenset(values), None, ()
        if isinstance(values[0], AgeRange):
            return None, frozenset(values), ()
        raise TypeError(f"not a sensitive value: {values[0]!r}")

    # -- the estimate cache ----------------------------------------------------

    def _row_of(
        self, spec: TargetingSpec
    ) -> tuple[type, tuple[Clause, ...], int] | None:
        """Where the measure interface's estimate of ``spec`` is cached.

        A spec that restricts a US, exclusion-free, demographics-free
        composition to one sensitive value is that composition's slice:
        its estimate lives in the row of the value's type keyed by the
        composition's clauses, at the value's code.  Any other spec
        lives in the side map (``None``).  So a gender complement is
        the other gender's slice, and an age complement a side entry.
        """
        country, genders, ages, clauses, exclusions = spec
        if country != _ROW_COUNTRY or exclusions:
            return None
        if self._demographics_via_facets:
            # A slice ANDs its one-option facet clause on last.
            if genders is not None or ages is not None or not clauses:
                return None
            facet = clauses[-1]
            if len(facet) != 1:
                return None
            _, facet_values = self._linkedin_facets()
            value = facet_values.get(next(iter(facet)))
            if value is None:
                return None
            return type(value), clauses[:-1], int(value)
        if ages is None and genders is not None and len(genders) == 1:
            [value] = genders
        elif genders is None and ages is not None and len(ages) == 1:
            [value] = ages
        else:
            return None
        return type(value), clauses, int(value)

    def _put(
        self, kind: type, key: tuple[Clause, ...], column: int, estimate: int
    ) -> None:
        """Cache one slice's estimate in its row."""
        rows = self._rows.get(kind)
        if rows is None:
            rows = self._rows[kind] = {}
        row = rows.get(key, _EMPTY_ROWS[kind])
        rows[key] = (*row[:column], estimate, *row[column + 1 :])

    def _estimate(self, client: ReachClient, spec: TargetingSpec) -> int:
        """One uncached estimate, fetched by itself."""
        self.cache_misses += 1
        result = client.estimate(spec)
        return self._estimates.setdefault(result, result)

    def _measure(
        self,
        client: ReachClient,
        cache: dict[TargetingSpec, int],
        spec: TargetingSpec,
    ) -> int:
        """Estimate of ``spec`` through a spec-keyed cache."""
        cached = cache.get(spec)
        if cached is not None:
            # No per-lookup event here: the audit hot loop hits the
            # cache hundreds of thousands of times per experiment, so
            # audit_many emits one coalesced event per batch instead.
            self.cache_hits += 1
            return cached
        result = cache[spec] = self._estimate(client, spec)
        return result

    # -- measurement -----------------------------------------------------------

    def measure(
        self,
        spec: TargetingSpec,
        value: SensitiveValue | None = None,
        exclude: bool = False,
    ) -> int:
        """Cached size estimate of ``spec`` restricted to ``value``."""
        self._settle()
        spec = self.demographic_spec(spec, value, exclude)
        home = self._row_of(spec)
        if home is None:
            return self._measure(self.measure_client, self._side, spec)
        kind, key, column = home
        row = self._rows.get(kind, {}).get(key)
        if row is not None and row[column] is not None:
            self.cache_hits += 1
            return row[column]
        result = self._estimate(self.measure_client, spec)
        self._put(kind, key, column, result)
        return result

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
        self, specs: Sequence[TargetingSpec], attribute: SensitiveAttribute
    ) -> list[int]:
        """Per-value sizes of each spec, row-major, from the cache rows.

        Walks the one measuring order every audit follows, spec by
        spec: validate the targeting on this interface (one un-sliced
        size query through ``client``), measure each demographic slice
        through ``measure_client``, then the shared base sizes.  On a
        warm cache every step is a counted hit, one per slice; an
        uncached slice (a per-item batch error) is re-issued here and
        raises at its composition.
        """
        self._settle()
        kind = type(attribute.values[0])
        columns = [int(v) for v in attribute.values]
        width = len(columns)
        empty = _EMPTY_ROWS[kind]
        rows = self._rows.setdefault(kind, {})
        measure_client = self.measure_client
        validate_client = self.client if measure_client is not self.client else None
        sizes: list[int] = []
        for spec in specs:
            if validate_client is not None:
                # Facebook-restricted path: confirm the restricted
                # interface accepts this exact targeting before
                # measuring elsewhere.
                self._measure(validate_client, self._validated, spec)
            key = spec[3]
            row = rows.get(key, empty)
            got = [row[c] for c in columns]
            if None in got:
                for i, value in enumerate(attribute.values):
                    if got[i] is None:
                        [sliced] = restricted([spec], [self._restriction([value])])
                        got[i] = self._estimate(measure_client, sliced)
                        self._put(kind, key, columns[i], got[i])
                    else:
                        self.cache_hits += 1
            else:
                self.cache_hits += width
            sizes += got
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
        row = self._fill([spec], attribute)
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
        list[tuple[ReachClient, list[TargetingSpec], Place]],
        list[TargetingSpec],
    ]:
        """Every uncached size query an audit batch needs, per client in
        first-use order, deduped against the cache and within the plan.

        Base sizes are hoisted to the front -- every audit record needs
        them, so they dedupe to one query per sensitive value.  Slices
        are built only for the uncached slots of each row.

        Returns the plan -- each client with its specs and how to cache
        the estimate of the spec at an index -- and the spec of every
        planned composition.  The compositions are ones
        :meth:`audit_many` let through :meth:`can_compose`.
        """
        self._settle()
        specs = [TargetingSpec.of(*options) for options in compositions]
        kind = type(attribute.values[0])
        columns = [int(v) for v in attribute.values]
        restrictions = [self._restriction([v]) for v in attribute.values]
        empty = _EMPTY_ROWS[kind]
        rows = self._rows.get(kind, {})

        plan: list[tuple[ReachClient, list[TargetingSpec], Place]] = []
        if self.measure_client is not self.client:
            validated = self._validated
            unvalidated = [s for s in dict.fromkeys(specs) if s not in validated]
            plan.append(
                (
                    self.client,
                    unvalidated,
                    lambda index, estimate: validated.__setitem__(
                        unvalidated[index], estimate
                    ),
                )
            )
        # Row-major over the everyone spec and then the compositions,
        # the uncached slots of each distinct row in value order.
        slices: list[TargetingSpec] = []
        keys: list[tuple[Clause, ...]] = []
        slots: list[int] = []
        for spec in dict.fromkeys([TargetingSpec.everyone(), *specs]):
            row = rows.get(spec[3], empty)
            missing = [i for i, c in enumerate(columns) if row[c] is None]
            if missing:
                slices += restricted([spec], [restrictions[i] for i in missing])
                keys += [spec[3]] * len(missing)
                slots += [columns[i] for i in missing]
        plan.append(
            (
                self.measure_client,
                slices,
                lambda index, estimate: self._put(
                    kind, keys[index], slots[index], estimate
                ),
            )
        )
        return plan, specs

    def _dispatch_plan(
        self, plan: Sequence[tuple[ReachClient, list[TargetingSpec], Place]]
    ) -> None:
        """Fetch a plan's estimates in batched calls, one pass per client.

        Successful estimates land in the cache as each item completes
        -- streamed through ``on_result`` so a run killed mid-plan keeps
        everything already fetched.  Per-item errors are left uncached,
        so :meth:`_fill` re-issues that single call and raises exactly
        where a direct :meth:`audit` would.
        """
        for client, specs, place in plan:
            if not specs:
                continue

            def commit(index: int, result, place=place) -> None:
                if isinstance(result, int):
                    place(index, self._estimates.setdefault(result, result))

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
        against the cache, and each client fetches its remaining
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
            plan, specs = self._plan_queries(compositions, attribute)
            self._dispatch_plan(plan)
            sizes = np.array(self._fill(specs, attribute), dtype=np.int64).reshape(
                len(specs), len(attribute.values)
            )
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
        self._settle()
        return [
            *self._validated.values(),
            *self._side.values(),
            *(
                estimate
                for rows in self._rows.values()
                for row in rows.values()
                for estimate in row
                if estimate is not None
            ),
        ]

    def cached_entries(self, interface_key: str) -> Iterator[tuple[TargetingSpec, int]]:
        """Every cached estimate of ``interface_key``, keyed by the spec
        that was sent: what a checkpoint saves.

        Each row slot is rebuilt into its slice spec; checkpoint entries
        not yet placed are given as loaded, so this sends no request.
        """
        if interface_key == self.client.interface_key:
            yield from self._validated.items()
        if interface_key != self.measure_client.interface_key:
            return
        yield from self._unplaced
        yield from self._side.items()
        for kind, rows in self._rows.items():
            if not rows:  # LinkedIn's facet ids may be unread: send nothing
                continue
            restrictions = [self._restriction([value]) for value in kind]
            for key, row in rows.items():
                present = [c for c, estimate in enumerate(row) if estimate is not None]
                spec = TargetingSpec(_ROW_COUNTRY, clauses=key)
                slices = restricted([spec], [restrictions[c] for c in present])
                yield from zip(slices, [row[c] for c in present])


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
