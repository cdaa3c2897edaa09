"""Targeting grammar shared by the simulated platforms.

All three platforms let an advertiser select location, (usually)
demographics, and a boolean rule over targeting options.  The common
expressible shape is an **and-of-ors** (a conjunction of clauses, each
clause a disjunction of options), optionally minus an exclusion set --
this is exactly the form the paper exploits to measure audience
overlaps (footnote 11).  Platform-specific restrictions (which features
compose, whether exclusion is allowed, whether demographics are
targetable) are enforced by the interfaces, not by this module.

A :class:`TargetingSpec` is immutable and hashable so size-estimate
results can be cached per spec.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from repro.population.demographics import AgeRange, Gender

__all__ = ["CLAUSE_CACHE_LIMIT", "Clause", "TargetingSpec", "spec_intersection"]

# Single-value demographic frozensets, interned: audits build one
# demographic slice per (composition, value) pair, so these tiny sets
# are requested hundreds of thousands of times.
_SINGLE_GENDER = {g: frozenset({g}) for g in Gender}
_SINGLE_AGE = {a: frozenset({a}) for a in AgeRange}

#: Size at which a clause intern table is emptied and refilled.  Audits
#: and the server-side decoders meet a catalog's worth of distinct
#: option groups, far below this; the bound only stops an adversarial
#: stream of fresh ids from growing a table without limit.
CLAUSE_CACHE_LIMIT = 65536

# One-option clauses, interned by option id (see :meth:`Clause.single`).
_SINGLE_CLAUSES: dict[str, "Clause"] = {}


def _frozen_options(options: Iterable[str]) -> frozenset[str]:
    opts = options if type(options) is frozenset else frozenset(options)
    if not opts:
        raise ValueError("a clause must contain at least one option")
    for o in opts:
        if not isinstance(o, str) or not o:
            raise TypeError("option identifiers must be non-empty strings")
    return opts


@dataclass(frozen=True)
class Clause:
    """A disjunction (logical-or) of targeting options.

    Users match the clause if they hold *any* of the options.
    """

    options: frozenset[str]

    def __init__(self, options: Iterable[str]):
        object.__setattr__(self, "options", _frozen_options(options))

    def __hash__(self) -> int:
        # The option frozenset caches its own hash; avoid the generated
        # dataclass hash's per-call tuple allocation.
        return hash(self.options)

    @classmethod
    def single(cls, option_id: str) -> "Clause":
        """The shared one-option clause for ``option_id``.

        Every composition an audit sizes is a conjunction of one-option
        clauses, rebuilt per composition, demographic slice and decoded
        batch item; interning them keeps one object per option alive
        instead of one per spec.  An invalid id raises exactly as
        ``Clause([option_id])`` does and is never interned.
        """
        clause = _SINGLE_CLAUSES.get(option_id)
        if clause is None:
            clause = cls((option_id,))
            if len(_SINGLE_CLAUSES) >= CLAUSE_CACHE_LIMIT:
                _SINGLE_CLAUSES.clear()
            _SINGLE_CLAUSES[option_id] = clause
        return clause

    @classmethod
    def _of(cls, options: frozenset[str]) -> "Clause":
        """Wrap an already-validated, non-empty option frozenset.

        Server-side codecs resolve options through catalog tables, so
        every member is known to be a valid identifier; re-checking each
        one per decoded batch item would dominate decode time.  A
        one-option set resolves to the shared :meth:`single` clause.
        """
        if len(options) == 1:
            return cls.single(next(iter(options)))
        clause = object.__new__(cls)
        object.__setattr__(clause, "options", options)
        return clause

    def __len__(self) -> int:
        return len(self.options)

    def __iter__(self):
        return iter(sorted(self.options))

    def __contains__(self, option_id: str) -> bool:
        return option_id in self.options

    def __repr__(self) -> str:
        return "Clause(" + " OR ".join(sorted(self.options)) + ")"


@dataclass(frozen=True)
class TargetingSpec:
    """An immutable ad targeting: location, demographics, boolean rule.

    Attributes
    ----------
    country:
        Location targeting; the paper always targets US users.
    genders:
        Targeted genders, or ``None`` for all genders.
    age_ranges:
        Targeted age ranges, or ``None`` for all ages.
    clauses:
        Conjunction of :class:`Clause` disjunctions over option ids.
        Users must match *every* clause.  An empty tuple matches
        everyone (pure demographic targeting).
    exclusions:
        Options whose holders are removed from the audience.
    """

    country: str = "US"
    genders: frozenset[Gender] | None = None
    age_ranges: frozenset[AgeRange] | None = None
    clauses: tuple[Clause, ...] = ()
    exclusions: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        # Specs are built on the audit's hottest path, usually from
        # already-frozen fields; only convert (and re-assign through the
        # frozen-dataclass barrier) when a field needs it.
        if self.genders is not None:
            if type(self.genders) is not frozenset:
                object.__setattr__(self, "genders", frozenset(self.genders))
            if not self.genders:
                raise ValueError("genders must be None or non-empty")
        if self.age_ranges is not None:
            if type(self.age_ranges) is not frozenset:
                object.__setattr__(self, "age_ranges", frozenset(self.age_ranges))
            if not self.age_ranges:
                raise ValueError("age_ranges must be None or non-empty")
        if type(self.clauses) is not tuple:
            object.__setattr__(self, "clauses", tuple(self.clauses))
        if type(self.exclusions) is not frozenset:
            object.__setattr__(self, "exclusions", frozenset(self.exclusions))

    def __hash__(self) -> int:
        # Specs key every measurement cache, so they are hashed far
        # more often than built; compute the field-tuple hash once.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash(
                (
                    self.country,
                    self.genders,
                    self.age_ranges,
                    self.clauses,
                    self.exclusions,
                )
            )
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        # The cached hash is salted per process (PYTHONHASHSEED); a spec
        # unpickled elsewhere must rehash, or dict lookups by an equal
        # locally built spec would probe the wrong bucket.
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    # -- constructors ------------------------------------------------------

    @classmethod
    def everyone(cls, country: str = "US") -> "TargetingSpec":
        """All users in a country (the paper's relevant audience RA)."""
        return cls(country=country)

    @classmethod
    def of(cls, *option_ids: str, country: str = "US") -> "TargetingSpec":
        """Logical-and of single options (each its own clause)."""
        return cls(
            country=country, clauses=tuple([Clause.single(o) for o in option_ids])
        )

    @classmethod
    def and_of_ors(
        cls, groups: Sequence[Iterable[str]], country: str = "US"
    ) -> "TargetingSpec":
        """Conjunction of disjunction groups."""
        return cls(country=country, clauses=tuple(Clause(g) for g in groups))

    # -- refinement --------------------------------------------------------

    def _derive(
        self,
        genders: "frozenset[Gender] | None",
        age_ranges: "frozenset[AgeRange] | None",
        clauses: "tuple[Clause, ...]",
        exclusions: "frozenset[str]",
    ) -> "TargetingSpec":
        """Construct a sibling spec from already-frozen fields.

        Refinements derive from an existing (validated, frozen) spec,
        so re-running ``__init__``'s conversions and checks per derived
        slice would dominate audit-side spec construction.
        """
        spec = object.__new__(TargetingSpec)
        set_field = object.__setattr__
        set_field(spec, "country", self.country)
        set_field(spec, "genders", genders)
        set_field(spec, "age_ranges", age_ranges)
        set_field(spec, "clauses", clauses)
        set_field(spec, "exclusions", exclusions)
        return spec

    def with_gender(self, gender: Gender) -> "TargetingSpec":
        """Restrict to a single gender (platform demographic targeting)."""
        return self._derive(
            _SINGLE_GENDER[gender], self.age_ranges, self.clauses, self.exclusions
        )

    def with_age(self, age: AgeRange) -> "TargetingSpec":
        """Restrict to a single age range."""
        return self._derive(
            self.genders, _SINGLE_AGE[age], self.clauses, self.exclusions
        )

    def with_ages(self, ages: Iterable[AgeRange]) -> "TargetingSpec":
        """Restrict to a set of age ranges."""
        ages = frozenset(ages)
        if not ages:
            raise ValueError("age_ranges must be None or non-empty")
        return self._derive(self.genders, ages, self.clauses, self.exclusions)

    def and_option(self, option_id: str) -> "TargetingSpec":
        """AND one more single-option clause onto the rule."""
        return self._derive(
            self.genders,
            self.age_ranges,
            self.clauses + (Clause.single(option_id),),
            self.exclusions,
        )

    def and_clause(self, options: Iterable[str]) -> "TargetingSpec":
        """AND one more OR-clause onto the rule."""
        return self._derive(
            self.genders,
            self.age_ranges,
            self.clauses + (Clause._of(_frozen_options(options)),),
            self.exclusions,
        )

    def excluding(self, *option_ids: str) -> "TargetingSpec":
        """Exclude holders of the given options."""
        return replace(self, exclusions=self.exclusions | frozenset(option_ids))

    # -- introspection -----------------------------------------------------

    @property
    def option_ids(self) -> frozenset[str]:
        """Every option referenced anywhere in the rule (memoised)."""
        try:
            return self._option_ids  # type: ignore[attr-defined]
        except AttributeError:
            ids: set[str] = set(self.exclusions)
            for clause in self.clauses:
                ids |= clause.options
            frozen = frozenset(ids)
            object.__setattr__(self, "_option_ids", frozen)
            return frozen

    @property
    def is_pure_demographic(self) -> bool:
        """True when the spec has no attribute rule at all."""
        return not self.clauses and not self.exclusions

    def describe(self, names: Mapping[str, str] | None = None) -> str:
        """Human-readable one-line description for reports."""
        parts: list[str] = [self.country]
        if self.genders is not None:
            parts.append("/".join(sorted(g.label for g in self.genders)))
        if self.age_ranges is not None:
            parts.append("/".join(a.label for a in sorted(self.age_ranges)))

        def name_of(option_id: str) -> str:
            return names.get(option_id, option_id) if names else option_id

        for clause in self.clauses:
            if len(clause) == 1:
                parts.append(name_of(next(iter(clause))))
            else:
                parts.append("(" + " OR ".join(name_of(o) for o in clause) + ")")
        for opt in sorted(self.exclusions):
            parts.append(f"NOT {name_of(opt)}")
        return " AND ".join(parts)


def spec_intersection(*specs: TargetingSpec) -> TargetingSpec:
    """The targeting whose audience is the intersection of the inputs.

    Merges clause lists and exclusions; demographic constraints are
    intersected.  This is how the paper measures overlaps between two
    AND-compositions: the intersection of two 2-way compositions is a
    4-clause and-of-ors, which Facebook and LinkedIn can express.

    Raises
    ------
    ValueError
        If the inputs target different countries or their demographic
        constraints are disjoint (the intersection would be empty by
        construction, which is never what the audit intends).
    """
    if not specs:
        raise ValueError("need at least one spec")
    country = specs[0].country
    if any(s.country != country for s in specs):
        raise ValueError("cannot intersect specs for different countries")

    genders: frozenset[Gender] | None = None
    ages: frozenset[AgeRange] | None = None
    clauses: list[Clause] = []
    exclusions: set[str] = set()
    for s in specs:
        if s.genders is not None:
            genders = s.genders if genders is None else genders & s.genders
        if s.age_ranges is not None:
            ages = s.age_ranges if ages is None else ages & s.age_ranges
        clauses.extend(s.clauses)
        exclusions |= s.exclusions
    if genders is not None and not genders:
        raise ValueError("gender constraints are disjoint")
    if ages is not None and not ages:
        raise ValueError("age constraints are disjoint")

    # Drop duplicate clauses (same OR-set) while preserving order.
    seen: set[frozenset[str]] = set()
    unique: list[Clause] = []
    for clause in clauses:
        if clause.options not in seen:
            seen.add(clause.options)
            unique.append(clause)
    return TargetingSpec(
        country=country,
        genders=genders,
        age_ranges=ages,
        clauses=tuple(unique),
        exclusions=frozenset(exclusions),
    )
