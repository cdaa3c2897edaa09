"""Targeting grammar shared by the simulated platforms.

All three platforms let an advertiser select location, (usually)
demographics, and a boolean rule over targeting options.  The common
expressible shape is an **and-of-ors** (a conjunction of clauses, each
clause a disjunction of options), optionally minus an exclusion set --
this is exactly the form the paper exploits to measure audience
overlaps (footnote 11).  Platform-specific restrictions (which features
compose, whether exclusion is allowed, whether demographics are
targetable) are enforced by the interfaces, not by this module.

A :class:`TargetingSpec` is an immutable, hashable tuple so
size-estimate results can be cached per spec.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from repro.population.demographics import AgeRange, Gender

__all__ = [
    "CLAUSE_CACHE_LIMIT",
    "Clause",
    "Restriction",
    "TargetingSpec",
    "restricted",
    "spec_intersection",
]

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

_NO_EXCLUSIONS: frozenset[str] = frozenset()

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


class Clause(frozenset):
    """A disjunction (logical-or) of targeting options.

    Users match the clause if they hold *any* of the options.  A clause
    *is* its option frozenset, so it hashes and compares at C level and
    caches its own hash; iteration is sorted so anything built by
    walking a clause is independent of the hash seed.
    """

    __slots__ = ()

    def __new__(cls, options: Iterable[str]) -> "Clause":
        return frozenset.__new__(cls, _frozen_options(options))

    @property
    def options(self) -> frozenset[str]:
        """The OR-ed option ids (the clause itself)."""
        return self

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
        return frozenset.__new__(cls, options)

    def __iter__(self):
        return iter(sorted(frozenset.__iter__(self)))

    def __repr__(self) -> str:
        return "Clause(" + " OR ".join(self) + ")"


_new_spec = tuple.__new__


class TargetingSpec(tuple):
    """An immutable ad targeting: location, demographics, boolean rule.

    A spec is the tuple ``(country, genders, age_ranges, clauses,
    exclusions)``: it hashes and compares at C level, holds no
    per-instance dict, and an audit keeps hundreds of thousands alive.

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

    __slots__ = ()

    def __new__(
        cls,
        country: str = "US",
        genders: Iterable[Gender] | None = None,
        age_ranges: Iterable[AgeRange] | None = None,
        clauses: Iterable[Clause] = (),
        exclusions: Iterable[str] = frozenset(),
    ) -> "TargetingSpec":
        # Specs are built on the audit's hottest path, usually from
        # already-frozen fields; only convert when a field needs it.
        if genders is not None:
            if type(genders) is not frozenset:
                genders = frozenset(genders)
            if not genders:
                raise ValueError("genders must be None or non-empty")
        if age_ranges is not None:
            if type(age_ranges) is not frozenset:
                age_ranges = frozenset(age_ranges)
            if not age_ranges:
                raise ValueError("age_ranges must be None or non-empty")
        if type(clauses) is not tuple:
            clauses = tuple(clauses)
        if type(exclusions) is not frozenset:
            exclusions = frozenset(exclusions)
        return _new_spec(cls, (country, genders, age_ranges, clauses, exclusions))

    country = property(itemgetter(0), doc="Location targeting.")
    genders = property(itemgetter(1), doc="Targeted genders, or ``None``.")
    age_ranges = property(itemgetter(2), doc="Targeted age ranges, or ``None``.")
    clauses = property(itemgetter(3), doc="Conjunction of OR-clauses.")
    exclusions = property(itemgetter(4), doc="Excluded option ids.")
    rule = property(
        itemgetter(slice(3, None)),
        doc="""``(clauses, exclusions)``: the part of the spec outside its
        demographic fields, which resolves to the same audience under
        every gender and age slice (the key under which the server
        resolves it once per request, once any demographic facet
        clauses are folded out).""",
    )

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return (
            f"TargetingSpec(country={self[0]!r}, genders={self[1]!r}, "
            f"age_ranges={self[2]!r}, clauses={self[3]!r}, "
            f"exclusions={self[4]!r})"
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def everyone(cls, country: str = "US") -> "TargetingSpec":
        """All users in a country (the paper's relevant audience RA)."""
        return cls(country=country)

    @classmethod
    def of(cls, *option_ids: str, country: str = "US") -> "TargetingSpec":
        """Logical-and of single options (each its own clause)."""
        return cls._of(
            country, None, None, tuple([Clause.single(o) for o in option_ids]),
            _NO_EXCLUSIONS,
        )

    @classmethod
    def and_of_ors(
        cls, groups: Sequence[Iterable[str]], country: str = "US"
    ) -> "TargetingSpec":
        """Conjunction of disjunction groups."""
        return cls(country=country, clauses=tuple(Clause(g) for g in groups))

    @classmethod
    def _of(
        cls,
        country: str,
        genders: frozenset[Gender] | None,
        age_ranges: frozenset[AgeRange] | None,
        clauses: tuple[Clause, ...],
        exclusions: frozenset[str],
    ) -> "TargetingSpec":
        """A spec from already-checked fields.

        Server-side codecs build every field from their decode tables
        and check it themselves (a non-empty demographic set, a clause
        tuple, an exclusion frozenset), and :meth:`of` gets its clauses
        from :meth:`Clause.single`, which checks each id; re-running
        ``__new__``'s conversions per decoded batch item or audited
        composition would only repeat that.
        """
        return _new_spec(cls, (country, genders, age_ranges, clauses, exclusions))

    # -- refinement --------------------------------------------------------
    #
    # Refinements derive from an existing (validated, frozen) spec, so
    # they build the tuple directly instead of re-running ``__new__``'s
    # conversions and checks per derived slice.

    def with_gender(self, gender: Gender) -> "TargetingSpec":
        """Restrict to a single gender (platform demographic targeting)."""
        country, _genders, ages, clauses, exclusions = self
        return _new_spec(
            TargetingSpec,
            (country, _SINGLE_GENDER[gender], ages, clauses, exclusions),
        )

    def with_age(self, age: AgeRange) -> "TargetingSpec":
        """Restrict to a single age range."""
        country, genders, _ages, clauses, exclusions = self
        return _new_spec(
            TargetingSpec,
            (country, genders, _SINGLE_AGE[age], clauses, exclusions),
        )

    def with_ages(self, ages: Iterable[AgeRange]) -> "TargetingSpec":
        """Restrict to a set of age ranges."""
        ages = frozenset(ages)
        if not ages:
            raise ValueError("age_ranges must be None or non-empty")
        country, genders, _ages, clauses, exclusions = self
        return _new_spec(
            TargetingSpec, (country, genders, ages, clauses, exclusions)
        )

    def and_option(self, option_id: str) -> "TargetingSpec":
        """AND one more single-option clause onto the rule."""
        country, genders, ages, clauses, exclusions = self
        return _new_spec(
            TargetingSpec,
            (
                country,
                genders,
                ages,
                clauses + (Clause.single(option_id),),
                exclusions,
            ),
        )

    def and_clause(self, options: Iterable[str]) -> "TargetingSpec":
        """AND one more OR-clause onto the rule."""
        country, genders, ages, clauses, exclusions = self
        return _new_spec(
            TargetingSpec,
            (
                country,
                genders,
                ages,
                clauses + (Clause._of(_frozen_options(options)),),
                exclusions,
            ),
        )

    def excluding(self, *option_ids: str) -> "TargetingSpec":
        """Exclude holders of the given options."""
        country, genders, ages, clauses, exclusions = self
        return TargetingSpec(
            country, genders, ages, clauses, exclusions | frozenset(option_ids)
        )

    # -- introspection -----------------------------------------------------

    @property
    def option_ids(self) -> frozenset[str]:
        """Every option referenced anywhere in the rule."""
        return self[4].union(*self[3])

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


#: One demographic slice, however a platform expresses it: the gender
#: set and the age set the spec is restricted to (``None`` keeps the
#: spec's own) and the facet clauses ANDed onto its rule.
Restriction = tuple[
    frozenset[Gender] | None, frozenset[AgeRange] | None, tuple[Clause, ...]
]


def restricted(
    specs: Sequence[TargetingSpec], restrictions: Sequence[Restriction]
) -> list[TargetingSpec]:
    """Every spec under every restriction, row-major.

    An audit sizes each composition under each demographic slice, a
    grid of hundreds of thousands of specs per experiment; each is
    built in one pass straight from already-checked fields.
    """
    return [
        _new_spec(
            TargetingSpec,
            (
                country,
                genders if only_genders is None else only_genders,
                ages if only_ages is None else only_ages,
                clauses + facets,
                exclusions,
            ),
        )
        for country, genders, ages, clauses, exclusions in specs
        for only_genders, only_ages, facets in restrictions
    ]


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
