"""Result records produced by the audit core.

:class:`CompositionSet` is a labelled set of audited targetings (one box
in the figures), held as columns: the option tuples, one
``int64[n, len(attribute.values)]`` matrix of per-value audience sizes
``|TA AND RA_v|``, and the shared read-only base sizes ``|RA_v|``.  An
audit batch fills the matrix from its warmed cache, and every statistic
the analyses read -- ratios, recalls, reach, the four-fifths subsets and
rankings -- is a numpy operation on it, so a single set of size queries
serves every downstream analysis (the paper's concern about limiting
query load) without an object per composition.

:class:`TargetingAudit` is one targeting as a record: what a single
:meth:`~repro.core.audit.AuditTarget.audit` returns, and the per-row view
:attr:`CompositionSet.audits` builds on demand for rendering and
serialisation.  A set's ratios come from
:func:`~repro.core.metrics.representation_ratios`, which is bit-identical
to the record's :func:`~repro.core.metrics.representation_ratio_from_sizes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.metrics import (
    recall_excluding,
    recall_including,
    representation_ratio_from_sizes,
    representation_ratios,
    violates_four_fifths,
)
from repro.population.demographics import AgeRange, Gender, SensitiveAttribute

__all__ = ["SensitiveValue", "TargetingAudit", "CompositionSet", "NO_BASES"]

SensitiveValue = Gender | AgeRange


@dataclass(frozen=True)
class TargetingAudit:
    """One targeting audited against one sensitive attribute.

    Attributes
    ----------
    options:
        The AND-composed option ids (length 1 for individual options).
    attribute:
        The sensitive attribute audited (gender or age).
    sizes:
        Estimated ``|TA AND RA_v|`` for every value ``v``.
    bases:
        Estimated ``|RA_v|`` for every value (the per-platform
        sensitive-population totals).
    """

    options: tuple[str, ...]
    attribute: SensitiveAttribute
    sizes: Mapping[SensitiveValue, int]
    bases: Mapping[SensitiveValue, int]

    def __post_init__(self) -> None:
        missing = [v for v in self.attribute.values if v not in self.sizes]
        if missing:
            raise ValueError(f"sizes missing values: {missing}")

    @cached_property
    def total_reach(self) -> int:
        """Estimated total audience size across all sensitive values.

        The paper filters targetings below a total recall of 10,000 to
        avoid very niche targetings.  Every ranking and reach filter
        reads it, so it is summed once (the sizes are frozen).
        """
        return int(sum(self.sizes.values()))

    def ratio(self, value: SensitiveValue) -> float:
        """Representation ratio toward ``value`` (Equation 1, memoised).

        Ranking, panel building, and the four-fifths checks all revisit
        the same ratios; the sizes are frozen, so each is computed once.
        """
        try:
            memo = self._ratio_memo  # type: ignore[attr-defined]
        except AttributeError:
            memo = {}
            object.__setattr__(self, "_ratio_memo", memo)
        if value in memo:
            return memo[value]
        result = memo[value] = representation_ratio_from_sizes(
            self.sizes, self.bases, value
        )
        return result

    def recall(self, value: SensitiveValue) -> int:
        """Recall when selectively including ``value``."""
        return int(recall_including(self.sizes, value))

    def recall_excluding(self, value: SensitiveValue) -> int:
        """Recall when selectively excluding ``value``."""
        return int(recall_excluding(self.sizes, value))

    def is_skewed(self, value: SensitiveValue) -> bool:
        """Whether the ratio toward ``value`` violates four-fifths."""
        return violates_four_fifths(self.ratio(value))

    def describe(self, names: Mapping[str, str] | None = None) -> str:
        """Display string of the composition (names joined by AND)."""
        def name_of(option_id: str) -> str:
            return names.get(option_id, option_id) if names else option_id

        return " AND ".join(name_of(o) for o in self.options)


#: Base sizes of a set with no rows (nothing was measured).
NO_BASES: Mapping[SensitiveValue, int] = MappingProxyType({})


class CompositionSet:
    """A labelled set of audited targetings (one box in the figures).

    ``label`` matches the paper's x-axis labels: ``"Individual"``,
    ``"Random 2-way"``, ``"Top 2-way"``, ``"Bottom 2-way"``,
    ``"Top 3-way"``, ``"Bottom 3-way"``.

    Columns
    -------
    options:
        The AND-composed option tuple of every row.
    sizes:
        ``int64[len(options), len(attribute.values)]``: row ``i``,
        column ``j`` is ``|TA_i AND RA_v|`` for ``v = attribute.values[j]``.
    bases:
        ``|RA_v|`` for every value, shared by all rows.

    ``CompositionSet(label, audits)`` converts records to columns (they
    must share one attribute and one set of base sizes); audit batches
    build sets with :meth:`from_columns` instead.
    """

    __slots__ = ("label", "attribute", "options", "sizes", "bases")

    label: str
    attribute: SensitiveAttribute | None
    options: list[tuple[str, ...]]
    sizes: np.ndarray
    bases: Mapping[SensitiveValue, int]

    def __init__(
        self, label: str, audits: Iterable[TargetingAudit] = ()
    ) -> None:
        audits = list(audits)
        attribute = audits[0].attribute if audits else None
        bases = audits[0].bases if audits else NO_BASES
        if any(a.attribute != attribute or a.bases != bases for a in audits):
            raise ValueError(
                "a composition set holds one attribute and one set of base sizes"
            )
        values = attribute.values if attribute is not None else ()
        sizes = np.array(
            [[a.sizes[v] for v in values] for a in audits], dtype=np.int64
        ).reshape(len(audits), len(values))
        self.label, self.attribute, self.bases = label, attribute, bases
        self.options = [a.options for a in audits]
        self.sizes = sizes

    @classmethod
    def from_columns(
        cls,
        label: str,
        attribute: SensitiveAttribute | None,
        options: list[tuple[str, ...]],
        sizes: np.ndarray,
        bases: Mapping[SensitiveValue, int],
    ) -> "CompositionSet":
        """A set over existing columns, taken without copying."""
        made = cls.__new__(cls)
        made.label, made.attribute, made.options = label, attribute, options
        made.sizes, made.bases = sizes, bases
        return made

    def __len__(self) -> int:
        return len(self.options)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompositionSet):
            return NotImplemented
        return (
            self.label == other.label
            and self.attribute == other.attribute
            and self.options == other.options
            and np.array_equal(self.sizes, other.sizes)
            and dict(self.bases) == dict(other.bases)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        name = self.attribute.name if self.attribute is not None else None
        return f"<CompositionSet {self.label!r} n={len(self)} attribute={name}>"

    # -- records --------------------------------------------------------------

    @property
    def audits(self) -> list[TargetingAudit]:
        """One :class:`TargetingAudit` view per row, built on each access."""
        values = self.attribute.values if self.attribute is not None else ()
        return [
            TargetingAudit(options, self.attribute, dict(zip(values, row)), self.bases)
            for options, row in zip(self.options, self.sizes.tolist())
        ]

    def _take(
        self, rows: np.ndarray, label: str | None = None
    ) -> "CompositionSet":
        options = self.options
        return CompositionSet.from_columns(
            self.label if label is None else label,
            self.attribute,
            [options[i] for i in rows.tolist()],
            self.sizes[rows],
            self.bases,
        )

    def subset(
        self, keep: np.ndarray | Sequence[bool], label: str | None = None
    ) -> "CompositionSet":
        """The rows where the boolean mask ``keep`` is true, in order."""
        return self._take(np.flatnonzero(keep), label)

    # -- columns --------------------------------------------------------------

    def reach(self) -> np.ndarray:
        """Total audience size of every row (across all values).

        The paper filters targetings below a total recall of 10,000 to
        avoid very niche targetings.
        """
        return self.sizes.sum(axis=1)

    def _column(self, value: SensitiveValue) -> int:
        try:
            return self.attribute.values.index(value)
        except ValueError:
            raise KeyError(f"value {value!r} missing from size maps") from None

    def ratio_column(self, value: SensitiveValue) -> np.ndarray:
        """Representation ratio toward ``value`` of every row (NaN and
        infinite ratios included)."""
        if not len(self):
            return np.empty(0)
        bases = [self.bases[v] for v in self.attribute.values]
        return representation_ratios(self.sizes, bases, self._column(value))

    def recalls(
        self, value: SensitiveValue, excluding: bool = False
    ) -> np.ndarray:
        """Recall of every row toward (or excluding) ``value``."""
        if not len(self):
            return np.empty(0, dtype=np.int64)
        included = self.sizes[:, self._column(value)]
        return self.reach() - included if excluding else included

    # -- statistics -----------------------------------------------------------

    def ratios(self, value: SensitiveValue) -> list[float]:
        """Finite, defined ratios toward ``value`` across the set."""
        ratios = self.ratio_column(value)
        return ratios[np.isfinite(ratios)].tolist()

    def filtered(self, min_reach: int) -> "CompositionSet":
        """Subset with total reach at least ``min_reach``."""
        return self.subset(self.reach() >= min_reach)

    def top_by_ratio(
        self, value: SensitiveValue, k: int, ascending: bool = False
    ) -> list[TargetingAudit]:
        """The ``k`` most (or least, if ascending) skewed audits.

        Undefined (NaN) ratios sort as unskewed (1.0); ties keep set
        order, as a stable sort does.
        """
        ratios = self.ratio_column(value)
        key = np.where(np.isnan(ratios), 1.0, ratios)
        order = np.argsort(key if ascending else -key, kind="stable")
        return self._take(order[:k]).audits
