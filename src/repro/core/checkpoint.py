"""Persistent estimate checkpoints for resumable audit runs.

A real audit study that dies mid-run -- a tripped circuit breaker, an
exhausted query budget, a crashed laptop -- must not re-issue the
thousands of size queries it already paid for.  The checkpoint is the
durable form of :class:`~repro.core.audit.AuditTarget`'s estimate
cache: every successful ``(interface, spec) -> estimate`` lands here,
one entry per spec sent, though the cache keeps a composition's
demographic slices together in one row.  Attaching the store to a
fresh target places each entry in the row (or side map) that measuring
it would have, so the query planner skips everything already measured.

Because audit records are a pure function of the cached estimates,
``kill + resume`` produces output bit-identical to an uninterrupted
run -- enforced by ``tests/test_chaos.py``.

The on-disk format is a small JSON document; specs round-trip through
a canonical wire form (sorted option lists, integer demographic
codes).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.platforms.targeting import Clause, TargetingSpec
from repro.population.demographics import AgeRange, Gender

__all__ = ["EstimateCheckpoint", "spec_to_wire", "spec_from_wire"]


def spec_to_wire(spec: TargetingSpec) -> dict[str, Any]:
    """Canonical JSON-able form of a targeting spec."""
    return {
        "country": spec.country,
        "genders": (
            sorted(int(g) for g in spec.genders)
            if spec.genders is not None
            else None
        ),
        "ages": (
            sorted(int(a) for a in spec.age_ranges)
            if spec.age_ranges is not None
            else None
        ),
        "clauses": [sorted(clause.options) for clause in spec.clauses],
        "exclusions": sorted(spec.exclusions),
    }


def spec_from_wire(data: Mapping[str, Any]) -> TargetingSpec:
    """Reconstruct a targeting spec from its wire form."""
    return TargetingSpec(
        country=data["country"],
        genders=(
            frozenset(Gender(g) for g in data["genders"])
            if data["genders"] is not None
            else None
        ),
        age_ranges=(
            frozenset(AgeRange(a) for a in data["ages"])
            if data["ages"] is not None
            else None
        ),
        clauses=tuple(
            Clause.single(options[0]) if len(options) == 1 else Clause(options)
            for options in data["clauses"]
        ),
        exclusions=frozenset(data["exclusions"]),
    )


class EstimateCheckpoint:
    """Completed size estimates, sharded per interface key.

    Construct with a ``path`` to load any existing checkpoint file and
    make :meth:`save` write there by default; construct bare for a
    purely in-memory store (useful in tests).  A ``path`` that is a
    directory, or whose parent is not one, raises :class:`ValueError`
    here rather than at the first save, after a run paid for its
    estimates.
    """

    _VERSION = 1

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._shards: dict[str, dict[TargetingSpec, int]] = {}
        if self.path is None:
            return
        if not self.path.parent.is_dir():
            raise ValueError(f"no directory {self.path.parent} for {self.path}")
        if self.path.is_dir():
            raise ValueError(f"{self.path} is a directory, not a checkpoint file")
        if self.path.exists():
            self.load(self.path)

    def shard(self, interface_key: str) -> dict[TargetingSpec, int]:
        """The (live) estimate mapping for one interface."""
        return self._shards.setdefault(interface_key, {})

    def record(
        self, interface_key: str, spec: TargetingSpec, estimate: int
    ) -> None:
        """Persist one completed estimate."""
        self._shards.setdefault(interface_key, {})[spec] = estimate

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards.values())

    def __contains__(self, key: tuple[str, TargetingSpec]) -> bool:
        interface_key, spec = key
        return spec in self._shards.get(interface_key, {})

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path | None = None) -> Path:
        """Write the checkpoint as JSON (atomic rename)."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no checkpoint path configured")
        payload = {
            "version": self._VERSION,
            "interfaces": {
                key: [
                    [spec_to_wire(spec), estimate]
                    for spec, estimate in shard.items()
                ]
                for key, shard in self._shards.items()
            },
        }
        scratch = target.with_name(target.name + ".tmp")
        scratch.write_text(json.dumps(payload))
        scratch.replace(target)
        return target

    def load(self, path: str | Path | None = None) -> int:
        """Merge a checkpoint file in; returns the records loaded.

        A file that is not JSON, has another version or has the wrong
        shape raises :class:`ValueError` naming it, and merges nothing.
        """
        source = Path(path) if path is not None else self.path
        if source is None:
            raise ValueError("no checkpoint path configured")
        try:
            payload = json.loads(source.read_text())
            if payload.get("version") != self._VERSION:
                raise ValueError(
                    f"unsupported checkpoint version {payload.get('version')!r}"
                )
            shards = {
                key: [(spec_from_wire(wire), int(n)) for wire, n in entries]
                for key, entries in payload["interfaces"].items()
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"unreadable checkpoint {source}: {type(exc).__name__}: {exc}"
            ) from exc
        loaded = 0
        for key, entries in shards.items():
            self._shards.setdefault(key, {}).update(entries)
            loaded += len(entries)
        return loaded

    def __repr__(self) -> str:
        where = f" path={self.path}" if self.path else ""
        return f"<EstimateCheckpoint {len(self)} estimates{where}>"
