"""Persistent estimate checkpoints for resumable audit runs.

A real audit study that dies mid-run -- a tripped circuit breaker, an
exhausted query budget, a crashed laptop -- must not re-issue the
thousands of size queries it already paid for.  The checkpoint is the
durable form of the :class:`~repro.core.audit.AuditTarget` estimate
caches attached to it: it keeps no copy of them, and saving writes out
what they hold, one entry per ``(interface, spec)`` sent, though a
cache keeps a composition's demographic slices together in one row.
Attaching the store to a fresh target places each loaded entry in the
row (or side map) that measuring it would have, so the query planner
skips everything already measured.

Because audit records are a pure function of the cached estimates,
``kill + resume`` produces output bit-identical to an uninterrupted
run -- enforced by ``tests/test_chaos.py``.

The file is JSON lines, read and written one line at a time: a
``{"version": 2}`` header, then one ``[interface, spec, estimate]``
line per entry.  Specs round-trip through a canonical wire form
(sorted option lists, integer demographic codes).
"""

from __future__ import annotations

import functools
import itertools
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.platforms.targeting import Clause, TargetingSpec
from repro.population.demographics import AgeRange, Gender

if TYPE_CHECKING:
    from repro.core.audit import AuditTarget

__all__ = ["EstimateCheckpoint", "spec_to_wire", "spec_from_wire"]


def _codes(values: frozenset | None) -> list[int] | None:
    return None if values is None else sorted(map(int, values))


def spec_to_wire(spec: TargetingSpec) -> dict[str, Any]:
    """Canonical JSON-able form of a targeting spec (a clause iterates
    its options in sorted order)."""
    return {
        "country": spec.country,
        "genders": _codes(spec.genders),
        "ages": _codes(spec.age_ranges),
        "clauses": [list(clause) for clause in spec.clauses],
        "exclusions": sorted(spec.exclusions),
    }


@functools.cache
def _values(kind: type, codes: frozenset[int]) -> frozenset:
    """One set per code set, shared by every spec loaded with it: a full
    run's file holds 232k demographic sets, 216 bytes each on their own.
    An invalid code raises, so at most every subset of a type's codes is
    cached."""
    return frozenset(map(kind, codes))


_NO_EXCLUSIONS: frozenset[str] = frozenset()


def spec_from_wire(data: Mapping[str, Any]) -> TargetingSpec:
    """Reconstruct a targeting spec from its wire form."""
    genders, ages = data["genders"], data["ages"]
    return TargetingSpec(
        country=data["country"],
        genders=None if genders is None else _values(Gender, frozenset(genders)),
        age_ranges=None if ages is None else _values(AgeRange, frozenset(ages)),
        clauses=tuple(
            Clause.single(options[0]) if len(options) == 1 else Clause(options)
            for options in data["clauses"]
        ),
        exclusions=frozenset(data["exclusions"]) or _NO_EXCLUSIONS,
    )


class EstimateCheckpoint:
    """Completed size estimates, per interface key: what each registered
    target caches for the interface, and the loaded entries no
    registered target has taken, each spec once.

    Construct with a ``path`` to load any existing checkpoint file and
    make :meth:`save` write there by default; construct bare for a
    purely in-memory store (useful in tests).  A ``path`` that is a
    directory, or whose parent is not one, raises :class:`ValueError`
    here rather than at the first save, after a run paid for its
    estimates.
    """

    _VERSION = 2

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._loaded: dict[str, dict[TargetingSpec, int]] = {}
        # Each registered target, with the interfaces it caches.
        self._targets: dict[AuditTarget, tuple[str, str]] = {}
        if self.path is None:
            return
        if not self.path.parent.is_dir():
            raise ValueError(f"no directory {self.path.parent} for {self.path}")
        if self.path.is_dir():
            raise ValueError(f"{self.path} is a directory, not a checkpoint file")
        if self.path.exists():
            self.load(self.path)

    def register(self, target: AuditTarget) -> None:
        """Hold ``target``'s cache from now on, in place of the loaded
        entries of its interfaces (which it has just preloaded)."""
        keys = target.client.interface_key, target.measure_client.interface_key
        self._targets[target] = keys
        for key in keys:
            self._loaded.pop(key, None)

    def _interface_keys(self) -> list[str]:
        held = itertools.chain.from_iterable(self._targets.values())
        return list(dict.fromkeys([*held, *self._loaded]))

    def _entries(self, interface_key: str) -> Iterator[tuple[TargetingSpec, int]]:
        """Every entry of one interface, each spec once.  Specs are held
        to drop repeats only where two sources hold the interface."""
        sources = [
            target.cached_entries(interface_key)
            for target, keys in self._targets.items()
            if interface_key in keys
        ]
        if interface_key in self._loaded:
            sources.append(self._loaded[interface_key].items())
        if len(sources) == 1:
            yield from sources[0]
            return
        seen: set[TargetingSpec] = set()
        for spec, estimate in itertools.chain.from_iterable(sources):
            if spec not in seen:
                seen.add(spec)
                yield spec, estimate

    def shard(self, interface_key: str) -> dict[TargetingSpec, int]:
        """A fresh mapping of one interface's estimates."""
        return dict(self._entries(interface_key))

    def __len__(self) -> int:
        return sum(1 for key in self._interface_keys() for _ in self._entries(key))

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path | None = None) -> Path:
        """Write the checkpoint, one entry per line (atomic rename)."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no checkpoint path configured")
        scratch = target.with_name(target.name + ".tmp")
        try:
            with scratch.open("w") as handle:
                handle.write(json.dumps({"version": self._VERSION}) + "\n")
                for key in self._interface_keys():
                    for spec, estimate in self._entries(key):
                        line = json.dumps([key, spec_to_wire(spec), estimate])
                        handle.write(line + "\n")
            scratch.replace(target)
        finally:
            # A save that raised leaves the previous file and no scratch.
            scratch.unlink(missing_ok=True)
        return target

    def load(self, path: str | Path | None = None) -> int:
        """Read a checkpoint file in; returns the records loaded.

        Its entries replace the loaded entries of each interface it
        holds.  A file that is not JSON lines, has another version or
        has an entry of the wrong shape raises :class:`ValueError`
        naming it and the line, and changes nothing.
        """
        source = Path(path) if path is not None else self.path
        if source is None:
            raise ValueError("no checkpoint path configured")
        shards: dict[str, dict[TargetingSpec, int]] = {}
        number = 1
        try:
            with source.open() as handle:
                header = json.loads(handle.readline())
                if header.get("version") != self._VERSION:
                    raise ValueError(
                        f"unsupported checkpoint version {header.get('version')!r}"
                    )
                for number, line in enumerate(handle, start=2):
                    key, wire, estimate = json.loads(line)
                    shards.setdefault(key, {})[spec_from_wire(wire)] = int(estimate)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"unreadable checkpoint {source} line {number}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        self._loaded.update(shards)
        return number - 1
