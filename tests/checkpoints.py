"""Checkpoint files written and read without :class:`EstimateCheckpoint`.

Tests that need a checkpoint of known content write it here, in the
file format itself (a ``{"version": 2}`` header, then one
``[interface, spec, estimate]`` JSON line per entry), and read what a
save wrote line by line, so a store's own reader and writer are each
checked against the format rather than against each other.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.core.checkpoint import spec_from_wire, spec_to_wire
from repro.platforms.targeting import TargetingSpec

Entry = tuple[str, TargetingSpec, int]


def write_checkpoint(path: Path, entries: Iterable[Entry]) -> Path:
    """Write ``(interface, spec, estimate)`` entries as a checkpoint file."""
    lines = [json.dumps({"version": 2})] + [
        json.dumps([key, spec_to_wire(spec), estimate])
        for key, spec, estimate in entries
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_checkpoint(path: Path) -> list[Entry]:
    """Every entry line of a checkpoint file, in file order."""
    header, *lines = path.read_text().splitlines()
    assert json.loads(header) == {"version": 2}
    entries = []
    for line in lines:
        key, wire, estimate = json.loads(line)
        entries.append((key, spec_from_wire(wire), estimate))
    return entries
