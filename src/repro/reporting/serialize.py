"""JSON serialisation of audit results.

Experiment outputs need to outlive the process (the paper's analysis
pipeline separates measurement from plotting); this module converts the
core result records to and from plain JSON-compatible dicts.  Sensitive
values serialise as ``{"attribute": ..., "value": <label>}`` pairs
because :class:`Gender` and :class:`AgeRange` raw values overlap.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping

from repro.core.results import CompositionSet, SensitiveValue, TargetingAudit
from repro.core.stats import BoxStats
from repro.population.demographics import (
    AGE_RANGES,
    GENDERS,
    SENSITIVE_ATTRIBUTES,
    Gender,
)

__all__ = [
    "value_to_json",
    "value_from_json",
    "audit_to_json",
    "audit_from_json",
    "composition_set_to_json",
    "composition_set_from_json",
    "box_stats_to_json",
    "dump_composition_set",
    "load_composition_set",
]

_BY_LABEL: dict[tuple[str, str], SensitiveValue] = {
    **{("gender", g.label): g for g in GENDERS},
    **{("age", a.label): a for a in AGE_RANGES},
}


def value_to_json(value: SensitiveValue) -> dict[str, str]:
    """Serialise a sensitive value unambiguously."""
    attribute = "gender" if isinstance(value, Gender) else "age"
    return {"attribute": attribute, "value": value.label}


def value_from_json(payload: Mapping[str, str]) -> SensitiveValue:
    """Inverse of :func:`value_to_json`."""
    key = (payload["attribute"], payload["value"])
    try:
        return _BY_LABEL[key]
    except KeyError:
        raise ValueError(f"unknown sensitive value {payload!r}") from None


def _float_to_json(value: float) -> float | str | None:
    if math.isnan(value):
        return None
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def audit_to_json(audit: TargetingAudit) -> dict[str, Any]:
    """Serialise one targeting audit."""
    return {
        "options": list(audit.options),
        "attribute": audit.attribute.name,
        "sizes": {v.label: int(s) for v, s in audit.sizes.items()},
        "bases": {v.label: int(b) for v, b in audit.bases.items()},
    }


def audit_from_json(payload: Mapping[str, Any]) -> TargetingAudit:
    """Inverse of :func:`audit_to_json`."""
    attribute = SENSITIVE_ATTRIBUTES[payload["attribute"]]
    by_label = {v.label: v for v in attribute.values}
    return TargetingAudit(
        options=tuple(payload["options"]),
        attribute=attribute,
        sizes={by_label[k]: int(v) for k, v in payload["sizes"].items()},
        bases={by_label[k]: int(v) for k, v in payload["bases"].items()},
    )


def composition_set_to_json(composition_set: CompositionSet) -> dict[str, Any]:
    """Serialise a labelled set of audits."""
    return {
        "label": composition_set.label,
        "audits": [audit_to_json(a) for a in composition_set.audits],
    }


def composition_set_from_json(payload: Mapping[str, Any]) -> CompositionSet:
    """Inverse of :func:`composition_set_to_json`."""
    return CompositionSet(
        payload["label"], [audit_from_json(a) for a in payload["audits"]]
    )


def box_stats_to_json(box: BoxStats) -> dict[str, Any]:
    """Serialise box-plot statistics (NaN -> null, inf -> 'inf')."""
    return {
        "n": box.n,
        "min": _float_to_json(box.minimum),
        "p10": _float_to_json(box.p10),
        "p25": _float_to_json(box.p25),
        "median": _float_to_json(box.median),
        "p75": _float_to_json(box.p75),
        "p90": _float_to_json(box.p90),
        "max": _float_to_json(box.maximum),
        "mean": _float_to_json(box.mean),
    }


def dump_composition_set(composition_set: CompositionSet, path: str) -> None:
    """Write a composition set to a JSON file."""
    with open(path, "w") as handle:
        json.dump(composition_set_to_json(composition_set), handle)


def load_composition_set(path: str) -> CompositionSet:
    """Read a composition set from a JSON file."""
    with open(path) as handle:
        return composition_set_from_json(json.load(handle))
