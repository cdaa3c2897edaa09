"""The audit estimate cache against the slices it sent.

Every target keeps its estimates in composition rows plus a side map
and, on the Facebook-restricted target, a validation map.  These tests
check that layout only through what it must reproduce: one cached
estimate per spec sent (as an attached checkpoint records them), one
counted lookup per slice, no request for anything cached, and a
checkpoint round trip that re-sends nothing.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import pytest

from repro.core.audit import build_audit_targets
from repro.core.checkpoint import EstimateCheckpoint
from repro.population.demographics import SENSITIVE_ATTRIBUTES, AgeRange, Gender

GENDER = SENSITIVE_ATTRIBUTES["gender"]
AGE = SENSITIVE_ATTRIBUTES["age"]
KEYS = ["facebook_restricted", "facebook", "google", "linkedin"]


def _compositions(target) -> list[tuple[str, ...]]:
    """Singles and pairs over options from both ends of the catalog, so
    Google (cross-feature pairs only) composes some pairs too."""
    ids = target.study_option_ids()
    ids = ids[:3] + ids[-3:]
    comps = [(o,) for o in ids] + list(itertools.combinations(ids, 2))
    return [c for c in comps if target.can_compose(c)]


def _workload(target) -> Iterator[tuple[str, object, int]]:
    """Every kind of lookup a run makes, one call per step.

    Yields ``(name, result, lookups)`` after each call: ``lookups``
    counts one per demographic slice, one per restricted-interface
    validation and one per base size measured on an attribute's first
    use.
    """
    comps = _compositions(target)
    validation = int(target.client is not target.measure_client)
    for attribute in (GENDER, AGE):
        width = len(attribute.values)
        result = target.audit_many(comps, attribute)
        yield "audit_many", result, len(comps) * (width + validation) + width
        result = target.audit_many(comps[:3], attribute)
        yield "audit_many_again", result, 3 * (width + validation)
    yield "audit", target.audit(comps[-1], GENDER), 2 + validation
    spec = target.composition_spec(comps[-1])
    for value, exclude in [
        (Gender.MALE, True),
        (AgeRange.AGE_18_24, True),
        (AgeRange.AGE_25_34, False),
        (None, False),
    ]:
        yield "measure", target.measure(spec, value, exclude), 1
    if target.supports_boolean_rules:
        pair = [comps[0], comps[-1]]
        for value in (Gender.FEMALE, None):
            yield "intersection", target.intersection_size(pair, value), 1


@pytest.mark.parametrize("key", KEYS)
def test_cache_holds_one_estimate_per_slice_sent(session_small, key):
    target = build_audit_targets(session_small.clients)[key]
    sent = EstimateCheckpoint()
    target.attach_checkpoint(sent)
    transport = target.client.transport

    first = []
    before = target.cache_hits + target.cache_misses
    for name, result, lookups in _workload(target):
        now = target.cache_hits + target.cache_misses
        assert (name, now - before) == (name, lookups)
        before = now
        first.append(result)

    interfaces = {target.client.interface_key, target.measure_client.interface_key}
    recorded = [
        estimate
        for interface in interfaces
        for estimate in sent.shard(interface).values()
    ]
    assert sorted(target.cached_estimates()) == sorted(recorded)

    # Everything is cached now: the same calls send nothing, each
    # lookup is a hit, and they give the same results.
    requests, misses = transport.total_requests, target.cache_misses
    again = [result for _, result, _ in _workload(target)]
    assert transport.total_requests == requests
    assert target.cache_misses == misses
    assert again == first
    assert sorted(target.cached_estimates()) == sorted(recorded)


@pytest.mark.parametrize("key", KEYS)
def test_checkpoint_round_trip_resends_nothing(session_small, tmp_path, key):
    path = tmp_path / "run.ckpt.json"
    store = EstimateCheckpoint(path)
    target = build_audit_targets(session_small.clients)[key]
    target.attach_checkpoint(store)
    first = [result for _, result, _ in _workload(target)]
    store.save()

    fresh = build_audit_targets(session_small.clients)[key]
    fresh.attach_checkpoint(EstimateCheckpoint(path))
    transport = fresh.client.transport
    requests = transport.total_requests
    resumed = [result for _, result, _ in _workload(fresh)]
    assert transport.total_requests == requests
    assert fresh.cache_misses == 0
    assert resumed == first
    assert sorted(fresh.cached_estimates()) == sorted(target.cached_estimates())
