"""The audit estimate cache against the slices it sent.

Every target keeps its estimates in composition rows plus a side map
and, on the Facebook-restricted target, a validation map.  These tests
check that layout only through what it must reproduce: one cached
estimate per spec the clients answered, written out by an attached
checkpoint exactly once, one counted lookup per slice, no request for
anything cached, and a checkpoint round trip that re-sends nothing.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import pytest

from repro.api import FakeTransport, VirtualClock, build_clients, mount_suite_routes
from repro.core.audit import build_audit_targets
from repro.core.checkpoint import EstimateCheckpoint
from repro.platforms.targeting import TargetingSpec
from repro.population.demographics import SENSITIVE_ATTRIBUTES, AgeRange, Gender
from tests.checkpoints import read_checkpoint

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


def _answered(monkeypatch, target) -> set[tuple[str, TargetingSpec, int]]:
    """Every ``(interface, spec, estimate)`` the target's clients answer
    from now on, recorded at the client: each batch item through
    ``on_result`` and each single estimate as it returns."""
    answered: set[tuple[str, TargetingSpec, int]] = set()
    for client in {target.client, target.measure_client}:
        key = client.interface_key

        def batch(specs, on_result=None, key=key, send=client.estimate_many):
            specs = list(specs)

            def record(index, result):
                if isinstance(result, int):
                    answered.add((key, specs[index], result))
                if on_result is not None:
                    on_result(index, result)

            return send(specs, on_result=record)

        def single(spec, key=key, send=client.estimate):
            result = send(spec)
            answered.add((key, spec, result))
            return result

        monkeypatch.setattr(client, "estimate_many", batch)
        monkeypatch.setattr(client, "estimate", single)
    return answered


def _content(store: EstimateCheckpoint) -> set[tuple[str, TargetingSpec, int]]:
    """A store's entries on every interface, as a set."""
    return {
        (key, spec, estimate)
        for key in KEYS
        for spec, estimate in store.shard(key).items()
    }


@pytest.mark.parametrize("key", KEYS)
def test_cache_holds_one_estimate_per_slice_sent(session_small, monkeypatch, key):
    target = build_audit_targets(session_small.clients)[key]
    store = EstimateCheckpoint()
    target.attach_checkpoint(store)
    answered = _answered(monkeypatch, target)
    transport = target.client.transport

    first = []
    before = target.cache_hits + target.cache_misses
    for name, result, lookups in _workload(target):
        now = target.cache_hits + target.cache_misses
        assert (name, now - before) == (name, lookups)
        before = now
        first.append(result)

    assert _content(store) == answered
    assert len(store) == len(answered)
    recorded = [estimate for _, _, estimate in answered]
    assert sorted(target.cached_estimates()) == sorted(recorded)

    # Everything is cached now: the same calls send nothing, each
    # lookup is a hit, and they give the same results.
    requests, misses = transport.total_requests, target.cache_misses
    again = [result for _, result, _ in _workload(target)]
    assert transport.total_requests == requests
    assert target.cache_misses == misses
    assert again == first
    assert sorted(target.cached_estimates()) == sorted(recorded)
    assert _content(store) == answered


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


def test_loaded_checkpoint_saved_before_any_read_sends_nothing(
    session_small, tmp_path
):
    """Saving a loaded checkpoint writes back every entry, on every
    target, without placing one: LinkedIn's facet ids come from the
    catalog, and a fresh client has not fetched it."""
    path = tmp_path / "run.ckpt.json"
    store = EstimateCheckpoint(path)
    for target in build_audit_targets(session_small.clients).values():
        target.attach_checkpoint(store)
        _workload_once(target)
    store.save()
    written = read_checkpoint(path)

    transport = FakeTransport(clock=VirtualClock(), rate=None)
    mount_suite_routes(transport, session_small.suite)
    loaded = EstimateCheckpoint(path)
    for target in build_audit_targets(build_clients(transport)).values():
        target.attach_checkpoint(loaded)
    assert loaded._loaded == {}
    again = loaded.save(tmp_path / "again.ckpt.json")
    assert transport.total_requests == 0
    back = read_checkpoint(again)
    assert len(back) == len(written) and set(back) == set(written)


def test_shared_interface_entries_are_written_once(session_small, tmp_path):
    """The Facebook-restricted target measures through the Facebook
    interface, so both targets cache some of the same specs; the file
    holds each ``(interface, spec)`` once, with the union of both."""
    targets = build_audit_targets(session_small.clients)
    store = EstimateCheckpoint()
    shared = [targets["facebook_restricted"], targets["facebook"]]
    for target in shared:
        target.attach_checkpoint(store)
        _workload_once(target)
    # A side-map entry only the Facebook target holds.
    spec = targets["facebook"].composition_spec(_compositions(shared[1])[-1])
    targets["facebook"].measure(spec, AgeRange.AGE_18_24, exclude=True)
    held = [dict(target.cached_entries("facebook")) for target in shared]
    both = held[0].keys() & held[1].keys()
    assert both and held[0].keys() != held[1].keys()

    entries = read_checkpoint(store.save(tmp_path / "run.ckpt.json"))
    pairs = [(key, spec) for key, spec, _ in entries]
    assert len(pairs) == len(set(pairs))
    assert {spec: n for key, spec, n in entries if key == "facebook"} == {
        **held[0], **held[1]
    }
    assert {spec for key, spec, _ in entries if key == "facebook_restricted"} == (
        targets["facebook_restricted"]._validated.keys()
    )


def _workload_once(target) -> None:
    """Audit some compositions on ``target`` under both attributes."""
    comps = _compositions(target)
    target.audit_many(comps, GENDER)
    target.audit_many(comps[:4], AGE)
