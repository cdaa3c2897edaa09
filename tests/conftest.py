"""Shared fixtures: small simulated sessions reused across the suite.

Building a platform suite realises thousands of attribute memberships,
so the expensive fixtures are session-scoped; tests must treat them as
immutable (caching inside :class:`AuditTarget` is fine -- it only adds
entries).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import build_audit_session
from repro.api.chaos import FAULT_PROFILES, FaultProfile
from repro.platforms import ExactRounding
from repro.platforms.facebook import FacebookMarketingPlatform
from repro.platforms.google import GooglePlatform
from repro.platforms.linkedin import LinkedInPlatform

#: Population size used by the shared sessions: big enough that the
#: composition experiments see non-trivial audiences, small enough to
#: keep the suite fast.
TEST_RECORDS = 8_000


@pytest.fixture(scope="session")
def session_small():
    """A rounded audit session over small populations."""
    return build_audit_session(n_records=TEST_RECORDS, seed=3)


@pytest.fixture(scope="session")
def session_exact():
    """An audit session whose interfaces skip estimate rounding."""
    return build_audit_session(
        n_records=TEST_RECORDS, seed=3, rounding=ExactRounding()
    )


@pytest.fixture(scope="session")
def traced_tiny_run():
    """The golden gates' traced ``--scale tiny`` run, made once per session.

    ``tests/test_golden.py`` checks its digests and
    ``tests/test_obs_overhead.py`` reads its trace and CPU time.
    """
    from tests.test_golden import tiny_run

    return tiny_run()


@pytest.fixture(scope="session")
def fb_platform():
    """One Facebook platform (normal + restricted interfaces)."""
    return FacebookMarketingPlatform(n_records=6_000, seed=5)


@pytest.fixture(scope="session")
def google_platform():
    """One Google platform (display + search interfaces)."""
    return GooglePlatform(n_records=6_000, seed=5)


@pytest.fixture(scope="session")
def linkedin_platform():
    """One LinkedIn platform."""
    return LinkedInPlatform(n_records=6_000, seed=5)


@pytest.fixture
def fault_profile():
    """Factory for fault profiles: a named profile plus overrides.

    Usage::

        profile = fault_profile("storm", throttle_prob=0.5)
        profile = fault_profile(outage_after=2)  # starts from "calm"
    """

    def factory(name: str = "calm", /, **overrides) -> FaultProfile:
        profile = FAULT_PROFILES[name]
        return replace(profile, **overrides) if overrides else profile

    return factory
