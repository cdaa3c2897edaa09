"""repro -- reproduction of "On the Potential for Discrimination via
Composition" (Venkatadri & Mislove, IMC 2020).

The package has three layers:

* :mod:`repro.population` + :mod:`repro.platforms` + :mod:`repro.api` --
  the simulated substrate standing in for live advertiser access to
  Facebook, Google, and LinkedIn (synthetic populations, full targeting
  interfaces with per-platform composition rules and estimate rounding,
  and a fake-HTTP API layer);
* :mod:`repro.core` -- the paper's methodology as a reusable audit
  library (representation ratios, greedy skewed-composition discovery,
  overlap/union-recall analysis, mitigation sweeps, estimate studies);
* :mod:`repro.experiments` + :mod:`repro.reporting` -- drivers that
  regenerate every figure and table in the paper's evaluation.

This facade holds only :func:`build_audit_session` and the
:class:`AuditSession` it returns.  It imports the stack when a session
is built, so the self-contained :mod:`repro.analysis` and
:mod:`repro.obs` load neither numpy nor the simulator.  Everything else
is imported from the module that defines it.

Quickstart::

    from repro import build_audit_session
    session = build_audit_session(n_records=30_000, seed=7)
    target = session.targets["facebook_restricted"]
    from repro.core import audit_individuals
    from repro.population.demographics import SENSITIVE_ATTRIBUTES, Gender
    individual = audit_individuals(target, SENSITIVE_ATTRIBUTES["gender"])
    print(sorted(individual.ratios(Gender.MALE))[-5:])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.api import ChaosTransport, FakeTransport, FaultProfile
    from repro.api.client import ReachClient
    from repro.core import AuditTarget
    from repro.platforms import PlatformSuite, RoundingPolicy
    from repro.population.model import LatentFactorModel

__version__ = "1.0.0"

__all__ = ["AuditSession", "__version__", "build_audit_session"]


@dataclass
class AuditSession:
    """Everything needed to run the paper's experiments.

    Bundles the simulated platform suite, the fake transport with its
    mounted routes, the per-interface API clients, and the audit
    targets built on top of them.
    """

    suite: PlatformSuite
    #: The transport the clients talk to; a :class:`~repro.api.ChaosTransport`
    #: when the session was built with fault injection.
    transport: FakeTransport | ChaosTransport
    clients: dict[str, ReachClient]
    targets: dict[str, AuditTarget]

    @property
    def target_order(self) -> list[str]:
        """Interface keys in the paper's presentation order."""
        return ["facebook_restricted", "facebook", "google", "linkedin"]

    @property
    def tracer(self):
        """The tracer threaded through the stack (no-op by default)."""
        return self.transport.tracer

    def total_api_requests(self) -> int:
        """Requests observed by the transport across the session."""
        return self.transport.total_requests


def build_audit_session(
    n_records: int = 50_000,
    seed: int = 42,
    model: LatentFactorModel | None = None,
    rounding: RoundingPolicy | None = None,
    rate_limit: float | None = None,
    chaos: FaultProfile | str | None = None,
    chaos_seed: int = 1031,
    tracer=None,
) -> AuditSession:
    """Construct the full simulation + audit stack.

    Parameters
    ----------
    n_records:
        Simulated records per platform population (each represents
        many real users; see ``DESIGN.md``).
    seed:
        Root seed; everything downstream is deterministic in it.
    model:
        Optional latent-factor model override (ablations).
    rounding:
        Optional rounding-policy override applied to every interface
        (pass :class:`repro.platforms.ExactRounding` to disable
        estimate rounding).
    rate_limit:
        Requests/second allowed per account; ``None`` disables rate
        limiting, which is the right default for batch experiments on
        the virtual clock.
    chaos:
        Optional fault injection: a :class:`~repro.api.FaultProfile` or
        the name of one of :data:`~repro.api.FAULT_PROFILES` (e.g.
        ``"storm"``).  The transport is wrapped in a
        :class:`~repro.api.ChaosTransport`; the clients'
        resilience layer absorbs the faults, so audit records stay
        bit-identical to a fault-free session.
    chaos_seed:
        Seed of the fault sequence; the same seed replays the same
        faults.
    tracer:
        The observability sink (see :mod:`repro.obs`), injected into
        the transport -- the single point from which clients, breakers,
        and audit targets pick it up.  The default is the no-op
        singleton; enabling it never changes what a session computes.
    """
    # Imported here, not at module level, so that importing a ``repro``
    # subpackage (the analyzer, the trace tools) does not load the
    # simulator and numpy.  ``build_platform_suite`` is looked up in
    # ``repro.platforms`` at each call.
    from repro.api import (
        FAULT_PROFILES,
        ChaosTransport,
        FakeTransport,
        VirtualClock,
        build_clients,
        mount_suite_routes,
    )
    from repro.core import build_audit_targets
    from repro.platforms import build_platform_suite

    suite = build_platform_suite(
        n_records=n_records,
        seed=seed,
        model=model,
        rounding=rounding,
    )
    transport: FakeTransport | ChaosTransport = FakeTransport(
        clock=VirtualClock(), rate=rate_limit, tracer=tracer
    )
    mount_suite_routes(transport, suite)
    if chaos is not None:
        profile = FAULT_PROFILES[chaos] if isinstance(chaos, str) else chaos
        transport = ChaosTransport(transport, profile, seed=chaos_seed)
    clients = build_clients(transport)
    targets = build_audit_targets(clients)
    return AuditSession(
        suite=suite, transport=transport, clients=clients, targets=targets
    )
