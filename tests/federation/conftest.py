"""Shared helpers for the federation suite.

Every test here drives a real multi-domain control plane: N fully
wired testbeds on one bus, the superscheduling protocol between them,
and (in the crash tests) the PR-5 journal machinery underneath. The
shared fixture shapes one deliberately lopsided federation — ``d1``
under-provisioned so big guaranteed requests *must* delegate — because
the cross-domain paths are what this suite exists to exercise.

The same federation runs the scripted delegation episode
(:func:`run_delegation_episode`): ``d1`` must delegate its big
requests to ``d2``/``d3``, one domain's journal may be armed with a
:class:`~repro.recovery.crashpoints.CrashingJournalStore`, and the
crashed domain rejoins before the horizon. :data:`DELEGATION` hands it
to the crash-point sweep (``tests/recovery/crash_sweep.py``): whatever
write the crash lands on — a peer's ``delegation_begin`` intent, the
admission commit, the ``accepted`` link, the home's ``confirmed``
seal — the rejoined federation must satisfy
:func:`~repro.federation.recovery.federation_invariants`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.errors import BrokerCrash
from repro.federation.plane import FederatedControlPlane, FederatedOutcome
from repro.federation.recovery import federation_invariants
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.recovery.crashpoints import CrashingJournalStore
from repro.sla.negotiation import ServiceRequest

from ..recovery.crash_sweep import Episode

#: The under-provisioned home domain's capacity (Cg=3 cannot hold the
#: episode's cpu-10 requests, forcing cross-domain delegation).
SMALL_DOMAIN = {"total_cpu": 6, "guaranteed_cpu": 3, "adaptive_cpu": 2,
                "best_effort_cpu": 1, "best_effort_min": 1}

#: The scripted workload: (time, client, cpu, duration). Big requests
#: overflow d1 and delegate; the small one stays home.
EPISODE_WORKLOAD: "Tuple[Tuple[float, str, int, float], ...]" = (
    (1.0, "fed-big-1", 10, 70.0),
    (2.0, "fed-small-1", 2, 60.0),
    (5.0, "fed-big-2", 8, 70.0),
    (12.0, "fed-big-3", 6, 60.0),
)

EPISODE_HORIZON = 90.0
EPISODE_RECOVER_AT = 60.0


def guaranteed_request(client: str, cpu: int, start: float = 0.0,
                       duration: float = 60.0) -> ServiceRequest:
    """A guaranteed-class request sized by ``cpu``."""
    spec = QoSSpecification.of(
        exact_parameter(Dimension.CPU, cpu),
        exact_parameter(Dimension.MEMORY_MB, 1024))
    return ServiceRequest(
        client=client, service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED, specification=spec,
        start=start, end=start + duration)


@pytest.fixture
def plane() -> FederatedControlPlane:
    """Three domains; ``d1`` too small to hold a cpu>=4 request."""
    return FederatedControlPlane(
        domains=3, seed=0, capacity={"d1": dict(SMALL_DOMAIN)})


@dataclass
class DelegationEpisode:
    """One scripted delegation episode's outcome (clean or crashed)."""

    plane: FederatedControlPlane
    outcomes: "List[FederatedOutcome]"
    problems: "List[str]"
    crashed: "List[str]"

    @property
    def ok(self) -> bool:
        """Whether every federation invariant held at the end."""
        return not self.problems


def run_delegation_episode(*, crash_domain: Optional[str] = None,
                           crash_lsn: Optional[int] = None,
                           mode: str = "before", seed: int = 0
                           ) -> DelegationEpisode:
    """Run the scripted episode, optionally crashing one domain's
    journal at its ``crash_lsn``-th write, and check the invariants.

    The crashed domain is recovered at ``EPISODE_RECOVER_AT`` — after
    the delegation traffic, before the horizon — so reconciliation and
    the post-rejoin heartbeats are part of every swept cell.
    """
    stores: "Dict[str, object]" = {}
    armed: Optional[CrashingJournalStore] = None
    if crash_domain is not None and crash_lsn is not None:
        armed = CrashingJournalStore(crash_lsn=crash_lsn, mode=mode)
        stores[crash_domain] = armed
    plane = FederatedControlPlane(
        domains=3, seed=seed, capacity={"d1": dict(SMALL_DOMAIN)},
        journal_stores=stores)
    plane.start_heartbeats(until=EPISODE_HORIZON)
    outcomes: "List[FederatedOutcome]" = []
    for at, client, cpu, duration in EPISODE_WORKLOAD:
        def admit(client=client, cpu=cpu, duration=duration) -> None:
            outcomes.append(plane.request_service(guaranteed_request(
                client, cpu, plane.sim.now, duration)))
        plane.sim.schedule_at(at, admit, label=f"workload:{client}")
    if crash_domain is not None:
        plane.recover_broker(crash_domain, at=EPISODE_RECOVER_AT)
    remaining = 3  # one armed store fires once; bound the loop anyway
    while remaining:
        remaining -= 1
        try:
            plane.sim.run(until=EPISODE_HORIZON)
            break
        except BrokerCrash:
            # The armed journal died inside one of the broker's *own*
            # simulator events (job completion, expiry sweep) rather
            # than under a plane call; attribute it and keep running
            # (the federation recovers on its own schedule).
            assert crash_domain is not None
            plane.crash_broker(
                crash_domain,
                cause="journal died inside a broker-internal event")
    problems = list(federation_invariants(plane))
    crashed = [name for _, name, _ in plane.crashes]
    if armed is not None and armed.fired and crash_domain not in crashed:
        problems.append(f"armed store fired but {crash_domain} was "
                        f"never marked crashed")
    return DelegationEpisode(plane=plane, outcomes=outcomes,
                             problems=problems, crashed=crashed)


def delegation_write_points(domain: str) -> int:
    """Journal write points one domain sees in a clean episode."""
    journal = run_delegation_episode().plane.domains[domain].testbed.journal
    assert journal is not None
    return journal.last_lsn


def _crash_delegation(domain: str, lsn: int, mode: str
                      ) -> "Tuple[bool, Sequence[str]]":
    episode = run_delegation_episode(crash_domain=domain, crash_lsn=lsn,
                                     mode=mode)
    return domain in episode.crashed, episode.problems


#: The delegation episode with the home (``d1``) and the landing peer
#: (``d2``) armable: intents, cancellations and confirms on one side;
#: begin, admission commit and the accepted link on the other.
DELEGATION = Episode(targets=("d1", "d2"),
                     write_points=delegation_write_points,
                     run=_crash_delegation)
