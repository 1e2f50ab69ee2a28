"""The Allocation manager (Alloc-M).

"The Allocation manager (Alloc-M) within the AQoS also receives its
copy of the resource configuration" (Section 3.1). It is the broker's
book-keeper: for every live session it tracks the composite
reservation, the launched job, the attached sensors and the network
flow, so the scenario handlers can find (and resize) the resources
behind an SLA, and the verifier can map a degraded flow back to its
session.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import SLAError
from ..network.nrm import FlowAllocation
from ..resources.compute import Job
from ..sla.lifecycle import QoSSession
from .reservation_system import CompositeReservation, booking_flow_ids


@dataclass
class SessionResources:
    """Everything allocated to one session."""

    sla_id: int
    session: QoSSession
    reservation: Optional[CompositeReservation] = None
    job: Optional[Job] = None
    sensor_names: List[str] = field(default_factory=list)


class AllocationManager:
    """Per-session resource configuration registry."""

    def __init__(self) -> None:
        self._sessions: Dict[int, SessionResources] = {}

    def open_session(self, sla_id: int,
                     session: QoSSession) -> SessionResources:
        """Start tracking a session.

        Raises:
            SLAError: When the SLA is already tracked.
        """
        if sla_id in self._sessions:
            raise SLAError(f"session for SLA {sla_id} already open")
        resources = SessionResources(sla_id=sla_id, session=session)
        self._sessions[sla_id] = resources
        return resources

    def get(self, sla_id: int) -> SessionResources:
        """The tracked resources for an SLA.

        Raises:
            SLAError: When the SLA is not tracked.
        """
        resources = self._sessions.get(sla_id)
        if resources is None:
            raise SLAError(f"no open session for SLA {sla_id}")
        return resources

    def has(self, sla_id: int) -> bool:
        """Whether the SLA has an open session."""
        return sla_id in self._sessions

    def close_session(self, sla_id: int) -> SessionResources:
        """Stop tracking a session (on clearing)."""
        resources = self._sessions.pop(sla_id, None)
        if resources is None:
            raise SLAError(f"no open session for SLA {sla_id}")
        return resources

    def open_sessions(self) -> List[SessionResources]:
        """All tracked sessions, by SLA id."""
        return [self._sessions[sla_id] for sla_id in sorted(self._sessions)]

    def reset(self) -> None:
        """Forget every session (crash-recovery wipe)."""
        self._sessions.clear()

    def sla_for_flow(self, flow: FlowAllocation) -> Optional[int]:
        """Map a network flow back to its owning SLA (verifier hook)."""
        for resources in self._sessions.values():
            if resources.reservation is not None and flow.flow_id in \
                    booking_flow_ids(resources.reservation.network_booking):
                return resources.sla_id
        return None

    def owners(self) -> "Counter[Tuple[str, int]]":
        """How many open sessions own each GARA reservation
        (``("reservation", handle)``) and NRM flow (``("flow", id)``)."""
        owned: "Counter[Tuple[str, int]]" = Counter()
        for resources in self._sessions.values():
            composite = resources.reservation
            if composite is None:
                continue
            if composite.compute_handle is not None:
                owned["reservation", composite.compute_handle.value] += 1
            owned.update(("flow", flow_id) for flow_id
                         in booking_flow_ids(composite.network_booking))
        return owned
