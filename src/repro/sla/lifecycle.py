"""The QoS-session phase machine (Figure 3).

"A QoS session consists of three main phases: i) the Establishment
phase, ii) the Active phase and iii) the Clearing phase. Each of these
phases have QoS functions":

* Establishment — specification, mapping, negotiation, reservation.
* Active — allocation, monitoring, re-negotiation, adaptation,
  accounting.
* Clearing — termination, accounting.

:class:`QoSSession` enforces that each function runs only in its phase
and that phases advance in order; the per-session function log is what
the Figure 3 benchmark replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..errors import LifecycleError


class Phase(Enum):
    """The three session phases (plus a terminal closed state)."""

    ESTABLISHMENT = "establishment"
    ACTIVE = "active"
    CLEARING = "clearing"
    CLOSED = "closed"


class QoSFunction(Enum):
    """The QoS management functions of Figure 3."""

    SPECIFICATION = "QoS Specification"
    MAPPING = "QoS Mapping"
    NEGOTIATION = "QoS Negotiation"
    RESERVATION = "Resource Reservation"
    ALLOCATION = "Resource Allocation"
    MONITORING = "QoS Monitoring"
    RENEGOTIATION = "QoS Renegotiation"
    ADAPTATION = "QoS Adaptation"
    ACCOUNTING = "QoS Accounting"
    TERMINATION = "QoS Termination"


#: Which functions are legal in which phase (Figure 3's columns).
PHASE_FUNCTIONS: "Dict[Phase, Tuple[QoSFunction, ...]]" = {
    Phase.ESTABLISHMENT: (
        QoSFunction.SPECIFICATION,
        QoSFunction.MAPPING,
        QoSFunction.NEGOTIATION,
        QoSFunction.RESERVATION,
    ),
    Phase.ACTIVE: (
        QoSFunction.ALLOCATION,
        QoSFunction.MONITORING,
        QoSFunction.RENEGOTIATION,
        QoSFunction.ADAPTATION,
        QoSFunction.ACCOUNTING,
    ),
    Phase.CLEARING: (
        QoSFunction.TERMINATION,
        QoSFunction.ACCOUNTING,
    ),
    Phase.CLOSED: (),
}

#: Legal termination causes (Section 3: "resource reservation
#: expiration, SLA violation or a Grid service completion", plus a
#: client-initiated withdrawal and the federation rolling back a
#: half-delegated cross-domain booking).
TERMINATION_CAUSES = ("expiration", "violation", "completion",
                      "client-request", "delegation-rollback")


@dataclass
class QoSSession:
    """One client session moving through the Figure 3 phases.

    Attributes:
        session_id: Unique id (usually the SLA id).
        phase: Current phase.
        clearing_cause: Why the session entered Clearing.
        history: ``(time, function)`` log of performed functions.
    """

    session_id: int
    phase: Phase = Phase.ESTABLISHMENT
    clearing_cause: Optional[str] = None
    history: "List[Tuple[float, QoSFunction]]" = field(default_factory=list)

    def allows(self, function: QoSFunction) -> bool:
        """Whether ``function`` may run in the current phase."""
        return function in PHASE_FUNCTIONS[self.phase]

    def perform(self, function: QoSFunction, time: float = 0.0) -> None:
        """Record a function execution, enforcing the phase mapping.

        Raises:
            LifecycleError: When the function is illegal in this phase.
        """
        if not self.allows(function):
            raise LifecycleError(
                f"session {self.session_id}: {function.value!r} is not a "
                f"{self.phase.value}-phase function")
        self.history.append((time, function))

    def enter_active(self) -> None:
        """Establishment → Active (SLA established, resources allocated).

        Raises:
            LifecycleError: Unless currently in Establishment.
        """
        if self.phase is not Phase.ESTABLISHMENT:
            raise LifecycleError(
                f"session {self.session_id}: cannot enter Active from "
                f"{self.phase.value}")
        self.phase = Phase.ACTIVE

    def enter_clearing(self, cause: str) -> None:
        """Any pre-clearing phase → Clearing.

        Establishment may clear directly (negotiation failed /
        reservation refused); Active clears on expiry, violation or
        completion.

        Raises:
            LifecycleError: On unknown causes or if already clearing.
        """
        if cause not in TERMINATION_CAUSES:
            raise LifecycleError(
                f"unknown termination cause {cause!r}; expected one of "
                f"{TERMINATION_CAUSES}")
        if self.phase in (Phase.CLEARING, Phase.CLOSED):
            raise LifecycleError(
                f"session {self.session_id} is already {self.phase.value}")
        self.phase = Phase.CLEARING
        self.clearing_cause = cause

    def close(self) -> None:
        """Clearing → Closed (resources freed, accounting settled).

        Raises:
            LifecycleError: Unless currently Clearing.
        """
        if self.phase is not Phase.CLEARING:
            raise LifecycleError(
                f"session {self.session_id}: cannot close from "
                f"{self.phase.value}")
        self.phase = Phase.CLOSED
