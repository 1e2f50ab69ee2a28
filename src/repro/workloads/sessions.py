"""Session descriptions for synthetic workloads."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

from ..qos.classes import ServiceClass
from ..errors import ValidationError


@dataclass(frozen=True)
class SessionSpec:
    """One synthetic session.

    Attributes:
        session_id: Unique id within the workload.
        user: Client name.
        service_class: QoS class of the request.
        arrival: Arrival time.
        duration: Requested session length.
        cpu_floor: Minimum acceptable CPU nodes (the commitment for
            guaranteed/controlled-load sessions).
        cpu_best: Desired best-quality CPU nodes (``== cpu_floor`` for
            guaranteed sessions).
        memory_mb: Memory demand (broker-level runs).
        bandwidth_mbps: Bandwidth demand (0 = no network leg).
        accept_degradation / accept_termination / accept_promotion:
            The adaptation options the client grants.
    """

    session_id: int
    user: str
    service_class: ServiceClass
    arrival: float
    duration: float
    cpu_floor: float
    cpu_best: float
    memory_mb: float = 0.0
    bandwidth_mbps: float = 0.0
    accept_degradation: bool = False
    accept_termination: bool = False
    accept_promotion: bool = False

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValidationError(f"duration must be positive: {self.duration}")
        if self.cpu_floor > self.cpu_best:
            raise ValidationError(
                f"cpu_floor {self.cpu_floor} exceeds cpu_best "
                f"{self.cpu_best}")

    @property
    def end(self) -> float:
        """Departure time."""
        return self.arrival + self.duration

    @property
    def mean_cpu(self) -> float:
        """Midpoint demand, used for offered-load computations."""
        return (self.cpu_floor + self.cpu_best) / 2.0


@dataclass(frozen=True)
class Workload:
    """A full synthetic workload.

    Attributes:
        sessions: Sessions ordered by arrival time.
        horizon: Observation window length.
    """

    sessions: "Tuple[SessionSpec, ...]"
    horizon: float

    def __len__(self) -> int:
        return len(self.sessions)

    def fingerprint(self) -> str:
        """A canonical sha256 of the whole workload.

        Every field of every session enters the digest through
        ``repr`` (shortest-roundtrip float formatting, stable across
        processes and platforms for IEEE doubles), so two workloads
        share a fingerprint exactly when they are byte-identical —
        the cross-process determinism tests compare these.
        """
        digest = hashlib.sha256()
        digest.update(repr(self.horizon).encode("ascii"))
        for session in self.sessions:
            row = (session.session_id, session.user,
                   session.service_class.value, session.arrival,
                   session.duration, session.cpu_floor, session.cpu_best,
                   session.memory_mb, session.bandwidth_mbps,
                   session.accept_degradation, session.accept_termination,
                   session.accept_promotion)
            digest.update(repr(row).encode("ascii"))
        return digest.hexdigest()

    def offered_cpu_load(self, capacity: float) -> float:
        """Offered load ``ρ``: mean CPU-demand-time per unit capacity."""
        if capacity <= 0 or self.horizon <= 0:
            return 0.0
        work = sum(s.mean_cpu * min(s.duration, self.horizon - s.arrival)
                   for s in self.sessions if s.arrival < self.horizon)
        return work / (capacity * self.horizon)
