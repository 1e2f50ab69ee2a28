"""Declarative scenario specs: tenants + arrivals + failures → workload.

A :class:`ScenarioSpec` is the atlas's unit of description: a named,
validated, declarative bundle of tenant traffic profiles and injected
failure tracks that *compiles* — via one seeded
:class:`~repro.sim.random.RandomSource` — into a concrete
:class:`~repro.workloads.sessions.Workload` plus a failure-event
timeline. Tenant profiles follow Patel & Bhavsar's framing (PAPERS.md):
the unit of evaluation is a user class with its own SLA shape — class
mix, demand ranges, adaptation options — not a single homogeneous
stream.

Compilation is deterministic and decorrelated per tenant: tenant
``t``'s draws come from the ``tenant:<name>`` substream, so adding a
tenant (or a failure track) never perturbs another tenant's sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..errors import ValidationError
from ..qos.classes import ServiceClass
from ..sim.random import RandomSource
from .sessions import SessionSpec, Workload

__all__ = [
    "FAMILIES",
    "CompiledScenario",
    "FailureTrack",
    "ScenarioSpec",
    "TenantProfile",
]

#: The scenario families the atlas recognises. A family names a
#: traffic/failure *shape*; every registered scenario belongs to one.
FAMILIES = (
    "diurnal",
    "flash_crowd",
    "heavy_tailed",
    "multi_tenant",
    "correlated_failure",
    "best_effort_flood",
)

_CLASSES = (ServiceClass.GUARANTEED, ServiceClass.CONTROLLED_LOAD,
            ServiceClass.BEST_EFFORT)


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's traffic profile and SLA shape.

    Attributes:
        name: Tenant name; prefixes every session user id.
        arrivals: Arrival process (any object with ``peak_rate``,
            ``rate_at`` and ``scaled`` — see
            :mod:`repro.workloads.arrivals`).
        durations: Duration model (``sample``/``mean``/``scaled`` —
            see :mod:`repro.workloads.durations`).
        class_mix: ``(guaranteed, controlled_load, best_effort)``
            weights for this tenant.
        guaranteed_cpu / controlled_cpu_floor / best_effort_cpu:
            ``(low, high)`` uniform integer demand ranges.
        controlled_stretch: Best-to-floor CPU ratio for
            controlled-load sessions.
        memory_mb: ``(low, high)`` uniform memory demand range.
        degradable_fraction / terminable_fraction /
        promotion_fraction: Adaptation-option probabilities — the
            tenant's SLA shape.
    """

    name: str
    arrivals: object
    durations: object
    class_mix: "Tuple[float, float, float]" = (0.3, 0.4, 0.3)
    guaranteed_cpu: "Tuple[int, int]" = (2, 8)
    controlled_cpu_floor: "Tuple[int, int]" = (1, 4)
    controlled_stretch: float = 2.0
    best_effort_cpu: "Tuple[int, int]" = (1, 6)
    memory_mb: "Tuple[int, int]" = (64, 512)
    degradable_fraction: float = 0.7
    terminable_fraction: float = 0.2
    promotion_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.name or "-" in self.name:
            raise ValidationError(
                f"tenant name must be non-empty and dash-free (dashes "
                f"separate the session counter): {self.name!r}")
        if len(self.class_mix) != 3 or min(self.class_mix) < 0 \
                or sum(self.class_mix) <= 0:
            raise ValidationError(f"bad class_mix: {self.class_mix}")
        for attribute in ("guaranteed_cpu", "controlled_cpu_floor",
                          "best_effort_cpu", "memory_mb"):
            low, high = getattr(self, attribute)
            if not 0 < low <= high:
                raise ValidationError(
                    f"bad {attribute} range: ({low}, {high})")
        if self.controlled_stretch < 1.0:
            raise ValidationError(
                f"controlled_stretch must be >= 1: "
                f"{self.controlled_stretch}")
        for attribute in ("degradable_fraction", "terminable_fraction",
                          "promotion_fraction"):
            value = getattr(self, attribute)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"{attribute} out of [0, 1]: {value}")

    def mean_cpu(self) -> float:
        """Class-mix-weighted mean CPU demand (offered-load scaling)."""
        weights = self.class_mix
        total = sum(weights)
        mean_g = sum(self.guaranteed_cpu) / 2.0
        floor_cl = sum(self.controlled_cpu_floor) / 2.0
        mean_cl = (floor_cl + floor_cl * self.controlled_stretch) / 2.0
        mean_be = sum(self.best_effort_cpu) / 2.0
        return (weights[0] * mean_g + weights[1] * mean_cl
                + weights[2] * mean_be) / total

    def scaled(self, *, time_factor: float = 1.0,
               rate_factor: float = 1.0) -> "TenantProfile":
        """A copy with time compressed and arrival rate rescaled."""
        return replace(
            self,
            arrivals=self.arrivals.scaled(time_factor=time_factor,
                                          rate_factor=rate_factor),
            durations=self.durations.scaled(time_factor=time_factor))


@dataclass(frozen=True)
class FailureTrack:
    """A domain-scoped (rack/switch) capacity-failure event track.

    Attributes:
        domain: The failure domain the events hit ("rack-a"); purely
            descriptive here — replay maps it to node counts on the
            testbed machine — but it keeps correlated episodes
            attributable in reports.
        events: ``(time, node_delta)`` pairs, sorted by time; negative
            deltas fail nodes, positive deltas repair them.
    """

    domain: str
    events: "Tuple[Tuple[float, int], ...]"

    def __post_init__(self) -> None:
        if not self.domain:
            raise ValidationError("failure domain must be non-empty")
        if not self.events:
            raise ValidationError(
                f"failure track {self.domain!r} has no events")
        times = [time for time, _delta in self.events]
        if times != sorted(times):
            raise ValidationError(
                f"failure track {self.domain!r} events out of order")
        down = 0
        for time, delta in self.events:
            if time < 0 or delta == 0:
                raise ValidationError(
                    f"bad failure event ({time}, {delta}) in "
                    f"{self.domain!r}")
            down -= delta
            if down < 0:
                raise ValidationError(
                    f"failure track {self.domain!r} repairs more nodes "
                    f"than it failed by t={time}")

    @classmethod
    def episode(cls, domain: str, *, start: float, duration: float,
                nodes: int) -> "FailureTrack":
        """One correlated outage: ``nodes`` down over
        ``[start, start + duration)``."""
        if duration <= 0 or nodes <= 0:
            raise ValidationError(
                f"episode needs positive duration and nodes: "
                f"({duration}, {nodes})")
        return cls(domain=domain,
                   events=((start, -nodes), (start + duration, nodes)))

    def scaled(self, *, time_factor: float = 1.0) -> "FailureTrack":
        """A copy with event times compressed by ``time_factor``."""
        if time_factor <= 0:
            raise ValidationError(
                f"time_factor must be positive: {time_factor}")
        return replace(self, events=tuple(
            (time * time_factor, delta) for time, delta in self.events))


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, declarative atlas scenario.

    Attributes:
        name: Unique registry key.
        family: One of :data:`FAMILIES`.
        description: One-line intent, surfaced in reports and docs.
        horizon: Observation window length.
        tenants: At least one tenant profile.
        failures: Domain-scoped failure tracks (empty = no injected
            failures, so the zero-violation invariant applies).
        partition: ``(Cg, Ca, Cb, best_effort_min)`` testbed split;
            defaults to the paper's 15/6/5 with a floor of 2.
    """

    name: str
    family: str
    description: str
    horizon: float
    tenants: "Tuple[TenantProfile, ...]"
    failures: "Tuple[FailureTrack, ...]" = ()
    partition: "Tuple[int, int, int, int]" = (15, 6, 5, 2)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("scenario name must be non-empty")
        if self.family not in FAMILIES:
            raise ValidationError(
                f"unknown family {self.family!r}; expected one of "
                f"{', '.join(FAMILIES)}")
        if self.horizon <= 0:
            raise ValidationError(
                f"horizon must be positive: {self.horizon}")
        if not self.tenants:
            raise ValidationError(
                f"scenario {self.name!r} needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValidationError(
                f"duplicate tenant names in {self.name!r}: {names}")
        guaranteed, adaptive, best_effort, minimum = self.partition
        if min(guaranteed, adaptive, best_effort) < 0 \
                or guaranteed + adaptive + best_effort <= 0:
            raise ValidationError(
                f"bad partition for {self.name!r}: {self.partition}")
        if not 0 <= minimum <= best_effort:
            raise ValidationError(
                f"best_effort_min {minimum} outside [0, {best_effort}]")
        for track in self.failures:
            last_time = track.events[-1][0]
            if last_time > self.horizon:
                raise ValidationError(
                    f"failure track {track.domain!r} runs past the "
                    f"horizon ({last_time} > {self.horizon})")

    @property
    def total_capacity(self) -> float:
        """Grid capacity ``Cg + Ca + Cb`` the scenario assumes."""
        return float(self.partition[0] + self.partition[1]
                     + self.partition[2])

    @property
    def has_failures(self) -> bool:
        """Whether any failure track injects capacity loss."""
        return bool(self.failures)

    def failure_events(self) -> "Tuple[Tuple[float, int], ...]":
        """All tracks merged, sorted; failures before repairs at the
        same instant (the conservative interleaving)."""
        merged: List[Tuple[float, int, str]] = []
        for track in self.failures:
            for time, delta in track.events:
                merged.append((time, delta, track.domain))
        merged.sort(key=lambda item: (item[0], 0 if item[1] < 0 else 1,
                                      item[2]))
        return tuple((time, delta) for time, delta, _domain in merged)

    def compile(self, rng: "RandomSource | int") -> "CompiledScenario":
        """Realise the scenario into sessions + failure timeline.

        Args:
            rng: A seeded source, or a bare seed.
        """
        if isinstance(rng, int):
            rng = RandomSource(rng)
        drawn: List[Tuple[float, int, SessionSpec]] = []
        for tenant_index, tenant in enumerate(self.tenants):
            tenant_rng = rng.stream(f"tenant:{tenant.name}")
            for session in _tenant_sessions(tenant, self.horizon,
                                            tenant_rng):
                drawn.append((session.arrival, tenant_index, session))
        drawn.sort(key=lambda item: (item[0], item[1],
                                     item[2].session_id))
        sessions = tuple(
            replace(session, session_id=index + 1)
            for index, (_arrival, _tenant, session) in enumerate(drawn))
        workload = Workload(sessions=sessions, horizon=self.horizon)
        return CompiledScenario(spec=self, workload=workload,
                                failure_events=self.failure_events(),
                                seed=rng.seed)

    def scaled(self, *, time_factor: float = 1.0,
               load_factor: Optional[float] = None) -> "ScenarioSpec":
        """A compressed copy for regression/smoke profiles.

        ``time_factor`` shrinks the horizon and every time structure
        (cycle periods, burst windows, durations, failure times).
        ``load_factor`` rescales arrival rates; it defaults to
        ``1 / time_factor``, which preserves the offered load exactly
        (session count is then also preserved — pass something smaller
        to actually cut session counts).
        """
        if load_factor is None:
            if time_factor <= 0:
                raise ValidationError(
                    f"time_factor must be positive: {time_factor}")
            load_factor = 1.0 / time_factor
        return replace(
            self,
            horizon=self.horizon * time_factor,
            tenants=tuple(tenant.scaled(time_factor=time_factor,
                                        rate_factor=load_factor)
                          for tenant in self.tenants),
            failures=tuple(track.scaled(time_factor=time_factor)
                           for track in self.failures))


@dataclass(frozen=True)
class CompiledScenario:
    """One seeded realisation of a :class:`ScenarioSpec`."""

    spec: ScenarioSpec
    workload: Workload
    failure_events: "Tuple[Tuple[float, int], ...]" = ()
    seed: int = 0

    def offered_load(self) -> float:
        """Offered CPU load against the scenario's own capacity."""
        return self.workload.offered_cpu_load(self.spec.total_capacity)


def _tenant_sessions(tenant: TenantProfile, horizon: float,
                     rng: RandomSource) -> List[SessionSpec]:
    """Draw one tenant's sessions (ids are per-tenant; the scenario
    renumbers after interleaving)."""
    from .arrivals import sample_arrivals

    arrival_rng = rng.stream("arrivals")
    class_rng = rng.stream("classes")
    duration_rng = rng.stream("durations")
    demand_rng = rng.stream("demands")
    option_rng = rng.stream("options")
    sessions: List[SessionSpec] = []
    for index, arrival in enumerate(
            sample_arrivals(tenant.arrivals, horizon, arrival_rng)):
        service_class = class_rng.weighted_choice(_CLASSES,
                                                  tenant.class_mix)
        duration = tenant.durations.sample(duration_rng)
        if service_class is ServiceClass.GUARANTEED:
            cpu = float(demand_rng.randint(*tenant.guaranteed_cpu))
            floor = best = cpu
        elif service_class is ServiceClass.CONTROLLED_LOAD:
            floor = float(demand_rng.randint(*tenant.controlled_cpu_floor))
            best = max(floor, round(floor * tenant.controlled_stretch))
        else:
            cpu = float(demand_rng.randint(*tenant.best_effort_cpu))
            floor = best = cpu
        sessions.append(SessionSpec(
            session_id=index + 1,
            user=f"{tenant.name}-{index + 1}",
            service_class=service_class,
            arrival=arrival,
            duration=duration,
            cpu_floor=floor,
            cpu_best=best,
            memory_mb=float(demand_rng.randint(*tenant.memory_mb)),
            accept_degradation=(
                service_class is ServiceClass.CONTROLLED_LOAD
                and option_rng.probability(tenant.degradable_fraction)),
            accept_termination=(
                service_class is not ServiceClass.BEST_EFFORT
                and option_rng.probability(tenant.terminable_fraction)),
            accept_promotion=(
                service_class is ServiceClass.CONTROLLED_LOAD
                and option_rng.probability(tenant.promotion_fraction)),
        ))
    return sessions
