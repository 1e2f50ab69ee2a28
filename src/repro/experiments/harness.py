"""Drive synthetic workloads through policies and through the broker.

Two execution paths, matched so their headline metrics are comparable:

* :func:`run_policy_workload` — the fast path: drive the workload's
  arrival/departure/failure events directly against an
  :class:`~repro.baselines.base.AllocatorPolicy`. Used for the load
  sweeps (X1) where dozens of (policy, load) points are needed.
* :func:`run_broker_workload` — the full-stack path: issue real
  :class:`~repro.sla.negotiation.ServiceRequest` objects against a
  wired testbed, exercising discovery, negotiation, GARA, monitoring
  and the scenario handlers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..baselines.base import AllocatorPolicy
from ..qos.classes import ServiceClass
from ..telemetry.metrics import TimeWeightedGauge
from ..workloads.replay import request_for_session
from ..workloads.sessions import SessionSpec, Workload

_EPSILON = 1e-9

#: Sampling period of :func:`run_broker_workload` (simulation time).
_SAMPLE_INTERVAL = 5.0

#: Revenue-rate multipliers per class (mirrors the default pricing
#: policy's class multipliers; absolute scale is arbitrary).
CLASS_RATES: "Dict[ServiceClass, float]" = {
    ServiceClass.GUARANTEED: 1.5,
    ServiceClass.CONTROLLED_LOAD: 1.0,
    ServiceClass.BEST_EFFORT: 0.25,
}


@dataclass
class PolicyRunResult:
    """Headline metrics of one (policy, workload) run."""

    policy_name: str
    offered_load: float
    guaranteed_requests: int = 0
    guaranteed_accepted: int = 0
    controlled_requests: int = 0
    controlled_accepted: int = 0
    best_effort_requests: int = 0
    best_effort_accepted: int = 0
    mean_utilization: float = 0.0
    violation_time_fraction: float = 0.0
    violation_user_time: float = 0.0
    best_effort_cpu_time: float = 0.0
    revenue: float = 0.0

    @property
    def guaranteed_acceptance(self) -> float:
        """Acceptance rate of guaranteed requests (1.0 when none)."""
        if self.guaranteed_requests == 0:
            return 1.0
        return self.guaranteed_accepted / self.guaranteed_requests

    @property
    def controlled_acceptance(self) -> float:
        """Acceptance rate of controlled-load requests."""
        if self.controlled_requests == 0:
            return 1.0
        return self.controlled_accepted / self.controlled_requests


def _window(start: float, end: float, *signals: str
            ) -> "Dict[str, TimeWeightedGauge]":
    """One time-weighted gauge per signal over ``[start, end]``, each
    opened at ``start`` with 0.0, so a signal first observed later is
    zero-filled up to then. A read integrates the tail up to ``end``."""
    window = {name: TimeWeightedGauge(lambda: end) for name in signals}
    for gauge in window.values():
        gauge.set_at(start, 0.0)
    return window


def _observe(window: "Dict[str, TimeWeightedGauge]", time: float,
             **signals: float) -> None:
    """Step every gauge of the window to ``time``; the named signals
    take their new values, the others hold theirs."""
    for name, gauge in window.items():
        gauge.set_at(time, signals.get(name, gauge.value))


def run_policy_workload(policy: AllocatorPolicy, workload: Workload, *,
                        failures: Sequence["Tuple[float, float]"] = ()
                        ) -> PolicyRunResult:
    """Replay a workload against an allocation policy.

    Args:
        policy: The policy under test (fresh instance).
        workload: The synthetic workload.
        failures: ``(time, delta)`` capacity events — negative deltas
            fail capacity, positive deltas repair it.
    """
    result = PolicyRunResult(
        policy_name=policy.name,
        offered_load=workload.offered_cpu_load(policy.total_capacity()))
    window = _window(0.0, workload.horizon, "utilization", "violation",
                     "shortfall_users", "best_effort_served",
                     "revenue_rate")

    # Event list: (time, order, kind, payload). Departures before
    # arrivals at the same instant, failures first of all.
    events: List[Tuple[float, int, str, object]] = []
    for time, delta in failures:
        events.append((time, 0, "capacity", delta))
    for session in workload.sessions:
        events.append((session.arrival, 2, "arrive", session))
        events.append((min(session.end, workload.horizon), 1, "depart",
                       session))
    events.sort(key=lambda item: (item[0], item[1]))

    active: Dict[str, SessionSpec] = {}
    admitted: Dict[str, bool] = {}

    def observe(time: float) -> None:
        shortfall_users = 0
        shortfall_total = 0.0
        revenue_rate = 0.0
        best_effort_served = 0.0
        for user, session in active.items():
            served = policy.served(user)
            rate = CLASS_RATES[session.service_class]
            revenue_rate += served * rate
            if session.service_class is ServiceClass.BEST_EFFORT:
                best_effort_served += served
            else:
                entitled = min(session.cpu_best, session.cpu_floor)
                if served < entitled - _EPSILON:
                    shortfall_users += 1
                    shortfall_total += entitled - served
        _observe(
            window, time,
            utilization=policy.utilization(),
            violation=1.0 if shortfall_total > _EPSILON else 0.0,
            shortfall_users=float(shortfall_users),
            best_effort_served=best_effort_served,
            revenue_rate=revenue_rate)

    for time, _order, kind, payload in events:
        if time > workload.horizon:
            break
        if kind == "capacity":
            delta = float(payload)  # type: ignore[arg-type]
            if delta < 0:
                policy.apply_failure(-delta)
            else:
                policy.apply_repair(delta)
        elif kind == "arrive":
            session = payload  # type: ignore[assignment]
            assert isinstance(session, SessionSpec)
            user = session.user
            if session.service_class is ServiceClass.BEST_EFFORT:
                result.best_effort_requests += 1
                policy.set_best_effort_demand(user, session.cpu_best)
                active[user] = session
                admitted[user] = True
                if policy.served(user) >= session.cpu_best - _EPSILON:
                    result.best_effort_accepted += 1
            else:
                if session.service_class is ServiceClass.GUARANTEED:
                    result.guaranteed_requests += 1
                else:
                    result.controlled_requests += 1
                if policy.admit_guaranteed(user, session.cpu_floor):
                    policy.set_guaranteed_demand(user, session.cpu_best)
                    active[user] = session
                    admitted[user] = True
                    if session.service_class is ServiceClass.GUARANTEED:
                        result.guaranteed_accepted += 1
                    else:
                        result.controlled_accepted += 1
        elif kind == "depart":
            session = payload  # type: ignore[assignment]
            assert isinstance(session, SessionSpec)
            user = session.user
            if not admitted.pop(user, False):
                continue
            active.pop(user, None)
            if session.service_class is ServiceClass.BEST_EFFORT:
                policy.set_best_effort_demand(user, 0.0)
            else:
                policy.remove_guaranteed(user)
        observe(time)

    result.mean_utilization = window["utilization"].mean()
    result.violation_time_fraction = window["violation"].mean()
    result.violation_user_time = window["shortfall_users"].integral()
    result.best_effort_cpu_time = window["best_effort_served"].integral()
    result.revenue = window["revenue_rate"].integral()
    return result


# ----------------------------------------------------------------------
# Full-stack path
# ----------------------------------------------------------------------


def run_broker_workload(testbed, workload: Workload) -> PolicyRunResult:
    """Replay a workload through a full testbed broker.

    Requests are scheduled at their arrival times on the testbed's
    simulator; a sampler integrates utilization and violation signals
    every :data:`_SAMPLE_INTERVAL`; revenue comes from the broker's real
    accounting ledger.
    """
    broker = testbed.broker
    sim = testbed.sim
    result = PolicyRunResult(
        policy_name="broker",
        offered_load=workload.offered_cpu_load(testbed.partition.total))
    window = _window(sim.now, workload.horizon, "utilization",
                     "violation", "best_effort_served")

    def issue(session: SessionSpec) -> None:
        outcome = broker.request_service(
            request_for_session(session, session.arrival))
        if session.service_class is ServiceClass.BEST_EFFORT:
            result.best_effort_requests += 1
            if outcome.accepted:
                result.best_effort_accepted += 1
        elif session.service_class is ServiceClass.GUARANTEED:
            result.guaranteed_requests += 1
            if outcome.accepted:
                result.guaranteed_accepted += 1
        else:
            result.controlled_requests += 1
            if outcome.accepted:
                result.controlled_accepted += 1

    for session in workload.sessions:
        sim.schedule_at(session.arrival,
                        lambda s=session: issue(s),
                        label=f"workload:arrive:{session.session_id}")

    def sample() -> None:
        report = testbed.partition.last_report
        shortfall = (sum(report.shortfalls.values())
                     if report is not None else 0.0)
        _observe(
            window, sim.now,
            utilization=testbed.partition.utilization(),
            violation=1.0 if shortfall > _EPSILON else 0.0,
            best_effort_served=testbed.partition.best_effort_served())
        sim.schedule(_SAMPLE_INTERVAL, sample, label="workload:sample")

    sim.schedule(_SAMPLE_INTERVAL, sample, label="workload:sample")
    sim.run(until=workload.horizon)
    result.mean_utilization = window["utilization"].mean()
    result.violation_time_fraction = window["violation"].mean()
    result.best_effort_cpu_time = window["best_effort_served"].integral()
    result.revenue = broker.ledger.provider_net(sim.now)
    return result
