"""Atlas replay: drive a compiled scenario through the full testbed.

The harness is the atlas's measurement instrument *and* its QoS safety
net. One :func:`replay_scenario` call:

* builds a testbed sized to the scenario's partition and compiles the
  scenario from one seed;
* admits sessions through the PR-6 **batched admission pipeline**
  (:meth:`~repro.core.broker.AQoSBroker.request_services`): arrivals
  are coalesced per ``batch_window`` epoch and admitted together at
  the epoch boundary (one deferred rebalance + one WAL group-commit
  per epoch);
* schedules every failure track with **domain-scoped repairs** — a
  rack's repair brings back exactly the nodes that rack lost, so
  overlapping tracks stay independent;
* collects the PR-4 time-weighted telemetry: Cg/Ca/Cb occupancy from
  the capacity gauges, SLA violations/restorations from the verifier
  counters, §5.3 revenue from the accounting ledger;
* audits the partition facts of :mod:`repro.invariants` at every
  sample checkpoint and the slot table once at the end.

The result's :meth:`ReplayResult.report_json` is canonical (sorted
keys, shortest-roundtrip floats): two replays of the same scenario and
seed are byte-identical, which is exactly what the per-scenario
regression suite pins.

Under chaos (``chaos_seed``), admission falls back to the sequential
per-request path with per-session exception capture — a dropped or
errored control message may abandon one session, never a whole batch.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.testbed import (Testbed, build_testbed, install_chaos,
                            install_observability)
from ..errors import GQoSMError, ValidationError
from ..invariants import PARTITION_FACTS, check, slot_overcommit
from ..qos.classes import ServiceClass
from ..qos.parameters import Dimension, exact_parameter, range_parameter
from ..qos.specification import QoSSpecification
from ..sim.random import RandomSource
from ..sla.document import AdaptationOptions
from ..sla.negotiation import ServiceRequest
from .scenarios import CompiledScenario, ScenarioSpec
from .sessions import SessionSpec

__all__ = [
    "ReplayResult",
    "check_invariants",
    "replay_scenario",
]

_EPSILON = 1e-9

#: Cadence of verifier polling, invariant checkpoints and SLO
#: evaluation in a replay (simulation time).
SAMPLE_INTERVAL = 5.0

#: Occupancy gauge pools in partition order (Cg, Ca, Cb).
_POOLS = ("g", "a", "b")

#: Service class -> pool key, for per-class violation attribution.
_CLASS_POOL = {ServiceClass.GUARANTEED: "g",
               ServiceClass.CONTROLLED_LOAD: "a",
               ServiceClass.BEST_EFFORT: "b"}


@dataclass
class ReplayResult:
    """One scenario replay: the golden-metric report plus the live
    testbed (for invariant helpers that need direct state access)."""

    report: "Dict[str, object]"
    testbed: Testbed
    compiled: CompiledScenario

    def report_json(self) -> str:
        """Canonical JSON of the report (sorted keys — byte-stable
        per (scenario, seed))."""
        return json.dumps(self.report, sort_keys=True,
                          separators=(",", ":"))


@dataclass
class _Checkpoints:
    """Capacity-invariant audit counters filled at sample ticks."""

    checks: int = 0
    breaches: "List[str]" = field(default_factory=list)

    def audit(self, testbed: Testbed) -> None:
        now = testbed.sim.now
        self.checks += 1
        self.breaches += [f"t={now:g}: {problem}"
                          for fact in PARTITION_FACTS
                          for problem in fact(testbed)]


def request_for_session(session: SessionSpec,
                        admit_at: float) -> ServiceRequest:
    """The broker request for one session, admitted at ``admit_at``.

    The batched pipeline admits whole epochs at their boundary, so the
    reservation window starts at the admission instant (not the raw
    arrival) and keeps the session's full duration.
    """
    parameters = []
    if session.service_class is ServiceClass.CONTROLLED_LOAD \
            and session.cpu_best > session.cpu_floor:
        parameters.append(range_parameter(Dimension.CPU,
                                          session.cpu_floor,
                                          session.cpu_best))
    else:
        parameters.append(exact_parameter(Dimension.CPU,
                                          session.cpu_best))
    if session.memory_mb > 0:
        parameters.append(exact_parameter(Dimension.MEMORY_MB,
                                          session.memory_mb))
    return ServiceRequest(
        client=session.user,
        service_name="simulation-service",
        service_class=session.service_class,
        specification=QoSSpecification.from_iterable(parameters),
        start=admit_at,
        end=admit_at + session.duration,
        adaptation=AdaptationOptions(
            accept_degradation=session.accept_degradation,
            accept_termination=session.accept_termination,
            accept_promotion=session.accept_promotion),
    )


def batch_schedule(compiled: CompiledScenario, batch_window: float
                   ) -> "List[Tuple[float, List[SessionSpec]]]":
    """Group sessions into admission epochs.

    Sessions arriving inside ``[k·w, (k+1)·w)`` are admitted together
    at ``min((k+1)·w, horizon)`` — after every member has arrived, so
    the quantisation is causal.
    """
    if batch_window <= 0:
        raise ValidationError(
            f"batch_window must be positive: {batch_window}")
    horizon = compiled.workload.horizon
    epochs: "Dict[int, List[SessionSpec]]" = {}
    for session in compiled.workload.sessions:
        epochs.setdefault(int(session.arrival // batch_window),
                          []).append(session)
    return [(min((epoch + 1) * batch_window, horizon), epochs[epoch])
            for epoch in sorted(epochs)]


def replay_scenario(spec: "ScenarioSpec | str", *, seed: int = 0,
                    batch_window: float = 5.0,
                    chaos_seed: Optional[int] = None,
                    drop: float = 0.1, delay: float = 0.1,
                    duplicate: float = 0.0, error: float = 0.0,
                    reorder: float = 0.0,
                    with_journal: bool = False) -> ReplayResult:
    """Replay one scenario end to end; returns the metric report.

    Args:
        spec: A :class:`ScenarioSpec` or a registered scenario name.
        seed: Drives both the workload compilation and the testbed.
        batch_window: Admission epoch length for the batched pipeline.
        chaos_seed: When set, arms PR-3 fault injection on the bus
            (with the remaining keyword rates) and switches admission
            to the sequential fault-tolerant path.
        with_journal: Install an in-memory PR-5 journal so decision
            records carry real LSN stamps (``repro obs`` passes this;
            off by default because journaling is not part of the
            pinned regression profile).
    """
    if isinstance(spec, str):
        from .atlas import get_scenario
        spec = get_scenario(spec)
    compiled = spec.compile(RandomSource(seed))
    guaranteed, adaptive, best_effort, minimum = spec.partition
    total = guaranteed + adaptive + best_effort
    testbed = build_testbed(
        total_cpu=total, guaranteed_cpu=guaranteed,
        adaptive_cpu=adaptive, best_effort_cpu=best_effort,
        best_effort_min=minimum,
        machine_nodes=max(64, 2 * total), seed=seed)
    if chaos_seed is not None:
        install_chaos(testbed, chaos_seed, drop=drop, delay=delay,
                      duplicate=duplicate, error=error, reorder=reorder)
    decisions, slo = install_observability(testbed)
    telemetry = testbed.telemetry
    if with_journal:
        from ..recovery.recover import install_journal
        install_journal(testbed)
    broker = testbed.broker
    sim = testbed.sim
    broker.verifier.start_polling(SAMPLE_INTERVAL)

    # Per-class violation attribution: the verifier's counter is an
    # aggregate, but the atlas invariants distinguish a guaranteed
    # session breaking (never acceptable without failures) from a
    # controlled-load shortfall (the adaptation's normal trigger).
    violating_ids: "set" = set()

    def on_notice(notice) -> None:
        if notice.report is not None and not notice.report.conformant:
            violating_ids.add(notice.sla_id)

    broker.hub.subscribe(on_notice)

    for track in spec.failures:
        schedule_failure_track(sim, testbed.machine, track, "atlas")

    abandoned = 0
    accepted: "Dict[ServiceClass, int]" = {cls: 0 for cls in
                                           (ServiceClass.GUARANTEED,
                                            ServiceClass.CONTROLLED_LOAD,
                                            ServiceClass.BEST_EFFORT)}
    requested: "Dict[ServiceClass, int]" = dict(accepted)

    def admit(batch: "List[SessionSpec]") -> None:
        nonlocal abandoned
        admit_at = sim.now
        requests = [request_for_session(session, admit_at)
                    for session in batch]
        if chaos_seed is None:
            outcomes = broker.request_services(requests)
        else:
            # Sequential fault-tolerant path: a chaotic control plane
            # may abandon one session (circuit open, exhausted
            # retries); the rest of the epoch still admits.
            outcomes = []
            for request in requests:
                try:
                    outcomes.append(broker.request_service(request))
                except GQoSMError:
                    outcomes.append(None)
                    abandoned += 1
        for session, outcome in zip(batch, outcomes):
            requested[session.service_class] += 1
            if outcome is not None and outcome.accepted:
                accepted[session.service_class] += 1

    batches = batch_schedule(compiled, batch_window)
    for admit_at, batch in batches:
        sim.schedule_at(admit_at, functools.partial(admit, list(batch)),
                        label=f"atlas:admit:{admit_at:g}")

    checkpoints = _Checkpoints()

    def sample() -> None:
        checkpoints.audit(testbed)
        slo.evaluate(sim.now)
        if sim.now + SAMPLE_INTERVAL <= spec.horizon + _EPSILON:
            sim.schedule(SAMPLE_INTERVAL, sample, label="atlas:sample")

    sim.schedule(SAMPLE_INTERVAL, sample, label="atlas:sample")
    sim.run(until=spec.horizon)
    broker.verifier.stop_polling()
    if testbed.gateway is not None:
        testbed.gateway.sweep_stale(0.0)
    checkpoints.audit(testbed)
    slo.evaluate(sim.now)

    report = _build_report(testbed, compiled, telemetry,
                           batch_window=batch_window,
                           batches=len(batches), requested=requested,
                           accepted=accepted, abandoned=abandoned,
                           checkpoints=checkpoints,
                           chaos_seed=chaos_seed,
                           violating_ids=violating_ids,
                           decisions=decisions, slo=slo)
    return ReplayResult(report=report, testbed=testbed,
                        compiled=compiled)


def check_invariants(result: ReplayResult) -> "List[str]":
    """The per-family QoS invariants; returns violations (empty = ok).

    * the partition facts held at every checkpoint, and every fact of
      :func:`repro.invariants.check` holds at the end of the run;
    * degradation stayed confined to sessions that consented — an
      exact-demand session (every guaranteed session, and any
      controlled-load request without a range) may never be moved
      below its agreed point unless it opted into degradation;
    * no session was ever served below its negotiated floor;
    * absent injected failures and chaos: zero guaranteed-class
      violations (controlled-load shortfalls are the adaptation's
      normal trigger and are reported, not forbidden);
    * every shortfall cleared by the end of the run — no stranded
      guaranteed SLA after the repairs.
    """
    report = result.report
    spec = result.compiled.spec
    problems: "List[str]" = list(report["conservation_breaches"])
    problems += check(result.testbed)
    if report["degraded_without_consent"]:
        problems.append(
            f"{report['degraded_without_consent']} exact-demand "
            f"session(s) degraded without opting in")
    if report["degraded_below_floor"]:
        problems.append(
            f"{report['degraded_below_floor']} session(s) served below "
            f"the negotiated floor")
    if not spec.has_failures and report["chaos_seed"] is None:
        if report["guaranteed_violations"]:
            problems.append(
                f"{report['guaranteed_violations']} guaranteed-class "
                f"violation(s) with no injected failures")
    if report["final_shortfall"] > _EPSILON:
        problems.append(
            f"stranded shortfall {report['final_shortfall']:g} at the "
            f"end of the run")
    return problems


def schedule_failure_track(sim, machine, track, label_prefix: str) -> None:
    """Arm one failure track on ``machine`` with domain-scoped repairs:
    a repair brings back exactly the nodes this track took down."""
    downed: "List[int]" = []

    def fail(count: int) -> None:
        downed.extend(machine.fail_nodes(count))

    def repair(count: int) -> None:
        victims = downed[:count]
        del downed[:count]
        machine.repair_nodes(victims)

    for time, delta in track.events:
        if delta < 0:
            sim.schedule_at(time, functools.partial(fail, -delta),
                            label=f"{label_prefix}:fail:{track.domain}")
        else:
            sim.schedule_at(time, functools.partial(repair, delta),
                            label=f"{label_prefix}:repair:{track.domain}")


def _rejection_reasons(decisions) -> "List[List[object]]":
    """Top rejection reasons: ``[label, count]`` pairs, most frequent
    first (ties broken by label), over every admission-path reject."""
    counts: "Dict[str, int]" = {}
    for record in decisions.records:
        if record.action not in ("admission", "best_effort",
                                 "activation"):
            continue
        if record.outcome != "reject":
            continue
        label = (f"{record.constraint or 'unspecified'}: "
                 f"{record.reason or 'no reason recorded'}")
        counts[label] = counts.get(label, 0) + 1
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [[label, count] for label, count in ordered]


def _build_report(testbed: Testbed, compiled: CompiledScenario,
                  telemetry, *, batch_window: float, batches: int,
                  requested, accepted, abandoned: int,
                  checkpoints: _Checkpoints,
                  chaos_seed: Optional[int],
                  violating_ids: "set", decisions=None,
                  slo=None) -> "Dict[str, object]":
    spec = compiled.spec
    broker = testbed.broker
    partition = testbed.partition

    degraded = 0
    degraded_without_consent = 0
    degraded_below_floor = 0
    for sla in broker.repository.all():
        if sla.delivered_demand().cpu < sla.floor_demand().cpu - _EPSILON:
            degraded_below_floor += 1
        if sla.is_degraded():
            degraded += 1
            # A range request consents to delivery anywhere inside
            # [floor, best] by negotiation; an exact-demand session
            # must have opted in (flag or pre-agreed alternatives).
            has_range = (sla.floor_demand().cpu
                         < sla.agreed_demand().cpu - _EPSILON)
            if not (has_range or sla.adaptation.accept_degradation
                    or sla.adaptation.alternative_points):
                degraded_without_consent += 1

    violations_by_class = {cls: 0 for cls in _POOLS}
    for sla_id in violating_ids:
        sla = broker.repository.get(sla_id)
        violations_by_class[_CLASS_POOL[sla.service_class]] += 1

    report = partition.last_report
    final_shortfall = (sum(report.shortfalls.values())
                       if report is not None else 0.0)
    metrics = telemetry.metrics
    occupancy = {
        pool: round(metrics.time_gauge("repro_capacity_effective",
                                       pool=pool).mean(), 9)
        for pool in _POOLS
    }
    return {
        "scenario": spec.name,
        "family": spec.family,
        "seed": compiled.seed,
        "chaos_seed": chaos_seed,
        "horizon": spec.horizon,
        "partition": list(spec.partition),
        "sessions": len(compiled.workload),
        "offered_load": round(compiled.offered_load(), 9),
        "workload_fingerprint": compiled.workload.fingerprint(),
        "batch_window": batch_window,
        "batches": batches,
        "guaranteed_requests": requested[ServiceClass.GUARANTEED],
        "guaranteed_accepted": accepted[ServiceClass.GUARANTEED],
        "controlled_requests": requested[ServiceClass.CONTROLLED_LOAD],
        "controlled_accepted": accepted[ServiceClass.CONTROLLED_LOAD],
        "best_effort_requests": requested[ServiceClass.BEST_EFFORT],
        "best_effort_granted": accepted[ServiceClass.BEST_EFFORT],
        "abandoned": abandoned,
        "violations_detected": broker.metrics.counter_value(
            "repro_sla_violations_detected_total"),
        "guaranteed_violations": violations_by_class["g"],
        "controlled_violations": violations_by_class["a"],
        "best_effort_violations": violations_by_class["b"],
        "restorations": broker.metrics.counter_value(
            "repro_sla_restorations_total"),
        "degraded_sessions": degraded,
        "degraded_without_consent": degraded_without_consent,
        "degraded_below_floor": degraded_below_floor,
        "terminated_sessions": broker.stats.terminated,
        "checkpoints": checkpoints.checks,
        "conservation_breaches": list(checkpoints.breaches),
        "slot_table_overcommitted": bool(slot_overcommit(testbed)),
        "final_shortfall": round(final_shortfall, 9),
        "occupancy_mean": occupancy,
        "utilization_mean": round(
            metrics.time_gauge("repro_capacity_utilization").mean(), 9),
        "revenue": round(broker.ledger.provider_net(testbed.sim.now), 9),
        "rejection_reasons": (_rejection_reasons(decisions)
                              if decisions is not None else []),
        "slo": ({"classes": slo.snapshot(testbed.sim.now),
                 "alerts": len(slo.alerts)}
                if slo is not None else None),
    }
