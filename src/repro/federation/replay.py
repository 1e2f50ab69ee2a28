"""Multi-domain atlas replay: one workload, N failure domains.

:func:`replay_federated` drives a compiled atlas scenario through a
:class:`~repro.federation.plane.FederatedControlPlane` instead of a
single testbed. The workload compiles from the same seed as the
single-domain replay (identical sessions, arrivals and durations);
sessions are assigned home domains round-robin, admitted through the
plane's batched path per PR-6 epoch, and every scenario failure track
lands on one domain's machine (track index modulo domain count) — so a
rack cascade that would hollow out a single-domain deployment only
degrades one failure domain here, and the federation's job is to
reroute around it.

A broker crash can be injected on top (``crash_domain``/``crash_at``)
with a scheduled rejoin, which is the satellite scenario the atlas
regression pins: three domains, one crashed broker, byte-identical
reports per ``(scenario, seed, domains, crash)``, and guaranteed-class
availability in the *surviving* domains read from each domain's PR-8
SLO engine.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
import math
from typing import Dict, List, Optional

from ..errors import GQoSMError
from ..qos.classes import ServiceClass
from ..sim.random import RandomSource
from ..workloads.replay import (batch_schedule, request_for_session,
                                schedule_failure_track)
from ..workloads.scenarios import CompiledScenario, ScenarioSpec
from .plane import FederatedControlPlane, FederatedOutcome

__all__ = [
    "FederatedReplayResult",
    "replay_federated",
]

_CLASS_KEYS = ((ServiceClass.GUARANTEED, "guaranteed"),
               (ServiceClass.CONTROLLED_LOAD, "controlled"),
               (ServiceClass.BEST_EFFORT, "best_effort"))


@dataclass
class FederatedReplayResult:
    """One federated replay: canonical report plus the live plane."""

    report: "Dict[str, object]"
    plane: FederatedControlPlane
    compiled: CompiledScenario
    outcomes: "List[FederatedOutcome]"

    def report_json(self) -> str:
        """Canonical JSON (sorted keys — byte-stable per
        (scenario, seed, domains, crash schedule))."""
        return json.dumps(self.report, sort_keys=True,
                          separators=(",", ":"))

    def surviving_guaranteed_availability(self) -> float:
        """Worst guaranteed-class availability across domains that
        were up at the end of the run."""
        values = [entry["slo_guaranteed_availability"]
                  for name, entry in self.report["per_domain"].items()
                  if name not in self.report["crashed_at_end"]]
        return min(values) if values else 1.0


def replay_federated(spec: "ScenarioSpec | str", *, domains: int = 3,
                     seed: int = 0, batch_window: float = 5.0,
                     sample_interval: float = 5.0,
                     heartbeat_interval: float = 5.0,
                     crash_domain: Optional[str] = None,
                     crash_at: Optional[float] = None,
                     recover_at: Optional[float] = None
                     ) -> FederatedReplayResult:
    """Replay one scenario across ``domains`` failure domains.

    Args:
        spec: A :class:`ScenarioSpec` or registered scenario name.
        seed: Drives workload compilation and every domain's streams —
            the compiled workload is identical to the single-domain
            replay's at the same seed.
        crash_domain: When set, that broker is crashed at ``crash_at``
            (default 30% of the horizon) and rejoined at ``recover_at``
            (default 60%; pass ``float('inf')`` to never rejoin).
    """
    if isinstance(spec, str):
        from ..workloads.atlas import get_scenario
        spec = get_scenario(spec)
    compiled = spec.compile(RandomSource(seed))
    guaranteed, adaptive, best_effort, minimum = spec.partition
    total = guaranteed + adaptive + best_effort
    plane = FederatedControlPlane(
        domains=domains, seed=seed,
        heartbeat_interval=heartbeat_interval,
        testbed_defaults={
            "total_cpu": total, "guaranteed_cpu": guaranteed,
            "adaptive_cpu": adaptive, "best_effort_cpu": best_effort,
            "best_effort_min": minimum,
            "machine_nodes": max(64, 2 * total),
        })
    names = plane.names
    sim = plane.sim
    horizon = spec.horizon

    if crash_domain is not None:
        crash_time = (crash_at if crash_at is not None
                      else round(0.3 * horizon, 6))
        rejoin_time = (recover_at if recover_at is not None
                       else round(0.6 * horizon, 6))
        plane.crash_broker(crash_domain, at=crash_time)
        if not math.isinf(rejoin_time):
            plane.recover_broker(crash_domain, at=rejoin_time)
    else:
        crash_time = rejoin_time = None

    for name in names:
        plane.domains[name].testbed.broker.verifier.start_polling(
            sample_interval)
    plane.start_heartbeats(until=horizon)

    # Failure tracks land on one domain each: track k hits the machine
    # of domain k mod N.
    for index, track in enumerate(spec.failures):
        schedule_failure_track(
            sim, plane.domains[names[index % len(names)]].testbed.machine,
            track, "fed")

    # Round-robin home assignment by position in the compiled session
    # order (deterministic; batches reference the same objects).
    home_of = {id(session): names[index % len(names)]
               for index, session in
               enumerate(compiled.workload.sessions)}

    outcomes: "List[FederatedOutcome]" = []
    requested = {cls: 0 for cls, _ in _CLASS_KEYS}
    accepted = dict(requested)
    abandoned = [0]

    def admit(batch) -> None:
        admit_at = sim.now
        requests = [request_for_session(session, admit_at)
                    for session in batch]
        homes = [home_of[id(session)] for session in batch]
        try:
            results = plane.request_services(requests, homes=homes)
        except GQoSMError:
            # A batch-level fault: fall back to one admission per
            # session so a single bad request cannot abandon an epoch.
            results = []
            for request, home in zip(requests, homes):
                try:
                    results.append(plane.request_service(request,
                                                         home=home))
                except GQoSMError:
                    abandoned[0] += 1
        outcomes.extend(results)
        for session, outcome in zip(batch, results):
            requested[session.service_class] += 1
            if outcome is not None and outcome.accepted:
                accepted[session.service_class] += 1

    batches = batch_schedule(compiled, batch_window)
    for admit_at, batch in batches:
        sim.schedule_at(admit_at, functools.partial(admit, list(batch)),
                        label=f"fed:admit:{admit_at:g}")

    def sample() -> None:
        for name in names:
            testbed = plane.domains[name].testbed
            if testbed.slo is not None:
                testbed.slo.evaluate(sim.now)
        if sim.now + sample_interval <= horizon + 1e-9:
            sim.schedule(sample_interval, sample, label="fed:sample")

    sim.schedule(sample_interval, sample, label="fed:sample")
    sim.run(until=horizon)

    for name in names:
        testbed = plane.domains[name].testbed
        testbed.broker.verifier.stop_polling()
        if name not in plane.chaos.crashed and testbed.gateway is not None:
            testbed.gateway.sweep_stale(0.0)
        if testbed.slo is not None:
            testbed.slo.evaluate(sim.now)

    report = _build_report(plane, compiled, spec, domains=domains,
                           batch_window=batch_window,
                           batches=len(batches), requested=requested,
                           accepted=accepted, abandoned=abandoned[0],
                           crash_domain=crash_domain,
                           crash_time=crash_time,
                           rejoin_time=rejoin_time)
    return FederatedReplayResult(report=report, plane=plane,
                                 compiled=compiled, outcomes=outcomes)


def _domain_entry(plane: FederatedControlPlane,
                  name: str) -> "Dict[str, object]":
    testbed = plane.domains[name].testbed
    slo = testbed.slo
    snapshot = slo.snapshot(testbed.sim.now) if slo is not None else {}
    guaranteed = snapshot.get(ServiceClass.GUARANTEED.value, {})
    partition = testbed.partition
    return {
        "live_slas": len(testbed.repository.live()),
        "total_slas": len(testbed.repository.all()),
        "terminated": testbed.broker.stats.terminated,
        "violations_detected": testbed.broker.metrics.counter_value(
            "repro_sla_violations_detected_total"),
        "committed": round(partition.committed_total(), 9),
        "failed_capacity": round(partition.failed, 9),
        "slo_guaranteed_availability": round(
            float(guaranteed.get("availability", 1.0)), 9),
        "slo_guaranteed_bad_time": round(
            float(guaranteed.get("bad_time", 0.0)), 9),
        "incoming_delegations": len(plane.domains[name].incoming),
    }


def _build_report(plane: FederatedControlPlane,
                  compiled: CompiledScenario, spec: ScenarioSpec, *,
                  domains: int, batch_window: float, batches: int,
                  requested, accepted, abandoned: int,
                  crash_domain: Optional[str],
                  crash_time: Optional[float],
                  rejoin_time: Optional[float]) -> "Dict[str, object]":
    report: "Dict[str, object]" = {
        "scenario": spec.name,
        "family": spec.family,
        "seed": compiled.seed,
        "domains": domains,
        "horizon": spec.horizon,
        "partition_per_domain": list(spec.partition),
        "sessions": len(compiled.workload),
        "workload_fingerprint": compiled.workload.fingerprint(),
        "batch_window": batch_window,
        "batches": batches,
        "abandoned": abandoned,
        "crash": (None if crash_domain is None else {
            "domain": crash_domain,
            "at": crash_time,
            "recover_at": (None if math.isinf(rejoin_time)
                           else rejoin_time),
        }),
        "crashed_at_end": plane.chaos.crashed,
        "crash_events": len(plane.crashes),
        "federation": {key: plane.stats[key]
                       for key in sorted(plane.stats)},
        "reroute_events": len(plane.reroutes),
        "per_domain": {name: _domain_entry(plane, name)
                       for name in plane.names},
    }
    for service_class, key in _CLASS_KEYS:
        report[f"{key}_requests"] = requested[service_class]
        report[f"{key}_accepted"] = accepted[service_class]
    return report
