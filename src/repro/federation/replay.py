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

:func:`federate` is ``repro federate``: the replay with a seed-drawn
broker crashed, and :func:`federated_verdict`, which renders it and
runs the command's three checks: no guaranteed-class violation in a
surviving domain, every rerouted admission explained by the per-domain
decision provenance (the ``repro obs why`` join), and the federation
invariants intact.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import FederationError, GQoSMError, SLAError
from ..obs.flight import FlightRecorder
from ..qos.classes import ServiceClass
from ..sim.random import RandomSource
from ..workloads.replay import (SAMPLE_INTERVAL, batch_schedule,
                                request_for_session, schedule_failure_track)
from ..workloads.scenarios import CompiledScenario, ScenarioSpec
from .plane import FederatedControlPlane, FederatedOutcome
from .recovery import federation_invariants

__all__ = [
    "FederatedReplayResult",
    "FederatedVerdict",
    "federate",
    "federated_verdict",
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


def replay_federated(spec: "ScenarioSpec | str", *, domains: int = 3,
                     seed: int = 0, batch_window: float = 5.0,
                     heartbeat_interval: float = 5.0,
                     crash_domain: Optional[str] = None
                     ) -> FederatedReplayResult:
    """Replay one scenario across ``domains`` failure domains.

    Args:
        spec: A :class:`ScenarioSpec` or registered scenario name.
        seed: Drives workload compilation and every domain's streams —
            the compiled workload is identical to the single-domain
            replay's at the same seed.
        crash_domain: When set, that broker is crashed at 30% of the
            horizon and rejoined at 60%.

    Verifier polling and SLO evaluation run every
    :data:`~repro.workloads.replay.SAMPLE_INTERVAL`, as in the
    single-domain replay.
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
        crash_time = round(0.3 * horizon, 6)
        rejoin_time = round(0.6 * horizon, 6)
        plane.crash_broker(crash_domain, at=crash_time)
        plane.recover_broker(crash_domain, at=rejoin_time)
    else:
        crash_time = rejoin_time = None

    for name in names:
        plane.domains[name].testbed.broker.verifier.start_polling(
            SAMPLE_INTERVAL)
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
        if sim.now + SAMPLE_INTERVAL <= horizon + 1e-9:
            sim.schedule(SAMPLE_INTERVAL, sample, label="fed:sample")

    sim.schedule(SAMPLE_INTERVAL, sample, label="fed:sample")
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
            "recover_at": rejoin_time,
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


@dataclass(frozen=True)
class FederatedVerdict:
    """The ``repro federate`` report and the three checks it renders."""

    text: str
    problems: "Tuple[str, ...]"
    surviving_guaranteed_violations: int
    unexplained_reroutes: "Tuple[str, ...]"

    @property
    def ok(self) -> bool:
        """Whether all three checks passed."""
        return not (self.problems or self.surviving_guaranteed_violations
                    or self.unexplained_reroutes)


def federate(scenario: str, *, domains: int, seed: int
             ) -> "Tuple[FederatedReplayResult, FederatedVerdict]":
    """Replay ``scenario`` across ``domains`` domains at ``seed``, with
    the broker that ``seed`` draws crashed at the replay's default
    times, and judge the run."""
    if domains < 1:
        raise FederationError(f"need at least one domain: {domains}")
    names = [f"d{index + 1}" for index in range(domains)]
    crash_domain = RandomSource(seed).stream("crash").choice(names)
    result = replay_federated(scenario, domains=domains, seed=seed,
                              crash_domain=crash_domain)
    return result, federated_verdict(result)


def federated_verdict(result: FederatedReplayResult) -> FederatedVerdict:
    """Render one federated replay and check it.

    Guaranteed-class violations are the distinct guaranteed SLAs with a
    ``violation`` record in a domain's decision log; a reroute is
    explained when some domain's log carries its ``federation reroute``
    verdict.
    """
    plane, report = result.plane, result.report
    crash = report["crash"]
    crash_domain = crash["domain"] if crash is not None else None
    violating = {name: _guaranteed_violations(plane, name)
                 for name in plane.names}
    surviving = sum(count for name, count in violating.items()
                    if name != crash_domain)
    problems = tuple(federation_invariants(plane))
    rerouted = [outcome for outcome in result.outcomes if outcome.rerouted]
    explained: "Dict[str, str]" = {}
    unexplained: "List[str]" = []
    for outcome in rerouted:
        client = outcome.request.client
        if client in explained or client in unexplained:
            continue
        text = _explain_reroute(plane, client)
        if text is None:
            unexplained.append(client)
        else:
            explained[client] = text

    stats = report["federation"]
    lines = [f"# repro federate — {report['scenario']} seed "
             f"{report['seed']}, {report['domains']} domains, horizon "
             f"{report['horizon']:g}"]
    if crash is None:
        lines.append("crash: none")
    else:
        lines.append(f"crash: {crash_domain} down at t={crash['at']:g}, "
                     f"rejoined at t={crash['recover_at']:g}")
    lines += ["", "## outcomes",
              f"sessions={report['sessions']} batches={report['batches']} "
              f"abandoned={report['abandoned']}",
              f"requests={stats['requests']} local={stats['local']} "
              f"delegated={stats['delegated']} "
              f"rerouted={stats['rerouted']} rejected={stats['rejected']}",
              "accepted: " + " ".join(
                  f"{key}={report[key + '_accepted']}/"
                  f"{report[key + '_requests']}"
                  for _, key in _CLASS_KEYS),
              f"heartbeat rounds: {stats['heartbeat_rounds']}; "
              f"reconciled cancellations: "
              f"{stats['reconciled_cancellations']}",
              "", "## per-domain"]
    for name, entry in report["per_domain"].items():
        tag = " (crashed during the run)" if name == crash_domain else ""
        lines.append(
            f"{name}{tag}: live={entry['live_slas']} "
            f"total={entry['total_slas']} "
            f"guaranteed_violations={violating[name]} "
            f"guaranteed_availability="
            f"{entry['slo_guaranteed_availability']:g}")
    lines += ["", f"## rerouted admissions ({len(rerouted)})"]
    for outcome in rerouted:
        landing = outcome.domain if outcome.accepted else "nowhere"
        lines.append(f"- {outcome.request.client}: home {outcome.home} "
                     f"-> {landing}"
                     f"{' (delegated)' if outcome.delegated else ''}")
    for client in sorted(explained):
        lines += ["", explained[client].rstrip()]
    if unexplained:
        lines.append(f"UNEXPLAINED reroutes: {sorted(unexplained)}")
    lines += ["", "## verdict",
              f"federation invariants: "
              f"{'OK' if not problems else 'VIOLATED'} "
              f"({len(problems)} problem(s))"]
    lines += [f"   - {problem}" for problem in problems]
    lines.append(f"guaranteed violations in surviving domains: "
                 f"{surviving}")
    return FederatedVerdict(
        text="\n".join(lines) + "\n", problems=problems,
        surviving_guaranteed_violations=surviving,
        unexplained_reroutes=tuple(unexplained))


def _guaranteed_violations(plane: FederatedControlPlane, name: str) -> int:
    """Distinct guaranteed SLAs the domain's decision log saw violate."""
    testbed = plane.domains[name].testbed
    violating = set()
    for record in testbed.decisions.by_action("violation"):
        try:
            sla = testbed.repository.get(record.sla_id)
        except SLAError:
            continue
        if sla.service_class is ServiceClass.GUARANTEED:
            violating.add(record.sla_id)
    return len(violating)


def _explain_reroute(plane: FederatedControlPlane,
                     client: str) -> "str | None":
    """The ``repro obs why`` story for one rerouted client, from the
    domain whose decision log carries the federation verdicts."""
    for name in plane.names:
        testbed = plane.domains[name].testbed
        decisions = testbed.decisions
        if not any(record.action == "federation"
                   and record.outcome == "reroute"
                   for record in decisions.for_subject(client)):
            continue
        recorder = FlightRecorder(decisions=decisions,
                                  journal=testbed.journal,
                                  slo=testbed.slo)
        return f"[decision log of {name}]\n" + recorder.why(client)
    return None
