"""The quickstart episode: one QoS session end to end.

``python -m repro quickstart`` builds the Figure 5 testbed (26 grid
nodes split Cg=15 / Ca=6 / Cb=5), admits a guaranteed request with a
network demand, runs an explicit conformance test (the Table 3 reply)
and prints the broker activity log (Figure 6). The same session runs
three other ways:

* ``--chaos SEED`` — over the message bus with seeded fault injection
  (drops, duplicates, delays, error replies, reordering) and a 3-node
  failure at t=30, repaired at t=60; prints the chaos accounting.
* ``--telemetry`` (``repro telemetry``) — over the bus with the
  telemetry hub, beside a degradable controlled-load session, through
  a §5.6-sized outage; prints span trees, metrics and the event stream.
  ``--chaos SEED`` overlays fault injection.
* ``--crash SEED`` — the scripted crash episode with the broker killed
  at a seed-chosen journal write point and recovered from the journal;
  ``--journal PATH`` also writes the journal for ``repro recover``.

Every report is a pure function of the seeds.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..core.gateway import ClientStub
from ..core.testbed import (Testbed, attach_control_plane, build_testbed,
                            install_chaos, install_telemetry)
from ..errors import CircuitOpenError
from ..invariants import check, conservation
from ..qos.classes import ServiceClass
from ..qos.parameters import Dimension, exact_parameter, range_parameter
from ..qos.specification import QoSSpecification
from ..recovery.crashpoints import (CRASH_MODES, count_write_points,
                                   run_episode)
from ..recovery.journal import FileJournalStore, encode_record
from ..sla.document import AdaptationOptions, NetworkDemand, ServiceSLA
from ..sla.negotiation import ServiceRequest
from ..units import parse_bound
from ..xmlmsg import codec

#: Snapshot cadence of the crash episode.
SNAPSHOT_INTERVAL = 20.0


def quickstart_request() -> ServiceRequest:
    """The quickstart walkthrough's service request (Table 1 shape)."""
    specification = QoSSpecification.of(
        exact_parameter(Dimension.CPU, 4),
        exact_parameter(Dimension.MEMORY_MB, 64),
    )
    return ServiceRequest(
        client="user1",
        service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED,
        specification=specification,
        start=0.0, end=100.0,
        network=NetworkDemand(
            source_ip="135.200.50.101", dest_ip="192.200.168.33",
            bandwidth_mbps=10.0,
            packet_loss_bound=parse_bound("LessThan 10%")),
    )


def degradable_request() -> ServiceRequest:
    """A controlled-load companion session that adaptation may squeeze.

    The CPU range (2..8) plus ``accept_degradation`` is exactly what
    Scenario 1/3 look for when a failure leaves the guaranteed session
    short: this session gets resized to its floor so the guarantee is
    restored instead of terminated.
    """
    specification = QoSSpecification.of(
        range_parameter(Dimension.CPU, 2, 8),
        range_parameter(Dimension.MEMORY_MB, 32, 128),
    )
    return ServiceRequest(
        client="user2",
        service_name="simulation-service",
        service_class=ServiceClass.CONTROLLED_LOAD,
        specification=specification,
        start=0.0, end=100.0,
        adaptation=AdaptationOptions(accept_degradation=True),
    )


def run_quickstart(*, seed: int = 0, chaos_seed: Optional[int] = None,
                   telemetry: bool = False,
                   crash_seed: Optional[int] = None,
                   journal_path: Optional[str] = None) -> str:
    """Run the quickstart episode; returns the printable report.

    ``crash_seed`` selects the crash episode (``journal_path`` only
    applies there); otherwise ``telemetry`` selects the telemetry
    report and ``chaos_seed`` arms fault injection.
    """
    if crash_seed is not None:
        return _crash(crash_seed, seed, journal_path)
    if telemetry:
        return _telemetry(seed, chaos_seed)
    if chaos_seed is not None:
        return _chaos(chaos_seed, seed)
    return _walkthrough(seed)


def _banner(title: str) -> List[str]:
    return ["=" * 70, title, "=" * 70]


def _section(title: str) -> List[str]:
    return ["", title, "-" * 70]


def _walkthrough(seed: int) -> str:
    """The plain session, driven on the broker directly."""
    testbed = build_testbed(seed=seed)
    broker = testbed.broker
    outcome = broker.request_service(quickstart_request())
    assert outcome.accepted, outcome.reason
    sla = outcome.sla
    lines = _banner(f"SLA {sla.sla_id} established for {sla.client!r} "
                    f"at rate {sla.price_rate:g}")
    lines += ["\nSLA portion relayed to the RMs (Table 1):\n",
              codec.encode_service_specific(sla, codec.DISPLAY)]
    testbed.sim.run(until=10.0)
    lines += ["\nSLA conformance-test reply (Table 3):\n",
              broker.verifier.conformance_reply_xml(sla.sla_id,
                                                    codec.DISPLAY)]
    testbed.sim.run(until=120.0)
    revenue = broker.ledger.provider_net(testbed.sim.now)
    lines += [f"\nSession finished: status={sla.status.value}, provider "
              f"revenue {revenue:.1f}",
              "\nBroker activity log (Figure 6 view):", "-" * 70,
              testbed.trace.render()]
    return "\n".join(lines)


def _drive(testbed: Testbed,
           sessions: "Sequence[Tuple[ClientStub, ServiceRequest]]",
           failed_nodes: int, lines: List[str],
           established: "Callable[[ServiceSLA], str]"
           ) -> "Tuple[List[ServiceSLA], int]":
    """The sessions over the bus: poll, fail at t=30, repair at t=60,
    establish each request through its client, run to t=120 and sweep
    stale negotiations. Returns the SLAs and the swept count."""
    assert testbed.gateway is not None
    testbed.broker.verifier.start_polling(5.0)
    testbed.sim.schedule_at(
        30.0, lambda: testbed.machine.fail_nodes(failed_nodes),
        label="inject:node-failure")
    testbed.sim.schedule_at(60.0, lambda: testbed.machine.repair_nodes(),
                            label="inject:node-repair")
    slas: List[ServiceSLA] = []
    for client, request in sessions:
        try:
            negotiation_id, _offers, reason = client.request_service(
                request)
            if negotiation_id is None:
                lines.append(f"service request refused: {reason}")
                continue
            sla, establish_reason = client.accept_offer(negotiation_id)
            if sla is None:
                lines.append(f"establishment failed: {establish_reason}")
                continue
            slas.append(sla)
            lines.append(f"SLA {sla.sla_id} established for "
                         f"{sla.client!r} {established(sla)}")
        except CircuitOpenError as circuit_error:
            # The transport ate every attempt; the session is cleanly
            # abandoned (and any stale negotiation swept below).
            lines.append(f"session abandoned: {circuit_error}")
    testbed.sim.run(until=120.0)
    return slas, testbed.gateway.sweep_stale(0.0)


def _chaos(chaos_seed: int, seed: int) -> str:
    """The session over a lossy control plane, with chaos accounting."""
    testbed = build_testbed(seed=seed)
    plan = install_chaos(testbed, chaos_seed)
    assert testbed.bus is not None
    client = testbed.client("user1")
    rule = plan.rules[0]
    lines = _banner(f"Quickstart under chaos (chaos seed {chaos_seed}: "
                    f"drop={rule.drop:g} duplicate={rule.duplicate:g} "
                    f"delay={rule.delay:g} error={rule.error:g} "
                    f"reorder={rule.reorder:g})")
    slas, swept = _drive(testbed, [(client, quickstart_request())], 3,
                         lines, lambda sla: "over a lossy control plane")
    for sla in slas:
        final = testbed.broker.repository.get(sla.sla_id)
        lines.append(f"final SLA status: {final.status.value}")
    lines += _section("chaos accounting")
    lines += [f"  faults.{key}: {value}"
              for key, value in sorted(plan.stats.as_dict().items())]
    lines += [f"  caller.{key}: {value}" for key, value
              in sorted(client.caller.stats.as_dict().items())]
    lines += [f"  dead_letters: {len(testbed.bus.dead_letters)}",
              f"  stale_negotiations_swept: {swept}",
              f"  capacity_conserved (Cg+Ca+Cb == C): "
              f"{not conservation(testbed)}"]
    lines += _section("activity log") + [testbed.trace.render()]
    return "\n".join(lines)


def _telemetry(seed: int, chaos_seed: Optional[int]) -> str:
    """Two sessions through a §5.6-sized outage, with the Figure-6
    style telemetry report."""
    testbed = build_testbed(seed=seed)
    if chaos_seed is not None:
        install_chaos(testbed, chaos_seed)
    else:
        attach_control_plane(testbed)
    telemetry = install_telemetry(testbed)
    chaos_note = (f" under chaos seed {chaos_seed}"
                  if chaos_seed is not None else "")
    lines = _banner(f"Quickstart with telemetry (seed {seed}{chaos_note})")
    # 16 of 26 grid nodes fail at t=30, so the two sessions' 12
    # delivered CPUs no longer fit in the 10 that remain and the
    # broker must adapt; the repair at t=60 restores them.
    sessions = [(testbed.client(request.client), request)
                for request in (quickstart_request(), degradable_request())]
    slas, _swept = _drive(testbed, sessions, 16, lines,
                          lambda sla: f"({sla.service_class.value})")
    broker = testbed.broker
    for sla in slas:
        final = broker.repository.get(sla.sla_id)
        lines.append(f"final SLA {sla.sla_id} status: {final.status.value}")
    counter = broker.metrics.counter_value
    lines += [f"violations detected: "
              f"{counter('repro_sla_violations_detected_total'):g}, "
              f"restorations: {counter('repro_sla_restorations_total'):g}",
              "", telemetry.report(title="quickstart")]
    return "\n".join(lines)


def _crash(crash_seed: int, seed: int, journal_path: Optional[str]) -> str:
    """The crash episode at a seed-chosen write point, with the
    recovery report and the post-recovery audit."""
    total = count_write_points(seed=seed,
                               snapshot_interval=SNAPSHOT_INTERVAL)
    crash_lsn = (crash_seed % total) + 1
    mode = CRASH_MODES[crash_seed % len(CRASH_MODES)]
    result = run_episode(crash_lsn=crash_lsn, mode=mode, seed=seed,
                         snapshot_interval=SNAPSHOT_INTERVAL)
    testbed = result.testbed
    broker = testbed.broker
    assert result.report is not None
    lines = _banner(f"Quickstart with a broker crash (crash seed "
                    f"{crash_seed}: write point {crash_lsn}/{total}, "
                    f"{mode} the record became durable)")
    lines += ["", result.report.render(), "",
              "post-recovery invariant audit", "-" * 70]
    lines += [f"  VIOLATED: {problem}" for problem in check(testbed)] or [
        "  capacity conserved (Cg+Ca+Cb == C - failed): OK",
        "  commitments within Cg: OK",
        "  slot table == live reservations: OK",
        "  every active flow owned by one session: OK",
        "  SLA atomicity (fully live or fully rolled back): OK"]
    lines += ["", "final SLA outcomes", "-" * 70]
    lines += [f"  SLA {sla.sla_id} ({sla.client!r}, "
              f"{sla.service_class.value}): {sla.status.value}"
              for sla in broker.repository.all()]
    lines += _section("recovery counters")
    lines += [f"  {name}: {broker.metrics.counter_value(name):g}"
              for name in ("repro_recovery_runs_total",
                           "repro_recovery_slas_restored",
                           "repro_recovery_slas_rolled_back",
                           "repro_recovery_orphans_cancelled",
                           "repro_recovery_flows_released")]
    records = result.journal.records()
    lines.append(f"  journal records (durable): {len(records)}")
    lines += _section("activity log") + [testbed.trace.render()]
    if journal_path is not None:
        store = FileJournalStore(journal_path)
        for record in records:
            store.append(encode_record(record))
        lines += ["", f"journal written to {journal_path}"]
    return "\n".join(lines)
