"""The instrumentation seam (repro.probe): every component reports
through the testbed's one probe, in a fixed order, and through
nothing else."""

from __future__ import annotations

from repro.core.testbed import (build_multidomain, build_testbed,
                                install_all, install_observability)
from repro.federation.plane import FederatedControlPlane
from repro.probe import Probe
from repro.recovery.recover import install_journal

from ..chaos.conftest import guaranteed_request

_VERBS = ("span", "count", "gauge", "rebalanced", "append", "group",
          "decide", "session_started", "session_ended", "on_violation",
          "on_restoration")


class RecordingProbe(Probe):
    """Logs ``(verb, first argument)`` per call, then acts as the real
    probe, so the episode behaves exactly as in production."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []


def _recording(verb):
    real = getattr(Probe, verb)

    def method(self, *args, **kwargs):
        key = args[0] if args and isinstance(args[0], (str, int)) else None
        self.calls.append((verb, key))
        return real(self, *args, **kwargs)
    return method


for _verb in _VERBS:
    setattr(RecordingProbe, _verb, _recording(_verb))


def _episode(testbed):
    """One admission, a failure, its repair, a termination; returns the
    probe calls of each step."""
    probe, steps = testbed.probe, {}

    def step(name, action):
        del probe.calls[:]
        result = action()
        steps[name] = list(probe.calls)
        return result

    outcome = step("admit", lambda: testbed.broker.request_service(
        guaranteed_request(client="user1", cpu=4, with_network=False)))
    assert outcome.accepted
    downed = step("fail", lambda: testbed.machine.fail_nodes(20))
    step("repair", lambda: testbed.machine.repair_nodes(downed))
    step("terminate", lambda: testbed.broker.terminate_session(
        outcome.sla.sla_id, cause="client-request"))
    return steps


_GARA = [("count", "repro_gara_operations_total"),
         ("gauge", "repro_gara_cpu_reserved")]


class TestVerbSequence:
    def test_every_instrument_on(self):
        testbed = build_testbed(probe=RecordingProbe())
        install_observability(testbed)
        install_journal(testbed)
        steps = _episode(testbed)
        assert steps["admit"] == [
            ("span", "negotiate"),
            ("span", "establish"),
            ("span", "reserve"),
            ("append", "reserve_begin"), *_GARA,
            ("append", "compute_booked"),
            ("append", "reserve_end"),
            ("append", "sla_saved"),
            ("span", "confirm"), *_GARA,
            ("append", "confirm"),
            ("decide", "admission"),
            ("span", "activate-session"),
            ("rebalanced", None),
            ("append", "capacity_rebalanced"), *_GARA,
            ("append", "sla_saved"),
            ("session_started", 1000),
        ]
        assert steps["fail"] == [
            ("span", "capacity-change"),
            ("rebalanced", None),
            ("append", "capacity_rebalanced"),
            ("decide", "rebalance"),
        ]
        assert steps["repair"] == [
            ("span", "capacity-change"),
            ("rebalanced", None),
            ("append", "capacity_rebalanced"),
        ]
        assert steps["terminate"] == [
            ("span", "close-session"), *_GARA,  # the job's unbind
            ("span", "cancel"),
            ("append", "cancel"),
            ("rebalanced", None),
            ("append", "capacity_rebalanced"),
            ("append", "sla_saved"),
            ("session_ended", 1000),
        ]

    def test_uninstalled_probe_emits_nothing(self):
        testbed = build_testbed(probe=RecordingProbe())
        events_before = len(testbed.trace.stream.events)
        steps = _episode(testbed)
        calls = [call for step in steps.values() for call in step]
        # Payload-bearing sites never reach their verb...
        assert not [call for call in calls
                    if call[0] in ("decide", "count", "gauge")]
        # ...and the verbs that are reached do nothing.
        probe = testbed.probe
        assert (probe.telemetry, probe.journal, probe.decisions,
                probe.slo) == (None, None, None, None)
        assert probe.append("confirm", sla_id=1) is None
        with probe.span("x", "y") as span:
            assert span is None
        new = testbed.trace.stream.events[events_before:]
        assert not [event for event in new
                    if event.category in ("span", "decision", "slo")]
        assert not [name for name in testbed.broker.metrics.as_dict()
                    if name.startswith(("repro_capacity_", "repro_gara_"))]

    def test_components_share_the_testbed_probe(self):
        testbed = install_all(build_testbed())
        probe, broker = testbed.probe, testbed.broker
        for component in (broker, broker.verifier,
                          broker.reservation_system, testbed.partition,
                          testbed.compute_rm.gara, testbed.nrm,
                          testbed.bus):
            assert component.probe is probe


    def test_multidomain_has_one_probe_per_domain(self):
        testbed = build_multidomain(domains=2)
        probes = [broker.probe for broker in testbed.brokers.values()]
        assert probes[0] is not probes[1]
        for broker in testbed.brokers.values():
            for component in (broker.verifier, broker.reservation_system,
                              broker.partition, broker.compute_rm.gara):
                assert component.probe is broker.probe
        for nrm, probe in zip(testbed.coordinator._nrms.values(), probes):
            assert nrm.probe is probe

    def test_federation_wire_borrows_only_the_first_hub(self):
        plane = FederatedControlPlane(domains=2)
        first = plane.domains["d1"].testbed
        wire = plane.bus.probe
        assert wire is not first.probe
        assert wire.telemetry is first.telemetry
        assert (wire.journal, wire.decisions, wire.slo) == (None,) * 3

    def test_predicates_follow_their_backend_field(self):
        probe = Probe()
        assert not (probe.measuring or probe.journaling or probe.explaining)
        probe.journal = object()
        assert probe.journaling and not probe.explaining
        probe.journal = None
        assert not probe.journaling
        assert Probe(decisions=object()).explaining


def _stamps_and_journal(first, second):
    testbed = build_testbed(seed=3)
    first(testbed)
    second(testbed)
    broker = testbed.broker
    broker.request_services([
        guaranteed_request(client=f"user{i}", cpu=4, with_network=False)
        for i in range(5)])  # the last two overflow Cg and are refused
    broker.request_service(
        guaranteed_request(client="late", cpu=2, with_network=False))
    testbed.machine.repair_nodes(testbed.machine.fail_nodes(20))
    stamps = [(record.action, record.outcome, record.lsn)
              for record in testbed.decisions.records]
    return stamps, list(testbed.journal.store.records())


def test_journal_and_observability_install_in_either_order():
    before = _stamps_and_journal(install_journal, install_observability)
    after = _stamps_and_journal(install_observability, install_journal)
    assert any(lsn > 0 for _, _, lsn in before[0])
    assert before == after
