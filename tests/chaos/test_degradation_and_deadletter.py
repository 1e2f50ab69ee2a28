"""Graceful degradation of the control plane's weak dependencies.

Three failure stories the chaos layer must turn into degraded service
rather than outages:

* the UDDIe registry becomes unreachable — discovery serves the last
  good answer with an explicit ``degraded`` marker (and fails loudly
  only when it has never seen one);
* a degradation notice is lost in flight — it lands in the bus
  dead-letter log and the verifier's periodic polling re-detects the
  condition, so adaptation is delayed, never deadlocked;
* an asynchronous handler raises — the scheduled-delivery path turns
  the error into a dead letter instead of unwinding ``Simulator.run``
  (regression: this used to kill every event after the failure).
"""

from __future__ import annotations

import pytest

from repro.core.testbed import attach_control_plane, build_testbed
from repro.errors import MonitoringError, RegistryError
from repro.registry.query import ServiceQuery
from repro.sim.engine import Simulator
from repro.sim.random import RandomSource
from repro.xmlmsg.bus import MessageBus
from repro.xmlmsg.envelope import Envelope
from repro.xmlmsg.faults import FaultPlan, FaultRule

from ..xmlmsg.trees import element
from .conftest import guaranteed_request


def targeted_plan(seed: int, **rule_fields) -> FaultPlan:
    """A plan faulting only the messages matching one rule; everything
    else is exempt (no rule matches → clean, no RNG draw)."""
    return FaultPlan(RandomSource(seed).stream("faults"),
                     [FaultRule(**rule_fields)])


class TestDegradedDiscovery:
    def test_stale_cache_serves_when_registry_unreachable(self):
        testbed = attach_control_plane(build_testbed())
        broker = testbed.broker
        first = broker.request_service(
            guaranteed_request(client="user1", cpu=4, with_network=False))
        assert first.accepted
        # Registry goes dark: every message to it is lost.
        testbed.bus.install_faults(
            targeted_plan(1, recipient="uddie", drop=1.0))
        second = broker.request_service(
            guaranteed_request(client="user2", cpu=4, with_network=False))
        # The request still succeeds — on stale registry data, and the
        # degradation is observable everywhere it should be.
        assert second.accepted
        assert broker.metrics.counter_value(
            "repro_discovery_degraded_total") == 1
        assert broker.discovery.metrics.counter_value(
            "repro_discovery_stale_hits_total") == 1
        degraded = testbed.trace.filter(category="discovery")
        assert degraded and "degraded" in degraded[0].message

    def test_no_cache_fails_loudly(self):
        """Without a prior good answer there is nothing to degrade to."""
        testbed = attach_control_plane(build_testbed())
        testbed.bus.install_faults(
            targeted_plan(2, recipient="uddie", drop=1.0))
        with pytest.raises(RegistryError):
            testbed.broker.discovery.find(
                ServiceQuery(name_pattern="simulation-service"))

    def test_cache_is_per_query(self):
        """A stale answer is only served for the *same* query."""
        testbed = attach_control_plane(build_testbed())
        discovery = testbed.broker.discovery
        cached = discovery.find(ServiceQuery(
            name_pattern="simulation-service"))
        assert cached.records and not cached.degraded
        testbed.bus.install_faults(
            targeted_plan(3, recipient="uddie", drop=1.0))
        stale = discovery.find(ServiceQuery(
            name_pattern="simulation-service"))
        assert stale.degraded
        assert [r.name for r in stale.records] == \
            [r.name for r in cached.records]
        with pytest.raises(RegistryError):
            discovery.find(ServiceQuery(name_pattern="visualization-*"))


class TestNotificationLoss:
    def test_lost_notice_dead_letters_and_polling_redetects(self):
        testbed = attach_control_plane(build_testbed())
        broker = testbed.broker
        received = []
        broker.hub.subscribe(received.append)
        broker.verifier.start_polling(5.0)
        outcome = broker.request_service(
            guaranteed_request(client="user1", cpu=15, end=200.0,
                               with_network=False))
        assert outcome.accepted
        # Every degradation notice is lost in flight.
        testbed.bus.install_faults(
            targeted_plan(4, action="degradation_notice", drop=1.0))
        testbed.sim.schedule_at(10.0,
                               lambda: testbed.machine.fail_nodes(15),
                               label="inject:outage")
        testbed.sim.run(until=30.0)
        # The shortfall was published and lost — visibly.
        lost = [letter for letter in testbed.bus.dead_letters
                if letter.action == "degradation_notice"]
        assert lost and lost[0].reason == "dropped"
        assert received == []  # no subscriber ever saw a notice
        # But detection never stopped: polling kept finding the
        # violation and re-publishing (each one lost again).
        assert broker.verifier.tests_run >= 3
        assert len(lost) >= 2
        # Transport heals -> the very next poll's notice gets through.
        testbed.bus.install_faults(None)
        testbed.sim.run(until=40.0)
        assert received
        assert received[0].sla_id == outcome.sla.sla_id


class TestDeadLetterRegression:
    def test_failing_async_handler_does_not_unwind_the_sim(self):
        """A scheduled delivery whose handler raises must become a
        dead letter; events after it must still run."""
        sim = Simulator()
        bus = MessageBus(sim)

        def explode(envelope):
            raise MonitoringError("sensor exploded")

        bus.endpoint("fragile").on("poke", explode)
        bus.send_async(Envelope(sender="test", recipient="fragile",
                                action="poke", body=element("Poke")),
                       latency=1.0)
        later = []
        sim.schedule_at(5.0, lambda: later.append(sim.now),
                        label="after-the-crash")
        sim.run(until=10.0)
        assert later == [5.0]
        assert len(bus.dead_letters) == 1
        letter = bus.dead_letters[0]
        assert letter.reason == "handler-error"
        assert "sensor exploded" in letter.detail
        assert letter.action == "poke"

    def test_unknown_async_recipient_is_dead_lettered(self):
        sim = Simulator()
        bus = MessageBus(sim)
        bus.send_async(Envelope(sender="test", recipient="nobody",
                                action="poke", body=element("Poke")))
        sim.run(until=1.0)
        assert [letter.reason for letter in bus.dead_letters] == \
            ["handler-error"]
