"""Integration: failure injection against the full stack.

The paper's core promise — guaranteed sessions ride out resource
failures thanks to the adaptive reserve — exercised end-to-end with
stochastic failures, plus the deterministic Section 5.6 schedule.
"""

from __future__ import annotations

import pytest

from repro.core.testbed import build_testbed
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter, range_parameter
from repro.qos.specification import QoSSpecification
from repro.resources.failures import FailureInjector, FailureSchedule
from repro.sla.document import AdaptationOptions, SlaStatus
from repro.sla.negotiation import ServiceRequest


def g_request(client, cpu, end=400.0):
    spec = QoSSpecification.of(exact_parameter(Dimension.CPU, cpu))
    return ServiceRequest(client=client, service_name="simulation-service",
                          service_class=ServiceClass.GUARANTEED,
                          specification=spec, start=0.0, end=end)


class TestDeterministicFailures:
    def test_section56_failure_schedule_rides_through(self):
        testbed = build_testbed()
        broker = testbed.broker
        outcome = broker.request_service(g_request("sla3", 10))
        other = broker.request_service(g_request("other", 4))
        assert outcome.accepted and other.accepted
        notices = []
        broker.hub.subscribe(notices.append)
        FailureSchedule.of((100.0, -3), (200.0, 3)).apply(
            testbed.sim, testbed.machine)
        testbed.sim.run(until=300.0)
        # No degradation notice was ever raised for either session: the
        # adaptive reserve absorbed the 3-node failure.
        assert notices == []

    def test_failure_beyond_reserve_raises_notices(self):
        testbed = build_testbed()
        broker = testbed.broker
        outcome = broker.request_service(g_request("big", 15))
        assert outcome.accepted
        published = []
        broker.hub.subscribe(published.append)
        # 15 entitled; fail 15 nodes: eff Cg=0, Ca=6, Cb raidable 3
        # (min=2) -> shortfall 6.
        testbed.machine.fail_nodes(15)
        notices = [notice for notice in published
                   if notice.sla_id == outcome.sla.sla_id]
        assert notices
        assert "shortfall" in notices[0].detail


class TestStochasticFailures:
    def test_small_failures_never_violate_guarantees(self):
        testbed = build_testbed(seed=5)
        broker = testbed.broker
        for index in range(3):
            outcome = broker.request_service(
                g_request(f"user{index}", 4, end=800.0))
            assert outcome.accepted
        injector = FailureInjector(
            testbed.sim, testbed.machine, testbed.rng.stream("fail"),
            mtbf=40.0, mttr=20.0, max_concurrent_failures=3)
        injector.start()
        testbed.sim.run(until=700.0)
        assert injector.failures_injected > 5
        # Committed 12 <= eff Cg (>= 23 - ... >= 12) at 3 concurrent
        # failures; the reserve covers everything.
        for account in broker.ledger.accounts():
            assert account.total_penalties() == 0.0

    def test_controlled_load_soaks_failures_by_degrading(self):
        testbed = build_testbed(seed=6)
        broker = testbed.broker
        spec = QoSSpecification.of(range_parameter(Dimension.CPU, 2, 12))
        outcome = broker.request_service(ServiceRequest(
            client="elastic", service_name="simulation-service",
            service_class=ServiceClass.CONTROLLED_LOAD,
            specification=spec, start=0.0, end=500.0,
            adaptation=AdaptationOptions(accept_degradation=True)))
        filler = broker.request_service(g_request("filler", 13, end=500.0))
        assert outcome.accepted and filler.accepted
        # Entitled total is 2 + 13 = 15; failing 9 nodes leaves
        # eff Cg=6 + Ca=6 + raidable Cb=3 = 15, exactly enough.
        testbed.machine.fail_nodes(9)
        testbed.sim.run(until=50.0)
        # The guaranteed filler is whole; the elastic session fell back
        # to its floor entitlement.
        holding = broker.partition_holding(filler.sla.sla_id)
        assert holding.served == 13.0
        elastic = broker.partition_holding(outcome.sla.sla_id)
        assert elastic.served == 2.0
        assert outcome.sla.status is SlaStatus.ACTIVE

    def test_unrecoverable_overload_penalizes_or_terminates(self):
        testbed = build_testbed(seed=7)
        broker = testbed.broker
        outcome = broker.request_service(g_request("big", 15, end=500.0))
        assert outcome.accepted
        notices = []
        broker.hub.subscribe(notices.append)
        # 15 entitled vs 14 raidable after a 10-node failure: a genuine
        # shortfall that adaptation cannot hide.
        testbed.machine.fail_nodes(10)
        testbed.sim.run(until=20.0)
        assert [notice for notice in notices
                if notice.sla_id == outcome.sla.sla_id]
        account = broker.ledger.account(outcome.sla.sla_id)
        terminated = outcome.sla.status is SlaStatus.TERMINATED
        assert terminated or account.total_penalties() > 0.0
