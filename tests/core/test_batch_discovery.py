"""Batched admission asks UDDIe once per distinct query and instant.

``AQoSBroker.request_services`` holds each discovery answer for the
rest of its batch, keyed by the exact query, and drops them all when
the sim clock moves. These tests hold that to the sequential path over
the bus transport (``install_all``: conditional discovery behind a
resilient caller), count the ``find_services`` exchanges it saves, and
check every way the held answers must be let go: at the end of the
batch, on an exception, and when a delay fault lets a scheduled
registry change fire mid-batch. A degraded (stale-cache) answer is
never held.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import broker as broker_module
from repro.core.broker import ServiceRequest
from repro.core.discovery import RegistryEndpoint
from repro.core.testbed import build_testbed, install_all
from repro.errors import BrokerCrash
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter, range_parameter
from repro.qos.specification import QoSSpecification
from repro.registry.query import PropertyConstraint, ServiceQuery
from repro.sim.random import RandomSource
from repro.xmlmsg.faults import FaultPlan, FaultRule

from .test_batch_admission import _holdings, _visible_records

#: Two registered services and one that is not: a rejected discovery
#: is an answer too, and is held like any other.
_SERVICES = ("simulation-service", "visualization-service",
             "missing-service")


def _request(index: int, service: str = "simulation-service", cpu: int = 1,
             *, start: float = 10.0) -> ServiceRequest:
    return ServiceRequest(
        client=f"user{index}", service_name=service,
        service_class=ServiceClass.GUARANTEED,
        specification=QoSSpecification.from_iterable([
            exact_parameter(Dimension.CPU, cpu),
            exact_parameter(Dimension.MEMORY_MB, 64),
        ]),
        start=start, end=100.0)


def _bus_testbed():
    return install_all(build_testbed())


#: Wide enough for every request above.
_CAPABILITY = QoSSpecification.of(
    range_parameter(Dimension.CPU, 0, 64),
    range_parameter(Dimension.MEMORY_MB, 0, 1024))


def _register(testbed, name, **properties):
    return testbed.registry.register(name, "acme", capability=_CAPABILITY,
                                     properties=properties)


@pytest.fixture
def exchanges(monkeypatch):
    """Counts the ``find_services`` requests every registry endpoint
    built after this fixture answers."""
    seen = []
    answer = RegistryEndpoint._on_find_services

    def counted(self, envelope):
        seen.append(envelope)
        return answer(self, envelope)
    monkeypatch.setattr(RegistryEndpoint, "_on_find_services", counted)
    return seen


def _outcomes(outcomes):
    return [(outcome.accepted, outcome.reason) for outcome in outcomes]


class TestBusBatchSequentialEquivalence:
    @given(shapes=st.lists(st.tuples(st.sampled_from(_SERVICES),
                                     st.sampled_from([1, 2, 8, 50])),
                           min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_batch_is_byte_identical_to_sequential(self, shapes):
        batch_bed = _bus_testbed()
        seq_bed = _bus_testbed()
        requests = [_request(index, service, cpu)
                    for index, (service, cpu) in enumerate(shapes)]

        batch_out = batch_bed.broker.request_services(requests)
        seq_out = [seq_bed.broker.request_service(r) for r in requests]

        assert _outcomes(batch_out) == _outcomes(seq_out)
        assert _holdings(batch_bed) == _holdings(seq_bed)
        assert (batch_bed.partition.snapshot()
                == seq_bed.partition.snapshot())
        assert _visible_records(batch_bed) == _visible_records(seq_bed)
        assert (batch_bed.broker.repository.export_xml()
                == seq_bed.broker.repository.export_xml())


class TestOneExchangePerQuery:
    def test_k_distinct_queries_send_k_exchanges_per_batch(self, exchanges):
        broker = _bus_testbed().broker
        requests = [_request(index, _SERVICES[index % 3])
                    for index in range(12)]
        broker.request_services(requests)
        assert len(exchanges) == 3
        # Nothing is held across batches: the next one asks again.
        broker.request_services([_request(20 + index, _SERVICES[index % 3])
                                 for index in range(6)])
        assert len(exchanges) == 6

    def test_a_lone_request_is_a_batch_of_one(self, exchanges):
        broker = _bus_testbed().broker
        for index in range(3):
            broker.request_service(_request(index))
        assert len(exchanges) == 3

    def test_each_request_gets_a_fresh_list(self, monkeypatch):
        broker = _bus_testbed().broker
        handed = []
        discover = broker.discover

        def kept(request):
            matches = discover(request)
            handed.append(matches)
            matches.append("not a record")
            return matches
        monkeypatch.setattr(broker, "discover", kept)
        broker.request_services([_request(index) for index in range(4)])
        assert len({id(matches) for matches in handed}) == 4
        assert [len(matches) for matches in handed] == [2, 2, 2, 2]

    def test_equal_constraints_of_other_types_stay_separate_queries(
            self, monkeypatch, exchanges):
        """``True``, ``1`` and ``1.0`` compare equal but match the
        string property ``"1"`` differently (only ``1`` does), so each
        is its own query with its own answer."""
        values = {"flag-bool": True, "flag-int": 1, "flag-float": 1.0}

        def flagged(name_pattern, qos):
            return ServiceQuery(
                name_pattern="flagged-service", qos=qos,
                constraints=(PropertyConstraint(
                    "flag", "=", values[name_pattern]),))

        beds = []
        for _ in range(2):
            testbed = _bus_testbed()
            _register(testbed, "flagged-service", flag="1")
            beds.append(testbed)
        batch_bed, seq_bed = beds
        monkeypatch.setattr(broker_module, "ServiceQuery", flagged)
        requests = [_request(index, name)
                    for index, name in enumerate(list(values) * 2)]

        batch_out = batch_bed.broker.request_services(requests)
        assert len(exchanges) == 3
        seq_out = [seq_bed.broker.request_service(r) for r in requests]
        assert _outcomes(batch_out) == _outcomes(seq_out)
        assert [outcome.accepted for outcome in batch_out] == \
            [False, True, False] * 2


class TestHeldAnswersAreLetGo:
    def test_a_service_registered_between_batches_is_seen(self):
        testbed = _bus_testbed()
        broker = testbed.broker
        first = broker.request_services([_request(0, "new-service")])
        assert not first[0].accepted
        record = _register(testbed, "new-service")
        second = broker.request_services([_request(1, "new-service")])
        assert second[0].accepted
        # A lone request after the batch, at the same instant, asks
        # again too: it sees the service gone.
        testbed.registry.unregister(record.record_id)
        outcome = broker.request_service(_request(2, "new-service"))
        assert outcome.reason == "no matching service in UDDIe"

    def test_an_exception_mid_batch_leaves_nothing_held(self, monkeypatch):
        testbed = _bus_testbed()
        broker = testbed.broker
        record = _register(testbed, "late-service")
        establish = broker.establish

        def dying(negotiation):
            raise BrokerCrash("died after discovery")
        monkeypatch.setattr(broker, "establish", dying)
        with pytest.raises(BrokerCrash):
            broker.request_services([_request(0, "late-service")])
        monkeypatch.setattr(broker, "establish", establish)
        testbed.registry.unregister(record.record_id)
        outcome = broker.request_service(_request(1, "late-service"))
        assert outcome.reason == "no matching service in UDDIe"

    def test_a_delay_fault_that_fires_an_unregister_is_seen(
            self, exchanges):
        """A slow reply lets the clock run past a scheduled removal:
        the reply was written before it, so the request it answers is
        admitted, but every later request must ask again and be
        refused — exactly as one at a time."""
        outcomes = []
        for batched in (True, False):
            testbed = _bus_testbed()
            record = _register(testbed, "doomed-service")
            testbed.sim.schedule(
                0.5, lambda: testbed.registry.unregister(record.record_id))
            testbed.bus.install_faults(FaultPlan(
                RandomSource(1).stream("faults"),
                [FaultRule(action="service_records", delay=1.0,
                           delay_range=(1.0, 1.0))]))
            # Every reply spends one time unit in transit: the first is
            # written at t=0, before the removal, and arrives at t=1.
            requests = [_request(0, "doomed-service"),
                        _request(1, "simulation-service"),
                        _request(2, "doomed-service"),
                        _request(3, "simulation-service")]
            broker = testbed.broker
            if batched:
                outcomes.append(broker.request_services(requests))
            else:
                outcomes.append([broker.request_service(r)
                                 for r in requests])
            assert testbed.sim.now > 0.5
        batch_out, seq_out = outcomes
        assert _outcomes(batch_out) == _outcomes(seq_out)
        assert [outcome.accepted for outcome in batch_out] == \
            [True, True, False, True]
        assert len(exchanges) == 8

    def test_a_degraded_answer_is_not_held(self):
        """With the registry unreachable every request is served the
        stale answer, and each one is counted as degraded — in a batch
        as one at a time. A held answer would come back as a fresh one
        and the count would drop."""
        counts = []
        for batched in (True, False):
            testbed = _bus_testbed()
            broker = testbed.broker
            assert broker.request_service(_request(0)).accepted
            testbed.bus.install_faults(FaultPlan(
                RandomSource(1).stream("faults"),
                [FaultRule(action="find_services", drop=1.0)]))
            requests = [_request(index) for index in range(1, 5)]
            if batched:
                outcomes = broker.request_services(requests)
            else:
                outcomes = [broker.request_service(r) for r in requests]
            assert all(outcome.accepted for outcome in outcomes)
            counts.append(broker.metrics.counter_value(
                "repro_discovery_degraded_total"))
        assert counts == [4.0, 4.0]
