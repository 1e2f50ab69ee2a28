"""Tests for SLA-Verif (repro.monitoring.verifier)."""

from __future__ import annotations

import pytest

from repro.errors import MonitoringError
from repro.monitoring.mds import InformationService
from repro.monitoring.notifications import NotificationHub
from repro.monitoring.sensors import Sensor, SensorReading
from repro.monitoring.verifier import SlaVerifier
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, range_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.document import NetworkDemand, ServiceSLA
from repro.sla.repository import SLARepository
from repro.units import parse_bound
from repro.xmlmsg.document import parse_xml


class RecordingHub(NotificationHub):
    """A hub that keeps every notice published through it."""

    def __init__(self):
        super().__init__()
        self.published = []
        self.subscribe(self.published.append)


class StubSensor(Sensor):
    """Test double with settable values."""

    def __init__(self, name, sim, values):
        super().__init__(name, sim)
        self.values = values

    def sample(self):
        return SensorReading(sensor=self.name, time=self._sim.now,
                             values=dict(self.values))


@pytest.fixture
def world(sim):
    repository = SLARepository()
    spec = QoSSpecification.of(range_parameter(Dimension.CPU, 2, 8))
    sla = ServiceSLA(
        sla_id=repository.next_id(), client="c", service_name="s",
        service_class=ServiceClass.CONTROLLED_LOAD, specification=spec,
        agreed_point=spec.best_point(), start=0.0, end=100.0,
        price_rate=5.0,
        network=NetworkDemand("1.1.1.1", "2.2.2.2", 10.0,
                              parse_bound("LessThan 10%")))
    repository.save(sla)
    sla.establish()
    sla.activate()
    hub = RecordingHub()
    verifier = SlaVerifier(sim, InformationService(), repository, hub)
    return sim, repository, hub, verifier, sla


class TestConformanceTests:
    def test_conformant_session_raises_no_notice(self, world):
        sim, _repo, hub, verifier, sla = world
        verifier.attach_sensor(sla.sla_id, StubSensor(
            "s1", sim, {Dimension.CPU: 8.0}))
        report = verifier.conformance_test(sla.sla_id)
        assert report.conformant
        assert hub.published == []

    def test_violation_publishes_degradation_notice(self, world):
        sim, _repo, hub, verifier, sla = world
        verifier.attach_sensor(sla.sla_id, StubSensor(
            "s1", sim, {Dimension.CPU: 2.0}))
        report = verifier.conformance_test(sla.sla_id)
        assert not report.conformant
        notices = hub.published
        assert len(notices) == 1
        assert notices[0].source == "sla-verif"
        assert notices[0].severity > 0

    def test_measurements_merged_across_sensors(self, world):
        sim, _repo, _hub, verifier, sla = world
        verifier.attach_sensor(sla.sla_id, StubSensor(
            "s1", sim, {Dimension.CPU: 8.0}))
        verifier.attach_sensor(sla.sla_id, StubSensor(
            "s2", sim, {Dimension.BANDWIDTH_MBPS: 10.0}))
        measured = verifier.measure(sla.sla_id)
        assert set(measured.values) == {Dimension.CPU,
                                        Dimension.BANDWIDTH_MBPS}

    def test_no_sensors_raises(self, world):
        _sim, _repo, _hub, verifier, sla = world
        with pytest.raises(MonitoringError):
            verifier.conformance_test(sla.sla_id)

    def test_reply_xml_is_table3_shaped(self, world):
        sim, _repo, _hub, verifier, sla = world
        verifier.attach_sensor(sla.sla_id, StubSensor(
            "s1", sim, {Dimension.BANDWIDTH_MBPS: 9.5,
                        Dimension.PACKET_LOSS: 0.02}))
        node = parse_xml(verifier.conformance_reply_xml(sla.sla_id))
        assert node.tag == "QoS_Levels"
        assert node.find("SLA-ID").text == str(sla.sla_id)

    def test_detach_session(self, world):
        sim, _repo, _hub, verifier, sla = world
        verifier.attach_sensor(sla.sla_id, StubSensor(
            "s1", sim, {Dimension.CPU: 8.0}))
        verifier.detach_session(sla.sla_id)
        with pytest.raises(MonitoringError):
            verifier.measure(sla.sla_id)


class TestPolling:
    def test_periodic_tests_run(self, world):
        sim, _repo, _hub, verifier, sla = world
        verifier.attach_sensor(sla.sla_id, StubSensor(
            "s1", sim, {Dimension.CPU: 8.0}))
        verifier.start_polling(interval=10.0)
        sim.run(until=55.0)
        assert verifier.tests_run == 5

    def test_stop_polling(self, world):
        sim, _repo, _hub, verifier, sla = world
        verifier.attach_sensor(sla.sla_id, StubSensor(
            "s1", sim, {Dimension.CPU: 8.0}))
        verifier.start_polling(interval=10.0)
        sim.run(until=25.0)
        verifier.stop_polling()
        sim.run(until=100.0)
        assert verifier.tests_run == 2

    def test_invalid_interval_rejected(self, world):
        _sim, _repo, _hub, verifier, _sla = world
        with pytest.raises(MonitoringError):
            verifier.start_polling(0.0)


class TestNrmCallback:
    def test_notice_republished_against_sla(self, world):
        sim, _repo, hub, verifier, sla = world

        class FakeFlow:
            flow_id = 7
            bandwidth_mbps = 10.0

        class FakeMeasurement:
            bandwidth_mbps = 4.0

        listener = verifier.on_network_degradation(
            lambda flow: sla.sla_id)
        listener(FakeFlow(), FakeMeasurement())
        notices = hub.published
        assert len(notices) == 1
        assert notices[0].source == "nrm"

    def test_unmapped_flow_ignored(self, world):
        _sim, _repo, hub, verifier, _sla = world

        class FakeFlow:
            flow_id = 7
            bandwidth_mbps = 10.0

        class FakeMeasurement:
            bandwidth_mbps = 4.0

        listener = verifier.on_network_degradation(lambda flow: None)
        listener(FakeFlow(), FakeMeasurement())
        assert hub.published == []
