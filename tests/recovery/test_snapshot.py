"""Tests for checkpointing (repro.recovery.snapshot)."""

from __future__ import annotations

import pytest

from repro.core.testbed import build_testbed
from repro.errors import RecoveryError
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.recovery.recover import install_journal
from repro.recovery.snapshot import (
    start_snapshots,
    take_snapshot,
)
from repro.sla.document import NetworkDemand
from repro.sla.negotiation import ServiceRequest
from repro.sla.repository import SLARepository


def _request(client="user1", cpu=4, start=1.0, end=50.0, network=True):
    spec = QoSSpecification.of(
        exact_parameter(Dimension.CPU, cpu),
        exact_parameter(Dimension.MEMORY_MB, 64))
    demand = NetworkDemand("135.200.50.101", "192.200.168.33",
                           10.0) if network else None
    return ServiceRequest(client=client, service_name="simulation-service",
                          service_class=ServiceClass.GUARANTEED,
                          specification=spec, start=start, end=end,
                          network=demand)


@pytest.fixture
def journaled_testbed():
    testbed = build_testbed()
    install_journal(testbed)
    return testbed


class TestTakeSnapshot:
    def test_requires_a_journal(self, testbed):
        with pytest.raises(RecoveryError):
            take_snapshot(testbed.broker)

    def test_captures_repository_partition_and_composites(
            self, journaled_testbed):
        testbed = journaled_testbed
        outcome = testbed.broker.request_service(_request())
        assert outcome.accepted
        testbed.sim.run(until=5.0)
        snapshot = take_snapshot(testbed.broker)
        assert snapshot.lsn == testbed.journal.last_lsn
        assert snapshot.time == 5.0
        restored = SLARepository.from_xml(snapshot.repository_xml)
        assert [sla.sla_id for sla in restored.all()] == [1000]
        assert snapshot.partition["cg"] == 15
        (composite,) = snapshot.composites
        assert composite["sla_id"] == 1000
        assert composite["confirmed"] is True
        assert composite["handle"] is not None
        assert len(composite["flows"]) == 1


class TestPeriodicSnapshots:
    def test_requires_install_journal_first(self, testbed):
        with pytest.raises(RecoveryError):
            start_snapshots(testbed, 10.0)

    def test_rejects_non_positive_interval(self, journaled_testbed):
        with pytest.raises(RecoveryError):
            start_snapshots(journaled_testbed, 0.0)

    def test_checkpoints_on_a_timer(self, journaled_testbed):
        testbed = journaled_testbed
        keeper = start_snapshots(testbed, 10.0)
        testbed.broker.request_service(_request())
        testbed.sim.run(until=35.0)
        assert keeper.taken == 3
        assert testbed.snapshots is keeper
        assert keeper.latest is not None
        assert keeper.latest.time == 30.0
        assert keeper.latest.lsn <= testbed.journal.last_lsn
