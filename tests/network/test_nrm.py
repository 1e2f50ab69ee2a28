"""Tests for the bandwidth broker (repro.network.nrm)."""

from __future__ import annotations

import pytest

from repro.errors import CapacityError, NetworkError
from repro.network.nrm import NetworkResourceManager
from repro.network.topology import Topology


@pytest.fixture
def topology():
    topology = Topology()
    topology.add_site("a", "d1")
    topology.add_site("b", "d1")
    topology.add_site("c", "d1")
    topology.add_link("a", "b", 100.0, delay_ms=2.0)
    topology.add_link("b", "c", 50.0, delay_ms=3.0, loss=0.02)
    return topology


@pytest.fixture
def nrm(sim, topology):
    return NetworkResourceManager(sim, topology, "d1")


class TestAllocation:
    def test_allocate_books_every_link(self, nrm):
        nrm.allocate("a", "c", 30.0, 0, 100)
        assert nrm.available_bandwidth("a", "b", 0, 100) == 70.0
        assert nrm.available_bandwidth("b", "c", 0, 100) == 20.0

    def test_bottleneck_governs_admission(self, nrm):
        # The b-c link caps the a-c path at 50.
        assert nrm.can_allocate("a", "c", 50.0, 0, 100)
        assert not nrm.can_allocate("a", "c", 51.0, 0, 100)

    def test_rollback_on_midpath_failure(self, nrm):
        nrm.allocate("b", "c", 40.0, 0, 100)  # leaves 10 on b-c
        with pytest.raises(CapacityError):
            nrm.allocate("a", "c", 30.0, 0, 100)
        # The a-b booking must have been rolled back.
        assert nrm.available_bandwidth("a", "b", 0, 100) == 100.0

    def test_release_frees_links(self, nrm):
        flow = nrm.allocate("a", "c", 30.0, 0, 100)
        nrm.release(flow)
        assert nrm.available_bandwidth("a", "c", 0, 100) == 50.0
        assert not flow.active

    def test_double_release_is_idempotent(self, nrm):
        flow = nrm.allocate("a", "b", 30.0, 0, 100)
        nrm.release(flow)
        nrm.release(flow)

    def test_expiry_frees_links(self, nrm, sim):
        nrm.allocate("a", "b", 60.0, 0, 50)
        sim.run(until=51)
        assert nrm.available_bandwidth("a", "b", 51, 100) == 100.0

    def test_nonpositive_bandwidth_rejected(self, nrm):
        with pytest.raises(NetworkError):
            nrm.allocate("a", "b", 0.0, 0, 100)

    def test_foreign_link_rejected(self, sim, topology):
        topology.add_site("x", "d2")
        # The x-side domain owns the boundary link, so d1's NRM may
        # not book it.
        topology.add_link("x", "c", 10.0)
        nrm = NetworkResourceManager(sim, topology, "d1")
        with pytest.raises(NetworkError):
            nrm.allocate("a", "x", 5.0, 0, 100)


class TestResize:
    def test_grow_and_shrink(self, nrm):
        flow = nrm.allocate("a", "c", 20.0, 0, 100)
        nrm.resize(flow, 45.0)
        assert flow.bandwidth_mbps == 45.0
        assert nrm.available_bandwidth("b", "c", 0, 100) == 5.0
        nrm.resize(flow, 10.0)
        assert nrm.available_bandwidth("b", "c", 0, 100) == 40.0

    def test_grow_past_bottleneck_rolls_back(self, nrm):
        nrm.allocate("b", "c", 30.0, 0, 100)
        flow = nrm.allocate("a", "c", 10.0, 0, 100)
        with pytest.raises(CapacityError):
            nrm.resize(flow, 40.0)
        assert flow.bandwidth_mbps == 10.0
        assert nrm.available_bandwidth("a", "b", 0, 100) == 90.0

    def test_resize_released_flow_rejected(self, nrm):
        flow = nrm.allocate("a", "b", 10.0, 0, 100)
        nrm.release(flow)
        with pytest.raises(NetworkError):
            nrm.resize(flow, 20.0)


class TestMeasurement:
    def test_uncongested_flow_delivers_agreed(self, nrm):
        flow = nrm.allocate("a", "c", 30.0, 0, 100)
        measurement = nrm.measure(flow)
        assert measurement.bandwidth_mbps == pytest.approx(30.0)
        assert measurement.delay_ms == pytest.approx(5.0)
        assert measurement.loss == pytest.approx(0.02)

    def test_congestion_squeezes_proportionally(self, nrm, topology):
        flow_one = nrm.allocate("a", "b", 60.0, 0, 100)
        flow_two = nrm.allocate("a", "b", 40.0, 0, 100)
        nrm.set_congestion("a", "b", 0.5)  # usable 50 for 100 booked
        assert nrm.measure(flow_one).bandwidth_mbps == pytest.approx(30.0)
        assert nrm.measure(flow_two).bandwidth_mbps == pytest.approx(20.0)

    def test_degradation_notifies_listeners(self, nrm):
        flow = nrm.allocate("a", "b", 80.0, 0, 100)
        notices = []
        nrm.subscribe_degradation(
            lambda f, m: notices.append((f.flow_id, m.bandwidth_mbps)))
        # usable 50 against 80 booked: the single flow receives 50.
        nrm.set_congestion("a", "b", 0.5)
        assert notices == [(flow.flow_id, pytest.approx(50.0))]

    def test_unaffected_flows_not_notified(self, nrm):
        nrm.allocate("b", "c", 10.0, 0, 100)
        notices = []
        nrm.subscribe_degradation(lambda f, m: notices.append(f.flow_id))
        nrm.set_congestion("a", "b", 0.5)
        assert notices == []

    def test_clearing_congestion_restores(self, nrm):
        flow = nrm.allocate("a", "b", 80.0, 0, 100)
        nrm.set_congestion("a", "b", 0.5)
        nrm.set_congestion("a", "b", 1.0)
        assert nrm.measure(flow).bandwidth_mbps == pytest.approx(80.0)


class TestAdmissibility:
    def test_can_allocate_tracks_the_bottleneck(self, nrm):
        assert nrm.can_allocate("a", "c", 50.0, 0, 10)
        assert not nrm.can_allocate("a", "c", 51.0, 0, 10)
        nrm.allocate("a", "c", 30.0, 0, 10)
        assert not nrm.can_allocate("a", "c", 30.0, 5, 15)
        assert nrm.can_allocate("a", "c", 30.0, 10, 20)

    def test_can_allocate_is_false_without_a_path(self, sim, topology):
        topology.add_site("island", "d1")
        nrm = NetworkResourceManager(sim, topology, "d1")
        assert not nrm.can_allocate("a", "island", 1.0, 0, 10)

    def test_no_links_means_no_bandwidth_limit(self, nrm):
        assert nrm.available_on_links([], 0, 10) == float("inf")
