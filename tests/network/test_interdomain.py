"""Tests for inter-domain coordination (repro.network.interdomain)."""

from __future__ import annotations

import pytest

from repro.errors import CapacityError, NetworkError
from repro.network.interdomain import InterDomainCoordinator
from repro.network.nrm import NetworkResourceManager
from repro.network.topology import Topology


@pytest.fixture
def setup(sim):
    """Three domains in a chain: d1(a1-a2) - d2(b1) - d3(c1)."""
    topology = Topology()
    topology.add_site("a1", "d1")
    topology.add_site("a2", "d1")
    topology.add_site("b1", "d2")
    topology.add_site("c1", "d3")
    topology.add_link("a1", "a2", 200.0, delay_ms=1.0)
    topology.add_link("a2", "b1", 100.0, delay_ms=5.0)  # owned by d1
    topology.add_link("b1", "c1", 50.0, delay_ms=5.0)   # owned by d2
    nrms = [NetworkResourceManager(sim, topology, domain)
            for domain in ("d1", "d2", "d3")]
    return topology, nrms, InterDomainCoordinator(topology, nrms)


class TestSegmentation:
    def test_end_to_end_allocation_books_each_domain(self, setup):
        topology, nrms, coordinator = setup
        allocation = coordinator.allocate("a1", "c1", 40.0, 0, 100)
        domains = [nrm.domain for nrm, _flow in allocation.segments]
        assert domains == ["d1", "d2"]
        d1, d2 = nrms[0], nrms[1]
        assert d1.available_on_links(
            [topology.link("a1", "a2")], 0, 100) == 160.0
        assert d2.available_on_links(
            [topology.link("b1", "c1")], 0, 100) == 10.0

    def test_intra_domain_allocation_single_segment(self, setup):
        _topology, _nrms, coordinator = setup
        allocation = coordinator.allocate("a1", "a2", 40.0, 0, 100)
        assert len(allocation.segments) == 1


class TestTwoPhase:
    def test_downstream_refusal_rolls_back_upstream(self, setup):
        topology, nrms, coordinator = setup
        nrms[1].allocate("b1", "c1", 45.0, 0, 100)  # leaves 5 in d2
        with pytest.raises(CapacityError):
            coordinator.allocate("a1", "c1", 40.0, 0, 100)
        # d1's bookings were rolled back.
        assert nrms[0].available_on_links(
            [topology.link("a1", "a2")], 0, 100) == 200.0
        assert nrms[0].available_on_links(
            [topology.link("a2", "b1")], 0, 100) == 100.0

    def test_can_allocate_respects_bottleneck(self, setup):
        _topology, _nrms, coordinator = setup
        assert coordinator.can_allocate("a1", "c1", 50.0, 0, 100)
        assert not coordinator.can_allocate("a1", "c1", 51.0, 0, 100)

    def test_release_frees_all_segments(self, setup):
        _topology, _nrms, coordinator = setup
        allocation = coordinator.allocate("a1", "c1", 40.0, 0, 100)
        allocation.release()
        assert coordinator.can_allocate("a1", "c1", 50.0, 0, 100)
        assert not allocation.active

    def test_unknown_domain_rejected(self, sim):
        topology = Topology()
        topology.add_site("x", "dx")
        topology.add_site("y", "dy")
        topology.add_link("x", "y", 10.0)
        coordinator = InterDomainCoordinator(
            topology, [NetworkResourceManager(sim, topology, "dy")])
        with pytest.raises(NetworkError):
            coordinator.allocate("x", "y", 5.0, 0, 100)

    def test_duplicate_nrm_rejected(self, sim):
        topology = Topology()
        topology.add_site("x", "dx")
        with pytest.raises(NetworkError):
            InterDomainCoordinator(topology, [
                NetworkResourceManager(sim, topology, "dx"),
                NetworkResourceManager(sim, topology, "dx"),
            ])


class TestMeasurement:
    def test_end_to_end_measure_is_min_over_segments(self, setup):
        topology, nrms, coordinator = setup
        allocation = coordinator.allocate("a1", "c1", 40.0, 0, 100)
        # Congest d2's link: usable 25 for 40 booked.
        nrms[1].set_congestion("b1", "c1", 0.5)
        assert coordinator.measure(allocation) == pytest.approx(25.0)


class TestRegistry:
    def test_nrms_are_listed_in_domain_order(self, sim):
        topology = Topology()
        for site, domain in (("z1", "dz"), ("a1", "da"), ("m1", "dm")):
            topology.add_site(site, domain)
        nrms = [NetworkResourceManager(sim, topology, domain)
                for domain in ("dz", "da", "dm")]
        coordinator = InterDomainCoordinator(topology, nrms)
        assert [nrm.domain for nrm in coordinator.nrms()] \
            == ["da", "dm", "dz"]
        assert coordinator.nrms()[0] is coordinator.nrm_for("da")
