"""Tests for the network topology (repro.network.topology)."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.network.topology import Topology


@pytest.fixture
def paper_topology():
    """The Section 5.6 sites: A (compute), B (database), C (scientists)."""
    topology = Topology()
    topology.add_site("siteA", "domain1", address="192.200.168.33")
    topology.add_site("siteB", "domain1", address="135.200.50.101")
    topology.add_site("siteC", "domain2", address="10.2.0.1")
    topology.add_link("siteA", "siteB", 622.0, delay_ms=5.0)
    topology.add_link("siteC", "siteA", 155.0, delay_ms=8.0, loss=0.01)
    return topology


class TestConstruction:
    def test_duplicate_site_rejected(self, paper_topology):
        with pytest.raises(NetworkError):
            paper_topology.add_site("siteA", "domain1")

    def test_duplicate_link_rejected(self, paper_topology):
        with pytest.raises(NetworkError):
            paper_topology.add_link("siteB", "siteA", 100.0)

    def test_self_link_rejected(self, paper_topology):
        with pytest.raises(NetworkError):
            paper_topology.add_link("siteA", "siteA", 100.0)

    def test_link_to_unknown_site_rejected(self, paper_topology):
        with pytest.raises(NetworkError):
            paper_topology.add_link("siteA", "ghost", 100.0)

    def test_owner_domain_defaults_to_a_side(self, paper_topology):
        assert paper_topology.link("siteC", "siteA").owner_domain == "domain2"
        assert paper_topology.link("siteA", "siteB").owner_domain == "domain1"


class TestLookup:
    def test_site_by_address(self, paper_topology):
        assert paper_topology.site_by_address("192.200.168.33").name == "siteA"

    def test_unknown_address(self, paper_topology):
        with pytest.raises(NetworkError):
            paper_topology.site_by_address("1.2.3.4")

    def test_link_lookup_is_symmetric(self, paper_topology):
        assert paper_topology.link("siteA", "siteB") is \
            paper_topology.link("siteB", "siteA")

    def test_domains_derived_from_sites(self, paper_topology):
        domains = {d.name: d.sites for d in paper_topology.domains()}
        assert domains == {"domain1": ("siteA", "siteB"),
                           "domain2": ("siteC",)}


class TestPaths:
    def test_direct_path(self, paper_topology):
        links = paper_topology.path("siteB", "siteA")
        assert len(links) == 1
        assert links[0].capacity_mbps == 622.0

    def test_two_hop_path(self, paper_topology):
        links = paper_topology.path("siteC", "siteB")
        assert len(links) == 2

    def test_path_to_self_is_empty(self, paper_topology):
        assert paper_topology.path("siteA", "siteA") == []

    def test_no_path_raises(self, paper_topology):
        paper_topology.add_site("island", "domain3")
        with pytest.raises(NetworkError):
            paper_topology.path("siteA", "island")

    def test_delay_is_additive(self, paper_topology):
        links = paper_topology.path("siteC", "siteB")
        assert sum(link.delay_ms for link in links) == pytest.approx(13.0)

    def test_shortest_by_delay_not_hops(self):
        topology = Topology()
        for name in ("a", "b", "c"):
            topology.add_site(name, "d")
        topology.add_link("a", "c", 100.0, delay_ms=100.0)  # direct, slow
        topology.add_link("a", "b", 100.0, delay_ms=1.0)
        topology.add_link("b", "c", 100.0, delay_ms=1.0)
        assert len(topology.path("a", "c")) == 2


class TestCongestion:
    def test_congestion_scales_usable_capacity(self, paper_topology):
        link = paper_topology.link("siteA", "siteB")
        link.set_congestion(0.5)
        assert link.usable_mbps == pytest.approx(311.0)

    def test_invalid_factor_rejected(self, paper_topology):
        link = paper_topology.link("siteA", "siteB")
        with pytest.raises(NetworkError):
            link.set_congestion(0.0)
        with pytest.raises(NetworkError):
            link.set_congestion(1.5)


class TestSiteLookup:
    def test_site_by_name(self, paper_topology):
        site = paper_topology.site("siteB")
        assert (site.domain, site.address) == ("domain1", "135.200.50.101")

    def test_unknown_site(self, paper_topology):
        with pytest.raises(NetworkError):
            paper_topology.site("ghost")
