"""Tests for testbed wiring (repro.core.testbed)."""

from __future__ import annotations

import pytest

from repro.core.testbed import build_multidomain, build_testbed


class TestSingleDomain:
    def test_paper_proportions(self, testbed):
        assert testbed.machine.grid_nodes == 26
        assert (testbed.partition.cg, testbed.partition.ca,
                testbed.partition.cb) == (15.0, 6.0, 5.0)
        assert testbed.machine.total_nodes == 64

    def test_default_services_registered(self, testbed):
        names = {record.name for record in testbed.registry.records()}
        assert "simulation-service" in names
        assert len(names) == 3

    def test_sla_ids_look_like_the_paper(self, testbed):
        assert testbed.repository.next_id() == 1000

    def test_partition_must_sum_to_total(self):
        with pytest.raises(ValueError):
            build_testbed(total_cpu=26, guaranteed_cpu=10, adaptive_cpu=6,
                          best_effort_cpu=5)

    def test_custom_partition(self):
        testbed = build_testbed(total_cpu=40, guaranteed_cpu=20,
                                adaptive_cpu=10, best_effort_cpu=10)
        assert testbed.partition.total == 40

    def test_topology_has_paper_addresses(self, testbed):
        assert testbed.topology.site_by_address(
            "192.200.168.33").name == "siteA"
        assert testbed.topology.site_by_address(
            "135.200.50.101").name == "siteB"

    def test_determinism(self):
        a = build_testbed(seed=3)
        b = build_testbed(seed=3)
        assert a.rng.uniform(0, 1) == b.rng.uniform(0, 1)


class TestMultiDomain:
    def test_figure1_two_domains(self):
        world = build_multidomain(domains=2)
        assert set(world.brokers) == {"domain1", "domain2"}
        assert len(world.topology.links()) == 1

    def test_brokers_share_the_coordinator(self):
        world = build_multidomain(domains=3)
        for broker in world.brokers.values():
            assert broker.coordinator is world.coordinator

    def test_cross_domain_allocation_possible(self):
        world = build_multidomain(domains=2)
        allocation = world.coordinator.allocate("site1", "site2", 100.0,
                                                0, 50)
        assert len(allocation.segments) == 1
        allocation.release()

    def test_sla_id_ranges_disjoint(self):
        world = build_multidomain(domains=2)
        first = world.brokers["domain1"].repository.next_id()
        second = world.brokers["domain2"].repository.next_id()
        assert abs(first - second) >= 1000

    def test_both_builders_split_by_section_5_6(self, testbed):
        world = build_multidomain(domains=2)
        splits = [(partition.cg, partition.ca, partition.cb)
                  for partition in [testbed.partition]
                  + [broker.partition for broker in world.brokers.values()]]
        assert splits == [(15, 6, 5)] * 3

    def test_at_least_one_domain_required(self):
        with pytest.raises(ValueError):
            build_multidomain(domains=0)
