"""Tests for the capacity gauge set (repro.telemetry.capacity)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.capacity import CapacityPartition
from repro.probe import Probe
from repro.telemetry.capacity import POOLS, CapacityGauges
from repro.telemetry.metrics import MetricsRegistry


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def registry(clock):
    return MetricsRegistry(now=clock)


def observed_partition(gauges, **kwargs):
    """A partition whose probe feeds the gauges from its very first
    (constructor) rebalance."""
    hub = SimpleNamespace(capacity=gauges)
    return CapacityPartition(probe=Probe(telemetry=hub), **kwargs)


def effective_pools(registry):
    """Each pool's current effective capacity, read exactly."""
    return {pool: registry.time_gauge("repro_capacity_effective",
                                      pool=pool).value
            for pool in POOLS}


class TestGaugeFeed:
    def test_prime_records_the_nominal_split(self, registry):
        gauges = CapacityGauges(registry)
        observed_partition(gauges, guaranteed=15, adaptive=6,
                           best_effort=5)
        effective = effective_pools(registry)
        assert effective == {"g": 15, "a": 6, "b": 5}
        assert registry.counter_value(
            "repro_capacity_rebalances_total") == 1

    def test_every_rebalance_refreshes_the_gauges(self, registry, clock):
        gauges = CapacityGauges(registry)
        partition = observed_partition(gauges, guaranteed=15, adaptive=6,
                                       best_effort=5)
        clock.now = 30.0
        partition.apply_failure(4.0)
        assert effective_pools(registry)["g"] == 11
        assert registry.time_gauge("repro_capacity_failed").value == 4
        clock.now = 60.0
        partition.apply_repair()
        assert effective_pools(registry)["g"] == 15

    def test_time_weighted_occupancy_is_exact(self, registry, clock):
        gauges = CapacityGauges(registry)
        partition = observed_partition(gauges, guaranteed=15, adaptive=6,
                                       best_effort=5)
        clock.now = 30.0
        partition.apply_failure(8.0)
        clock.now = 60.0
        partition.apply_repair()
        clock.now = 120.0
        # Cg: 15 over [0,30), 7 over [30,60), 15 over [60,120).
        mean = registry.time_gauge("repro_capacity_effective",
                                   pool="g").mean()
        assert mean == pytest.approx((30 * 15 + 30 * 7 + 60 * 15) / 120)

    def test_borrowing_shows_up_as_allocated_and_transfer(self, registry):
        gauges = CapacityGauges(registry)
        partition = observed_partition(gauges, guaranteed=10, adaptive=6,
                                       best_effort=5)
        partition.admit_guaranteed("user-1", 10.0)
        partition.set_guaranteed_demand("user-1", 10.0)
        # A failure shrinks Cg to 6; Adapt() borrows 4 from Ca so the
        # commitment stays served — and the gauges show it.
        partition.apply_failure(4.0)
        assert registry.time_gauge("repro_capacity_allocated", pool="a",
                                   tier="guaranteed").value \
            == pytest.approx(4.0)
        assert registry.time_gauge("repro_capacity_adapt_transfer").value \
            == pytest.approx(4.0)

    def test_shortfall_sets_gauge_and_counter(self, registry):
        gauges = CapacityGauges(registry)
        partition = observed_partition(gauges, guaranteed=10, adaptive=0,
                                       best_effort=0)
        partition.admit_guaranteed("user-1", 10.0)
        partition.set_guaranteed_demand("user-1", 10.0)
        partition.apply_failure(6.0)
        assert registry.gauge("repro_capacity_shortfall").value \
            == pytest.approx(6.0)
        assert registry.counter_value(
            "repro_capacity_shortfall_events_total") >= 1

    def test_none_report_without_history_is_a_noop(self, registry):
        gauges = CapacityGauges(registry)

        class Bare:
            last_report = None

        gauges.on_rebalance(Bare(), None)
        assert registry.render_prometheus() == ""

    def test_pool_keys_match_the_paper(self):
        assert POOLS == ("g", "a", "b")
