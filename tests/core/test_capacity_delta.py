"""The delta water-fill's regimes (DESIGN §4).

``CapacityPartition.rebalance`` re-draws only the holdings whose demand
changed while no pool boundary falls inside a guaranteed tier, and
walks every holding otherwise. These tests drive it across each regime
crossing beside the full-recompute oracle, and pin that the quiet pass
does a fixed amount of work whatever the number of live holdings.
"""

from __future__ import annotations

import random

import pytest

from repro.core.capacity import CapacityPartition

from .partition_oracle import MirroredPartition, count_entitled_reads


def _sourcing(partition: CapacityPartition, user: str):
    holding = partition.guaranteed_holding(user)
    return holding.from_g, holding.from_a, holding.from_b


@pytest.fixture
def mirror():
    """Three users fully demanding 12 of Cg=15, behind Ca=6 and Cb=5."""
    mirror = MirroredPartition(15, 6, 5, best_effort_min=2)
    for user in ("u1", "u2", "u3"):
        mirror.apply("admit_guaranteed", user, 4)
        mirror.apply("set_guaranteed_demand", user, 4)
    mirror.check()
    return mirror


class TestRegimeCrossings:
    def test_failure_into_cg_flips_untouched_holdings_and_back(self, mirror):
        partition = mirror.real
        assert _sourcing(partition, "u3") == (4, 0, 0)

        # Effective Cg = 10 < Σ entitled = 12: the boundary is inside
        # tier 1, so u3 — never touched — now draws from Ca.
        mirror.apply("apply_failure", 5)
        mirror.check()
        assert _sourcing(partition, "u1") == (4, 0, 0)
        assert _sourcing(partition, "u3") == (2, 2, 0)
        assert partition.last_report.adapt_transfer == 2

        # A demand change while contended re-draws everyone.
        mirror.apply("set_guaranteed_demand", "u1", 2)
        mirror.check()
        assert _sourcing(partition, "u3") == (4, 0, 0)
        mirror.apply("set_guaranteed_demand", "u1", 4)
        mirror.check()
        assert _sourcing(partition, "u3") == (2, 2, 0)

        # Repair: the pass after a contended one is still a full one,
        # which is what moves u3 back.
        mirror.apply("apply_repair")
        mirror.check()
        assert _sourcing(partition, "u3") == (4, 0, 0)
        mirror.apply("set_guaranteed_demand", "u2", 3)
        mirror.check()
        assert _sourcing(partition, "u2") == (3, 0, 0)

    def test_failure_through_ca_into_cb_and_shortfall(self, mirror):
        partition = mirror.real
        mirror.apply("set_best_effort_demand", "be", 9)
        mirror.apply("apply_failure", 12)      # Cg = 3, Ca = 6
        mirror.check()
        assert _sourcing(partition, "u3") == (0, 1, 3)
        assert "be" in partition.last_report.preempted
        mirror.apply("apply_failure", 9)       # Cg = Ca = 0, Cb = 5
        mirror.check()
        assert partition.last_report.shortfalls == {"u1": 1, "u2": 4,
                                                    "u3": 4}
        mirror.apply("apply_repair")
        mirror.check()
        assert not partition.last_report.shortfalls
        assert _sourcing(partition, "u3") == (4, 0, 0)

    def test_excess_crossing_ca_spills_in_sort_order(self, mirror):
        partition = mirror.real
        mirror.apply("set_guaranteed_demand", "u2", 6)
        mirror.apply("set_guaranteed_demand", "u3", 7)
        mirror.check()
        assert _sourcing(partition, "u3") == (4, 3, 0)

        # Σ excess = 9 > Ca = 6: u1 sorts first and takes Ca, so the
        # untouched u3 is pushed onto Cg's idle head-room.
        mirror.apply("set_guaranteed_demand", "u1", 8)
        mirror.check()
        assert _sourcing(partition, "u1") == (4, 4, 0)
        assert _sourcing(partition, "u3") == (7, 0, 0)

        # Back under Ca: the full pass returns u3 to the reserve.
        mirror.apply("set_guaranteed_demand", "u1", 4)
        mirror.check()
        assert _sourcing(partition, "u3") == (4, 3, 0)

    def test_failure_shrinking_ca_below_the_excess_line(self, mirror):
        mirror.apply("set_guaranteed_demand", "u1", 9)   # excess 5 of Ca 6
        mirror.check()
        mirror.apply("apply_failure", 5)                 # Cg=10: into tier 1
        mirror.check()
        mirror.apply("apply_repair", 2)                  # Cg=12, Ca=6
        mirror.check()
        mirror.apply("apply_repair")
        mirror.check()
        assert _sourcing(mirror.real, "u1") == (4, 5, 0)

    def test_removal_and_clear_while_quiet_and_contended(self, mirror):
        mirror.apply("remove_guaranteed", "u2")
        mirror.check()
        mirror.apply("apply_failure", 9)
        mirror.check()
        mirror.apply("remove_guaranteed", "u1")
        mirror.check()
        mirror.apply("clear_holdings")
        mirror.check()
        assert mirror.real.entitled_total() == 0
        mirror.apply("admit_guaranteed", "u9", 5)
        mirror.apply("set_guaranteed_demand", "u9", 7)
        mirror.check()


class TestDeferredWindow:
    def test_window_settles_repeats_removals_and_admissions(self, mirror):
        partition = mirror.real
        mirror.apply("defer_rebalances")
        assert mirror.apply("set_guaranteed_demand", "u1", 1) is None
        assert mirror.apply("set_guaranteed_demand", "u1", 6) is None
        mirror.apply("admit_guaranteed", "u0", 3)
        assert mirror.apply("set_guaranteed_demand", "u0", 3) is None
        # Reading a holding mid-window flushes the pending pass.
        assert partition.guaranteed_holding("u1").served == 6
        mirror.check()
        mirror.apply("set_guaranteed_demand", "u2", 0)
        mirror.apply("remove_guaranteed", "u2")
        mirror.check()
        assert mirror.apply("resume_rebalances") is None
        mirror.check()


class TestHoldingReferences:
    def test_reference_taken_before_a_mutation_reads_true_after(self):
        partition = CapacityPartition(15, 6, 5)
        early = partition.admit_guaranteed("u1", 4)
        partition.admit_guaranteed("u2", 4)
        partition.set_guaranteed_demand("u1", 4)
        partition.set_guaranteed_demand("u2", 4)
        assert (early.served, early.from_g) == (4, 4)

        partition.set_guaranteed_demand("u1", 6)
        assert (early.demand, early.served, early.from_a) == (6, 6, 2)
        partition.apply_failure(9)                # Cg = 6 < 8 entitled
        other = partition.guaranteed_holding("u2")
        assert (other.from_g, other.from_a) == (2, 2)
        assert (early.from_g, early.from_a) == (4, 2)
        partition.apply_repair()
        assert (other.from_g, other.from_a) == (4, 0)

        partition.defer_rebalances()
        partition.set_guaranteed_demand("u2", 1)
        assert partition.guaranteed_holding("u2") is other
        assert other.served == 1
        partition.resume_rebalances()


class TestRunningTotals:
    def test_ten_thousand_fractional_steps_do_not_drift(self):
        rng = random.Random(14)
        partition = CapacityPartition(400, 120, 80)
        live: list = []
        for step in range(10_000):
            roll = rng.random()
            if roll < 0.3 or not live:
                committed = rng.uniform(0.1, 9.0)
                if partition.available_guaranteed_resource(committed):
                    user = f"u{step}"
                    partition.admit_guaranteed(user, committed)
                    partition.set_guaranteed_demand(user, committed)
                    live.append(user)
            elif roll < 0.8:
                user = rng.choice(live)
                committed = partition.guaranteed_holding(user).committed
                partition.set_guaranteed_demand(
                    user, committed * rng.uniform(0.0, 1.2))
            else:
                partition.remove_guaranteed(
                    live.pop(rng.randrange(len(live))))
        holdings = partition.guaranteed_holdings()
        assert len(holdings) > 20
        assert partition.entitled_total() == pytest.approx(
            sum(h.entitled for h in holdings), abs=1e-9)
        assert partition.committed_total() == pytest.approx(
            sum(h.committed for h in holdings), abs=1e-9)
        assert partition.total_served() == pytest.approx(
            sum(h.served for h in holdings), abs=1e-9)

    def test_totals_are_zeroed_when_the_last_holding_leaves(self):
        partition = CapacityPartition(15, 6, 5)
        for user, committed in (("a", 0.1), ("b", 0.2), ("c", 0.3)):
            partition.admit_guaranteed(user, committed)
            partition.set_guaranteed_demand(user, committed * 1.7)
        for user in "abc":
            partition.remove_guaranteed(user)
        assert partition.entitled_total() == 0.0
        assert partition.committed_total() == 0.0
        assert partition.last_report.pools[1].excess == 0.0


class TestQuietPassWork:
    @pytest.mark.parametrize("live", [200, 800])
    def test_quiet_pass_draws_only_the_touched_holding(self, monkeypatch,
                                                       live):
        partition = CapacityPartition(2 * live, live, live)
        for index in range(live):
            partition.admit_guaranteed(f"u{index:05d}", 1)
            partition.set_guaranteed_demand(f"u{index:05d}", 1)
        reads = count_entitled_reads(monkeypatch)
        partition.set_guaranteed_demand("u00007", 2)
        partition.set_best_effort_demand("be", 3)
        partition.apply_failure(1)
        partition.remove_guaranteed("u00009")
        quiet_reads = reads[0]
        assert quiet_reads < 12

        # A failure that reaches the entitled line walks every holding.
        partition.apply_failure(live + 2)
        assert reads[0] - quiet_reads >= live - 1
