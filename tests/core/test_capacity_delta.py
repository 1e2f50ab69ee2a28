"""The delta water-fill across pool-boundary crossings (DESIGN §4).

``CapacityPartition.rebalance`` draws no holding: it re-sums the kept
demand lines from the lowest changed position and stores the five pool
boundaries, and a holding draws its own place off them when it is
read. These tests drive it across each crossing beside the
full-recompute oracle, edit the sort-order index while a boundary is
inside a tier, read holding references taken before a pass, inside a
deferred window and after they left, and pin the work done — counted
in draws and in prefix-sum entries, not time — whatever the number of
live holdings.
"""

from __future__ import annotations

import random
from bisect import bisect_left

import pytest

from repro.core import capacity as capacity_module
from repro.core.capacity import CapacityPartition
from repro.probe import Probe
from repro.recovery.journal import Journal

from .partition_oracle import (
    MirroredPartition,
    assert_lines_kept,
    count_entitled_reads,
    count_redraws,
    count_resummed,
    fresh_oracle,
    holding_values,
    scratch_cuts,
)


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


def _left_fold(values):
    """``values`` added left to right, one rounding per step.

    The partition's lines are this fold (``itertools.accumulate``), so
    it is the exact oracle on any interpreter; builtin ``sum`` is not:
    from CPython 3.12 it compensates, and differs in the last digits.
    """
    total = 0.0
    for value in values:
        total += value
    return total


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


class TestRegimeCrossingsListed(TestRegimeCrossings):
    """The same crossings with the index built up front by a holdings
    listing instead of by the first contended pass."""

    @pytest.fixture
    def mirror(self, mirror):
        mirror.listing = True
        mirror.check()
        assert mirror.real._keys == ["u1", "u2", "u3"]
        return mirror


class TestIndexMaintenance:
    """Admissions and removals while a boundary is inside a tier: the
    index is edited in place, and a holding read before the next pass
    still finds its place on the last pass's lines."""

    @pytest.fixture
    def contended(self, mirror):
        # Cg = 10 cuts the entitled line inside u3 (position 2); u2 and
        # u3 run over, and Ca = 6 less the 2 units tier 1 took cuts
        # the excess line inside u3 as well.
        mirror.apply("apply_failure", 5)
        mirror.apply("set_guaranteed_demand", "u2", 7)
        mirror.apply("set_guaranteed_demand", "u3", 6)
        mirror.check()
        assert scratch_cuts(mirror.real, mirror.holdings()) == [2, 3, 3, 2, 2]
        return mirror

    @pytest.mark.parametrize("user", ["a0", "u1+", "u2+", "z9"])
    @pytest.mark.parametrize("deferred", [False, True])
    def test_admission_before_between_and_after(self, contended, user,
                                                deferred):
        mirror = contended
        if deferred:
            mirror.apply("defer_rebalances")
        mirror.apply("admit_guaranteed", user, 3)
        assert user in mirror.real._keys
        # Demand on the newcomer pushes every later holding down both
        # lines: the boundaries move left, past the old straddler.
        mirror.apply("set_guaranteed_demand", user, 5)
        if deferred:
            mirror.apply("set_guaranteed_demand", "u1", 1)
            mirror.apply("resume_rebalances")
        mirror.check()
        mirror.apply("remove_guaranteed", user)
        mirror.check()

    @pytest.mark.parametrize("user", ["u1", "u2", "u3"])
    @pytest.mark.parametrize("deferred", [False, True])
    def test_removing_the_straddler_and_its_neighbours(self, contended,
                                                       user, deferred):
        mirror = contended
        if deferred:
            mirror.apply("defer_rebalances")
            mirror.apply("admit_guaranteed", "u0", 2)
            mirror.apply("set_guaranteed_demand", "u0", 2)
        mirror.apply("remove_guaranteed", user)
        mirror.check()
        if deferred:
            mirror.apply("resume_rebalances")
        mirror.apply("apply_repair")
        mirror.check()

    def test_admission_ahead_of_a_cut_hands_the_boundary_back(self):
        mirror = MirroredPartition(15, 6, 5)
        for index in range(1, 7):
            mirror.apply("admit_guaranteed", f"u{index}", 2)
            mirror.apply("set_guaranteed_demand", f"u{index}", 2)
        mirror.apply("apply_failure", 8)         # Cg = 7: inside u4
        mirror.check()
        assert scratch_cuts(mirror.real, mirror.holdings())[0] == 3
        assert _sourcing(mirror.real, "u4") == (1, 1, 0)

        # A newcomer sorting first pushes everyone two units down the
        # line: u3 takes over the boundary at the same position, and
        # u4 — one place further on, touched by nobody — leaves Cg.
        # Until its demand is set no pass ran: u4 reads as before.
        mirror.apply("admit_guaranteed", "a0", 2)
        assert _sourcing(mirror.real, "u4") == (1, 1, 0)
        mirror.apply("set_guaranteed_demand", "a0", 2)
        mirror.check()
        assert scratch_cuts(mirror.real, mirror.holdings())[0] == 3
        assert _sourcing(mirror.real, "u3") == (1, 1, 0)
        assert _sourcing(mirror.real, "u4") == (0, 2, 0)

    def test_wipe_drops_the_index(self, contended):
        contended.apply("clear_holdings")
        contended.check()
        assert contended.real._keys is None
        contended.apply("admit_guaranteed", "u5", 4)
        contended.apply("set_guaranteed_demand", "u5", 9)
        contended.check()
        assert contended.real._keys is None

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


def _contended(**options) -> CapacityPartition:
    """Cg = 7 of 15 cuts the entitled line inside u4 of six users, and
    u5/u6 run two units over: the index exists and every holding is
    stale (no read since the last pass)."""
    partition = CapacityPartition(15, 6, 5, best_effort_min=1, **options)
    for index in range(1, 7):
        partition.admit_guaranteed(f"u{index}", 2)
        partition.set_guaranteed_demand(f"u{index}", 2 + 2 * (index > 4))
    partition.apply_failure(8)
    assert partition._keys is not None
    return partition


def _expected(partition: CapacityPartition) -> dict:
    """Every holding's values as a full recompute of the current
    inputs draws them (reads no production holding's draw)."""
    return {holding.user: holding_values(holding)
            for holding in fresh_oracle(partition).guaranteed_holdings()}


class TestDrawOnRead:
    """A holding draws itself off the last pass when read: a reference
    taken before a pass reads that pass, a read never runs one, and a
    holding that left keeps its last draw."""

    def test_references_taken_before_a_failure_read_the_new_draw(self):
        partition = _contended()
        early = {user: partition.guaranteed_holding(user)
                 for user in ("u1", "u4", "u6")}
        assert holding_values(early["u4"])[2:] == (2, 1, 1, 0)
        partition.apply_failure(4)                      # Cg = 3: u2..u6
        expected = _expected(partition)
        for user, holding in early.items():
            assert holding_values(holding) == expected[user]
        assert holding_values(early["u4"])[2:] == (2, 0, 2, 0)
        partition.apply_repair()
        expected = _expected(partition)
        for user, holding in early.items():
            assert holding_values(holding) == expected[user]

    @pytest.mark.parametrize("indexed", [False, True])
    def test_a_read_inside_a_deferred_window_reads_the_last_pass(
            self, indexed):
        journal = Journal()
        if indexed:
            partition = _contended(probe=Probe(journal=journal))
        else:
            partition = CapacityPartition(15, 6, 5,
                                          probe=Probe(journal=journal))
            for user in ("u1", "u2", "u3"):
                partition.admit_guaranteed(user, 2)
                partition.set_guaranteed_demand(user, 3)
            assert partition._keys is None
        references = {user: partition._guaranteed[user]
                      for user in sorted(partition._guaranteed)}
        before, lsn = _expected(partition), journal.last_lsn
        partition.defer_rebalances()
        # A newcomer sorting first takes an index place ahead of every
        # reference but none on the last pass's lines.
        partition.admit_guaranteed("a0", 1)
        partition.set_guaranteed_demand("a0", 1)
        partition.set_guaranteed_demand("u1", 0)
        partition.set_guaranteed_demand("u3", 1)
        for user, holding in references.items():
            assert holding_values(holding)[2:] == before[user][2:]
        assert journal.last_lsn == lsn and partition._dirty
        partition.resume_rebalances()
        assert journal.last_lsn > lsn
        after = _expected(partition)
        for user, holding in references.items():
            assert holding_values(holding) == after[user]

    def test_a_removed_holding_reads_its_last_draw_forever(self):
        partition = _contended()
        gone = partition._guaranteed["u4"]      # stale: never read
        last = _expected(partition)["u4"]
        partition.remove_guaranteed("u4")
        # Re-admit the key and move every boundary: the old reference
        # belongs to nobody and draws nothing.
        partition.admit_guaranteed("u4", 3)
        partition.set_guaranteed_demand("u4", 5)
        partition.apply_failure(3)
        partition.apply_repair()
        assert holding_values(gone) == last
        assert partition.guaranteed_holding("u4") is not gone

    def test_clear_holdings_freezes_every_holding(self):
        partition = _contended()
        references = dict(partition._guaranteed)
        last = _expected(partition)
        partition.clear_holdings()
        for user in references:
            partition.admit_guaranteed(user, 1)
            partition.set_guaranteed_demand(user, 1)
        partition.apply_failure(2)
        for user, holding in references.items():
            assert holding_values(holding) == last[user]

    def test_holdings_listed_between_passes_read_their_whole_demand(self):
        # The listing builds the index after a pass that had none: its
        # lines are not summed until the next pass.
        partition = CapacityPartition(15, 6, 5)
        for user in ("u1", "u2", "u3"):
            partition.admit_guaranteed(user, 3)
            partition.set_guaranteed_demand(user, 4)
        partition.clear_holdings()
        for user in ("u1", "u2", "u3"):
            partition.admit_guaranteed(user, 2)
            partition.set_guaranteed_demand(user, 3)
        assert partition._keys is None
        holdings = partition.guaranteed_holdings()
        assert partition._keys == ["u1", "u2", "u3"]
        assert [holding_values(holding)[2:] for holding in holdings] == [
            (3, 2, 1, 0)] * 3


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

    def test_ten_thousand_contended_steps_re_derive_the_totals(self):
        # Demand runs up to twice the commitment, so Σ excess stays
        # above Ca and failures reach the entitled line: every pass has
        # the index, and re-derives both totals from its lines.
        rng = random.Random(23)
        partition = CapacityPartition(400, 60, 40, best_effort_min=10)
        live: list = []
        for step in range(10_000):
            roll = rng.random()
            if roll < 0.25 or not live:
                committed = rng.uniform(0.1, 9.0)
                if partition.available_guaranteed_resource(committed):
                    user = f"u{rng.randrange(10**6):06d}-{step}"
                    partition.admit_guaranteed(user, committed)
                    partition.set_guaranteed_demand(
                        user, committed * rng.uniform(0.5, 2.0))
                    live.append(user)
            elif roll < 0.7:
                user = rng.choice(live)
                committed = partition.guaranteed_holding(user).committed
                partition.set_guaranteed_demand(
                    user, committed * rng.uniform(0.0, 2.0))
            elif roll < 0.8:
                partition.apply_failure(rng.uniform(0.0, 150.0))
            elif roll < 0.9:
                partition.apply_repair(rng.uniform(0.0, 200.0))
            else:
                partition.remove_guaranteed(
                    live.pop(rng.randrange(len(live))))
        assert partition._keys is not None
        holdings = partition.guaranteed_holdings()
        assert len(holdings) > 20
        # Not approximately: the totals are the ends of the two lines,
        # left-folded in sort order like this.
        assert partition.entitled_total() == _left_fold(
            h.entitled for h in holdings)
        assert partition._excess == _left_fold(h.excess for h in holdings)
        assert partition.committed_total() == pytest.approx(
            sum(h.committed for h in holdings), abs=1e-9)
        assert partition.total_served() == pytest.approx(
            sum(h.served for h in holdings), abs=1e-9)

        oracle = fresh_oracle(partition)
        for mine, theirs in zip(holdings, oracle.guaranteed_holdings()):
            assert (mine.from_g, mine.from_a, mine.from_b) == pytest.approx(
                (theirs.from_g, theirs.from_a, theirs.from_b), abs=1e-9)

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
        assert reads[0] < 12


class TestContendedPassWork:
    """With a boundary inside a tier a pass still draws no holding, and
    reading k holdings draws at most k — counted as draws, at 2 000
    live; the lines are re-summed from the lowest changed position."""

    LIVE = 2000

    @pytest.fixture
    def partition(self):
        # Every other holding runs one unit over its commitment:
        # Σ excess = 1000 > Ca = 700, so the Ca boundary of the excess
        # line sits inside tier 2 from the start.
        partition = CapacityPartition(2600, 700, 100)
        for index in range(self.LIVE):
            partition.admit_guaranteed(f"u{index:05d}", 1)
            partition.set_guaranteed_demand(f"u{index:05d}", 1 + index % 2)
        assert partition.last_report.pools[0].excess == 300
        return partition

    def _matches_a_fresh_recompute(self, partition):
        oracle = fresh_oracle(partition)
        assert ([holding_values(holding)
                 for holding in partition.guaranteed_holdings()]
                == [holding_values(holding)
                    for holding in oracle.guaranteed_holdings()])
        mine, theirs = partition.last_report, oracle.last_report
        assert list(mine.shortfalls.items()) == list(theirs.shortfalls.items())
        assert (mine.pools, mine.adapt_transfer) == (theirs.pools,
                                                     theirs.adapt_transfer)

    def test_demand_admit_and_remove_draw_no_other_holding(
            self, monkeypatch, partition):
        drawn = count_redraws(monkeypatch)
        partition.set_guaranteed_demand("u00101", 1)
        partition.set_guaranteed_demand("u01900", 3)
        partition.set_best_effort_demand("be", 50)
        assert drawn == []
        # A departing holding keeps its last draw: drawn once, itself.
        for user in ("u00007", "u01401"):
            partition.remove_guaranteed(user)
            assert drawn == [user]
            drawn.clear()
        for user in ("a-first", "u01000-between", "z-last"):
            partition.admit_guaranteed(user, 1)
            partition.set_guaranteed_demand(user, 2)
            assert drawn == []
        self._matches_a_fresh_recompute(partition)

    @pytest.mark.parametrize("lost", [350, 770, 2000])
    def test_failure_and_repair_draw_only_what_is_read(
            self, monkeypatch, partition, lost):
        drawn = count_redraws(monkeypatch)
        for change in (lambda: partition.apply_failure(lost),
                       lambda: partition.set_guaranteed_demand("u00500", 2),
                       partition.apply_repair):
            change()
            assert drawn == []
            # Reading k holdings, each field of each, draws k.
            for user in ("u00000", "u00999", "u01999"):
                holding = partition.guaranteed_holding(user)
                assert holding.from_g + holding.from_a + holding.from_b \
                    == pytest.approx(holding.served, abs=1e-9)
                assert holding.served == holding.served
            assert drawn == ["u00000", "u00999", "u01999"]
            self._matches_a_fresh_recompute(partition)
            assert len(drawn) <= 3 + self.LIVE
            drawn.clear()

    @pytest.mark.parametrize("lost", [770, 2000])
    def test_a_listing_draws_each_stale_holding_by_position(
            self, monkeypatch, partition, lost):
        partition.apply_failure(lost)
        # Keys admitted since the pass sit in the index but off the
        # lines: the listing steps over them, and over nothing else.
        for user in ("a-first", "u01000-between", "z-last"):
            partition.admit_guaranteed(user, 1)
        searched = []

        def counting(keys, user):
            searched.append(user)
            return bisect_left(keys, user)
        monkeypatch.setattr(capacity_module, "bisect_left", counting)
        drawn = count_redraws(monkeypatch)
        holdings = partition.guaranteed_holdings()
        assert searched == []
        assert drawn == [f"u{index:05d}" for index in range(self.LIVE)]
        drawn.clear()
        values = [holding_values(holding) for holding in holdings]
        assert drawn == []
        monkeypatch.undo()
        assert values == [holding_values(holding) for holding in
                          fresh_oracle(partition).guaranteed_holdings()]

    @pytest.mark.parametrize("position", [0, 1, 1234, 1999])
    def test_a_touched_holding_resums_from_its_position(
            self, monkeypatch, partition, position):
        folds = count_resummed(monkeypatch)
        partition.set_guaranteed_demand(f"u{position:05d}", 3)
        assert folds == [self.LIVE - position] * 2
        self._matches_a_fresh_recompute(partition)

    def test_admit_and_remove_resum_from_their_position(self, monkeypatch,
                                                        partition):
        folds = count_resummed(monkeypatch)
        partition.remove_guaranteed("u00007")  # position 7 of 1 999 left
        assert folds == [1999 - 7] * 2
        partition.admit_guaranteed("u01500+", 1)  # lands at 1 500
        partition.set_guaranteed_demand("u01500+", 2)
        assert folds[2:] == [2000 - 1500] * 2
        # The lowest change wins: a later and an earlier one, one pass.
        partition.defer_rebalances()
        partition.set_guaranteed_demand("u01800", 2)
        partition.set_guaranteed_demand("u00300", 2)
        partition.resume_rebalances()
        assert folds[4:] == [2000 - 299] * 2  # u00007 left: 300 is at 299
        self._matches_a_fresh_recompute(partition)

    def test_a_rebuilt_index_sums_its_lines_from_the_start(self, partition):
        # The crash-recovery wipe drops the index; the one the next
        # contended pass builds must not trust the old lines' entries.
        partition.clear_holdings()
        for index in range(self.LIVE + 400):
            user = f"v{index:05d}"
            partition.admit_guaranteed(user, 1)
            partition.set_guaranteed_demand(user, 2 - index % 2)
        assert partition._keys is not None
        assert_lines_kept(partition)
        self._matches_a_fresh_recompute(partition)

    @pytest.mark.parametrize("lost", [350, 770])
    def test_failure_and_repair_resum_nothing(self, monkeypatch, partition,
                                              lost):
        folds = count_resummed(monkeypatch)
        partition.apply_failure(lost)
        partition.apply_repair(lost / 2)
        partition.apply_repair()
        assert folds == [0] * 6
        self._matches_a_fresh_recompute(partition)
