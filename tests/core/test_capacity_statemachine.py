"""Stateful property test: the capacity partition under arbitrary
operation sequences.

A hypothesis rule-based state machine performs random interleavings of
admissions, demand changes, removals, best-effort churn, failures
(including ones sized to land on each pool boundary), repairs and
deferred-rebalance windows, checking the Algorithm 1 invariants after
every step — and, after every step, that the delta water-fill left
exactly the state the full-recompute oracle computes
(``tests/core/partition_oracle.py``): ``==`` in the runs whose inputs
are all integer-valued, within 1e-9 in the fractional ones. The same
check holds the sort-order index to the holdings and the remembered
cut positions to a from-scratch search, across admissions that land
before, between and after the live keys and removals of the holding a
boundary straddles, in and out of a deferred window — and the two
demand lines the partition keeps between passes to a fresh prefix sum,
bit for bit, up to their low-water mark.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from .partition_oracle import MirroredPartition, assert_lines_kept

CG, CA, CB, BE_MIN = 15.0, 6.0, 5.0, 2.0
_EPSILON = 1e-6


class PartitionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.mirror = MirroredPartition(CG, CA, CB, best_effort_min=BE_MIN)
        self.partition = self.mirror.real
        self.guaranteed: dict = {}
        self.best_effort: set = set()
        self.counter = 0
        self.integral = True

    @initialize(integral=st.booleans(), listing=st.booleans())
    def choose_arithmetic(self, integral, listing):
        """Integer-valued runs are compared ``==``, the rest to 1e-9;
        listing runs build the sort-order index at the first check,
        the others only once a boundary falls inside a tier."""
        self.integral = integral
        self.mirror.listing = listing

    def _amount(self, value: float) -> float:
        return float(round(value)) if self.integral else value

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    @rule(committed=st.integers(min_value=1, max_value=8))
    def admit(self, committed):
        self.counter += 1
        user = f"g{self.counter}"
        if self.partition.available_guaranteed_resource(committed):
            self.mirror.apply("admit_guaranteed", user, committed)
            self.guaranteed[user] = committed
        else:
            with pytest.raises(Exception):
                self.partition.admit_guaranteed(user, committed)

    @rule(where=st.sampled_from(["before", "between", "after"]),
          committed=st.integers(min_value=1, max_value=4),
          factor=st.floats(min_value=0.0, max_value=2.5, allow_nan=False),
          index=st.integers(min_value=0, max_value=10**6))
    def admit_at(self, where, committed, factor, index):
        """Admit a key that sorts before every live one, right after a
        chosen live one, or after all of them — every remembered cut at
        or past that position has to shift — and give it demand."""
        if not self.partition.available_guaranteed_resource(committed):
            return
        self.counter += 1
        users = sorted(self.guaranteed)
        if where == "before":
            user = f"a{10**6 - self.counter:06d}"
        elif where == "after" or not users:
            user = f"z{self.counter:06d}"
        else:
            user = f"{users[index % len(users)]}+{self.counter}"
        self.mirror.apply("admit_guaranteed", user, committed)
        self.guaranteed[user] = committed
        self.mirror.apply("set_guaranteed_demand", user,
                          self._amount(committed * factor))

    @precondition(lambda self: self.guaranteed)
    @rule(boundary=st.integers(min_value=0, max_value=4))
    def remove_straddler(self, boundary):
        """Remove the holding a pool boundary fell in on the last pass
        (the last holding when that boundary is past the end)."""
        users = sorted(self.guaranteed)
        indexed = self.partition._keys is not None
        cuts = self.partition._cuts if indexed else []
        at = cuts[boundary] if cuts else len(users)
        user = users[min(at, len(users) - 1)]
        self.mirror.apply("remove_guaranteed", user)
        del self.guaranteed[user]

    @precondition(lambda self: self.guaranteed)
    @rule(factor=st.floats(min_value=0.0, max_value=2.5,
                           allow_nan=False),
          index=st.integers(min_value=0, max_value=10**6))
    def set_demand(self, factor, index):
        user = sorted(self.guaranteed)[index % len(self.guaranteed)]
        self.mirror.apply("set_guaranteed_demand", user,
                          self._amount(self.guaranteed[user] * factor))

    @precondition(lambda self: self.guaranteed)
    @rule(index=st.integers(min_value=0, max_value=10**6))
    def remove(self, index):
        user = sorted(self.guaranteed)[index % len(self.guaranteed)]
        self.mirror.apply("remove_guaranteed", user)
        del self.guaranteed[user]

    @rule(demand=st.integers(min_value=0, max_value=30))
    def best_effort_churn(self, demand):
        self.counter += 1
        user = f"b{self.counter % 5}"
        self.mirror.apply("set_best_effort_demand", user, demand)
        if demand > 0:
            self.best_effort.add(user)
        else:
            self.best_effort.discard(user)

    @rule(amount=st.floats(min_value=0.0, max_value=26.0,
                           allow_nan=False))
    def fail(self, amount):
        self.mirror.apply("apply_failure", self._amount(amount))

    @rule(boundary=st.sampled_from(["Cg", "Ca", "Cb"]),
          overshoot=st.integers(min_value=-1, max_value=2))
    def fail_to_boundary(self, boundary, overshoot):
        """Shrink the pools until ``boundary`` sits on (or just either
        side of) the entitled demand line, so the regime flips."""
        eff_g, eff_a, eff_b = self.partition.effective_sizes()
        above = {"Cg": eff_g, "Ca": eff_g + eff_a,
                 "Cb": eff_g + eff_a + eff_b}[boundary]
        amount = above - self.mirror.entitled_total() + overshoot
        self.mirror.apply("apply_failure", self._amount(max(0.0, amount)))

    @rule()
    def repair_all(self):
        self.mirror.apply("apply_repair")

    @rule(amount=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def repair_some(self, amount):
        self.mirror.apply("apply_repair", self._amount(amount))

    @rule()
    def defer(self):
        self.mirror.apply("defer_rebalances")

    @rule()
    def resume(self):
        self.mirror.apply("resume_rebalances")

    @precondition(lambda self: self.guaranteed)
    @rule(steps=st.lists(
              st.tuples(st.sampled_from(["set", "set", "remove", "admit",
                                         "before", "between", "after",
                                         "straddler"]),
                        st.floats(min_value=0.0, max_value=2.5,
                                  allow_nan=False)),
              min_size=2, max_size=8),
          index=st.integers(min_value=0, max_value=10**6))
    def deferred_batch(self, steps, index):
        """A whole window between two checks: the pending pass has to
        settle repeated updates of one user, users removed while
        touched, and users admitted mid-window."""
        self.mirror.apply("defer_rebalances")
        for offset, (step, factor) in enumerate(steps):
            users = sorted(self.guaranteed)
            if step == "admit" or not users:
                self.admit(1 + int(factor * 2))
                continue
            if step in ("before", "between", "after"):
                self.admit_at(step, 1 + int(factor), factor, index + offset)
                continue
            if step == "straddler":
                self.remove_straddler(offset % 5)
                continue
            user = users[(index + offset // 2) % len(users)]
            if step == "remove":
                self.remove(index + offset // 2)
            else:
                self.mirror.apply(
                    "set_guaranteed_demand", user,
                    self._amount(self.guaranteed[user] * factor))
        self.mirror.apply("resume_rebalances")

    # ------------------------------------------------------------------
    # Invariants (checked after every rule)
    # ------------------------------------------------------------------

    @invariant()
    def matches_full_recompute(self):
        self.mirror.check()

    @invariant()
    def kept_lines_match_a_fresh_sum(self):
        assert_lines_kept(self.partition)

    @invariant()
    def never_overallocated(self):
        effective = sum(self.partition.effective_sizes())
        assert self.partition.total_served() <= effective + _EPSILON

    @invariant()
    def conservation(self):
        effective = sum(self.partition.effective_sizes())
        total = self.partition.total_served() \
            + self.partition.idle_capacity()
        assert total == pytest.approx(effective, abs=_EPSILON)

    @invariant()
    def served_never_exceeds_demand(self):
        for holding in self.mirror.holdings():
            assert holding.served <= holding.demand + _EPSILON
        for holding in self.partition.best_effort_holdings():
            assert holding.served <= holding.demand + _EPSILON

    @invariant()
    def commitments_respect_cg(self):
        assert self.partition.committed_total() <= CG + _EPSILON

    @invariant()
    def sourcing_adds_up(self):
        for holding in self.mirror.holdings():
            total = holding.from_g + holding.from_a + holding.from_b
            assert total == pytest.approx(holding.served, abs=_EPSILON)

    @invariant()
    def shortfall_only_when_physically_unavoidable(self):
        report = self.partition.last_report
        if report is None:
            return
        eff_g, eff_a, eff_b = self.partition.effective_sizes()
        raidable = eff_g + eff_a + max(0.0, eff_b - min(BE_MIN, eff_b))
        entitled = sum(h.entitled
                       for h in self.mirror.holdings())
        if report.shortfalls:
            assert entitled > raidable - _EPSILON
        else:
            assert entitled <= raidable + _EPSILON


PartitionMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)
TestPartitionStateMachine = PartitionMachine.TestCase
