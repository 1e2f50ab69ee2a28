"""Differential harness: the production partition beside its oracle.

:class:`MirroredPartition` forwards every mutation to a
:class:`~repro.core.capacity.CapacityPartition` and to the
full-recompute :class:`~repro.core._reference.NaiveCapacityPartition`,
and :meth:`MirroredPartition.check` asserts that the two agree on every
holding field and on the whole rebalance report — ``==`` while every
input so far was integer-valued, within 1e-9 once a fractional one has
been applied (the production running totals sum in a different order).
"""

from __future__ import annotations

from dataclasses import astuple

import pytest

from repro.core._reference import NaiveCapacityPartition
from repro.core.capacity import CapacityPartition, GuaranteedHolding

TOLERANCE = 1e-9


def count_entitled_reads(monkeypatch) -> list:
    """Count ``GuaranteedHolding.entitled`` reads — every pass reads it
    once per holding it draws, so the count is the work done."""
    reads = [0]
    entitled = GuaranteedHolding.entitled.fget

    def counting(holding):
        reads[0] += 1
        return entitled(holding)
    monkeypatch.setattr(GuaranteedHolding, "entitled", property(counting))
    return reads


class MirroredPartition:
    def __init__(self, *sizes: float, **options: float) -> None:
        self.real = CapacityPartition(*sizes, **options)
        self.reference = NaiveCapacityPartition(*sizes, **options)
        self.exact = all(float(value).is_integer()
                         for value in (*sizes, *options.values()))

    def apply(self, operation: str, *args):
        """Run one mutation on both partitions (production's result)."""
        for value in args:
            if isinstance(value, (int, float)):
                self.exact = self.exact and float(value).is_integer()
        getattr(self.reference, operation)(*args)
        return getattr(self.real, operation)(*args)

    def entitled_total(self) -> float:
        """The entitled demand line — a read, so it flushes both sides
        (a one-sided flush would shift what ``preempted`` is measured
        against)."""
        self.reference._flush()
        return self.real.entitled_total()

    def _same(self, actual, expected) -> bool:
        if self.exact:
            return actual == expected
        return actual == pytest.approx(expected, abs=TOLERANCE)

    def check(self) -> None:
        """Assert the production state equals the oracle's."""
        real, reference = self.real, self.reference
        mine = real.guaranteed_holdings()
        theirs = reference.guaranteed_holdings()
        assert [h.user for h in mine] == [h.user for h in theirs]
        for got, want in zip(mine, theirs):
            assert self._same(astuple(got)[1:], astuple(want)[1:]), (
                got, want)
        mine = real.best_effort_holdings()
        theirs = reference.best_effort_holdings()
        assert ([(h.user, h.arrival_order) for h in mine]
                == [(h.user, h.arrival_order) for h in theirs])
        for got, want in zip(mine, theirs):
            assert self._same((got.demand, got.served),
                              (want.demand, want.served)), (got, want)

        got, want = real.last_report, reference.last_report
        assert [p.name for p in got.pools] == [p.name for p in want.pools]
        for mine, theirs in zip(got.pools, want.pools):
            assert self._same(astuple(mine)[1:], astuple(theirs)[1:]), (
                mine, theirs)
        assert self._same(got.adapt_transfer, want.adapt_transfer)
        for field in ("shortfalls", "preempted"):
            mine, theirs = getattr(got, field), getattr(want, field)
            assert list(mine) == list(theirs), (field, mine, theirs)
            assert self._same(list(mine.values()), list(theirs.values()))

        # The O(1) readers against a fresh sum over the oracle.
        guaranteed = sum(h.served for h in reference.guaranteed_holdings())
        best_effort = sum(h.served for h in reference.best_effort_holdings())
        effective = sum(reference.effective_sizes())
        assert self._same(real.total_served(), guaranteed + best_effort)
        assert self._same(real.best_effort_served(), best_effort)
        assert self._same(real.idle_capacity(),
                          max(0.0, effective - (guaranteed + best_effort)))
        assert self._same(real.snapshot()["guaranteed_served"], guaranteed)
        if effective > 0:
            assert self._same(
                real.utilization(),
                min(1.0, (guaranteed + best_effort) / effective))
        assert self._same(
            real.entitled_total(),
            sum(h.entitled for h in reference.guaranteed_holdings()))
