"""Differential harness: the production partition beside its oracle.

:class:`MirroredPartition` forwards every mutation to a
:class:`~repro.core.capacity.CapacityPartition` and to the
full-recompute :class:`~tests.core.capacity_reference.NaiveCapacityPartition`,
and :meth:`MirroredPartition.check` asserts that the two agree on every
holding field (:data:`HOLDING_FIELDS`, by name: production draws four
of them when read) and on the whole rebalance report — ``==`` while
every input so far was integer-valued, within 1e-9 once a fractional
one has been applied (production subtracts prefix sums where the
oracle subtracts draw by draw).
"""

from __future__ import annotations

from dataclasses import astuple
from itertools import accumulate

import pytest

from repro.core import capacity
from repro.core.capacity import CapacityPartition, GuaranteedHolding

from .capacity_reference import NaiveCapacityPartition

TOLERANCE = 1e-9

#: What a guaranteed holding holds, compared field by field.
HOLDING_FIELDS = ("committed", "demand", "served", "from_g", "from_a",
                  "from_b")


def holding_values(holding) -> tuple:
    """``holding``'s :data:`HOLDING_FIELDS`, read by name."""
    return tuple(getattr(holding, name) for name in HOLDING_FIELDS)


def count_entitled_reads(monkeypatch) -> list:
    """Count ``GuaranteedHolding.entitled`` reads — a pass reads it once
    per touched holding, a draw without the index once, so the count is
    the work done."""
    reads = [0]
    entitled = GuaranteedHolding.entitled.fget

    def counting(holding):
        reads[0] += 1
        return entitled(holding)
    monkeypatch.setattr(GuaranteedHolding, "entitled", property(counting))
    return reads


def count_redraws(monkeypatch) -> list:
    """Record the user of every holding drawn — a pass draws none, a
    read draws the holding read if a pass ran since its last draw."""
    drawn: list = []
    draw = CapacityPartition._draw

    def counting(partition, holding):
        drawn.append(holding.user)
        draw(partition, holding)
    monkeypatch.setattr(CapacityPartition, "_draw", counting)
    return drawn


def count_resummed(monkeypatch) -> list:
    """Record how many entries each demand-line prefix sum folds — a
    pass sums two lines, so it appends two counts."""
    folds: list = []

    def counting(iterable, **options):
        entries = list(iterable)
        folds.append(len(entries))
        return accumulate(entries, **options)
    monkeypatch.setattr(capacity, "accumulate", counting)
    return folds


def assert_lines_kept(partition: CapacityPartition) -> None:
    """The kept demand lines, up to the low-water mark, are a fresh
    prefix sum of the index columns bit for bit — the whole line once
    no column is pending (the mark is past the end)."""
    if partition._keys is None:
        return
    low = partition._low
    for line, column in ((partition._line_e, partition._ents),
                         (partition._line_x, partition._excs)):
        fresh = list(accumulate(column, initial=0.0))
        assert low <= len(column)
        assert ([value.hex() for value in line[:low + 1]]
                == [value.hex() for value in fresh[:low + 1]])
        if low == len(column):
            assert len(line) == len(fresh)


class MirroredPartition:
    def __init__(self, *sizes: float, **options: float) -> None:
        self.real = CapacityPartition(*sizes, **options)
        self.reference = NaiveCapacityPartition(*sizes, **options)
        self.exact = all(float(value).is_integer()
                         for value in (*sizes, *options.values()))
        #: Whether :meth:`holdings` lists through the public call, which
        #: builds production's sort-order index; left off, the index
        #: appears only when a pass finds a boundary inside a tier.
        self.listing = False

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

    def holdings(self) -> list:
        """Production's guaranteed holdings in sort order, settled."""
        real = self.real
        if self.listing:
            return real.guaranteed_holdings()
        real._flush()
        return [real._guaranteed[user] for user in sorted(real._guaranteed)]

    def _same(self, actual, expected) -> bool:
        if self.exact:
            return actual == expected
        return actual == pytest.approx(expected, abs=TOLERANCE)

    def check(self) -> None:
        """Assert the production state equals the oracle's."""
        real, reference = self.real, self.reference
        mine = self.holdings()
        theirs = reference.guaranteed_holdings()
        assert [h.user for h in mine] == [h.user for h in theirs]
        for got, want in zip(mine, theirs):
            got, want = holding_values(got), holding_values(want)
            assert self._same(got, want), (got, want)
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

        self.check_index()

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

    def check_index(self) -> None:
        """While the sort-order index exists it mirrors the holdings."""
        real = self.real
        if real._keys is None:
            return
        holdings = self.holdings()
        assert real._keys == [h.user for h in holdings]
        assert real._ents == [h.entitled for h in holdings]
        assert real._excs == [h.excess for h in holdings]


def fresh_oracle(partition: CapacityPartition) -> NaiveCapacityPartition:
    """A full recompute of ``partition``'s current inputs, from nothing
    (so ``preempted``, which is relative to a previous pass, differs)."""
    oracle = NaiveCapacityPartition(
        partition.cg, partition.ca, partition.cb,
        best_effort_min=partition.best_effort_min,
        failure_order=partition.failure_order)
    for holding in partition.guaranteed_holdings():
        oracle.admit_guaranteed(holding.user, holding.committed)
        oracle._guaranteed[holding.user].demand = holding.demand
    for holding in partition.best_effort_holdings():
        oracle.set_best_effort_demand(holding.user, holding.demand)
    oracle.apply_failure(partition.failed)
    return oracle


def scratch_cuts(partition: CapacityPartition, holdings) -> list:
    """Where the five pool boundaries fall among ``holdings`` (sort
    order), searched linearly from the last report's pool rows."""
    eff_g, eff_a, eff_b = partition.effective_sizes()
    cg, ca, _ = partition.last_report.pools
    raidable = eff_b - min(partition.best_effort_min, eff_b)
    left_a = eff_a - ca.guaranteed

    def cut(demands, boundary):
        line = 0.0
        for position, demand in enumerate(demands):
            line += demand
            if line > boundary:
                return position
        return len(demands)
    entitled = [h.entitled for h in holdings]
    excess = [h.excess for h in holdings]
    return [cut(entitled, eff_g), cut(entitled, eff_g + eff_a),
            cut(entitled, eff_g + eff_a + raidable),
            cut(excess, left_a),
            cut(excess, left_a + (eff_g - cg.guaranteed))]
