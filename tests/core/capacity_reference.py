"""Reference capacity partition (the full two-tier water-fill).

:class:`NaiveCapacityPartition` is the original implementation of
:class:`~repro.core.capacity.CapacityPartition`: every mutation
recomputes the whole assignment over every guaranteed holding, in sort
order, through one ``draw`` helper and a per-pool supply ledger. It is
obviously a pure function of (demands, commitments, failures), which is
exactly why it stays: the production partition keeps a sort-order
index and re-draws only the holdings whose demand changed or that a
pool boundary crossed since the last pass (DESIGN §4), and is
differentially tested against this one after every step of a
generated mutation sequence
(``tests/core/test_capacity_statemachine.py``,
``tests/core/test_capacity_delta.py``, through
``tests/core/partition_oracle.py``). It emits nothing (no probe, no
journal record) and lives with the tests, outside the library.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.capacity import (
    BestEffortHolding,
    GuaranteedHolding,
    PoolUsage,
    RebalanceReport,
)
from repro.errors import AdmissionError
from repro.units import iszero

__all__ = ["NaiveCapacityPartition"]

_EPSILON = 1e-9


class NaiveCapacityPartition:
    """Full-recompute ``C = Cg + Ca + Cb`` partition (differential oracle).

    Mirrors :class:`~repro.core.capacity.CapacityPartition`'s mutation
    API and semantics exactly, including deferred rebalancing, so a
    mirrored operation sequence yields the same holdings and the same
    report — ``==`` for integer-valued inputs, within rounding
    otherwise (the production class subtracts prefix sums where this
    one subtracts draw by draw).
    """

    def __init__(self, guaranteed: float, adaptive: float,
                 best_effort: float, *, best_effort_min: float = 0.0,
                 failure_order: "Tuple[str, ...]" = ("g", "a", "b")) -> None:
        self.cg = float(guaranteed)
        self.ca = float(adaptive)
        self.cb = float(best_effort)
        self.best_effort_min = float(best_effort_min)
        self.failure_order = failure_order
        self._failed = 0.0
        self._guaranteed: Dict[str, GuaranteedHolding] = {}
        self._best_effort: Dict[str, BestEffortHolding] = {}
        self._arrivals = 0
        self._deferred = False
        self._dirty = False
        self.last_report: Optional[RebalanceReport] = None
        self.rebalance()

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------

    @property
    def total(self) -> float:
        return self.cg + self.ca + self.cb

    def effective_sizes(self) -> "Tuple[float, float, float]":
        remaining_failure = self._failed
        sizes = {"g": self.cg, "a": self.ca, "b": self.cb}
        for pool in self.failure_order:
            absorbed = min(sizes[pool], remaining_failure)
            sizes[pool] -= absorbed
            remaining_failure -= absorbed
        return sizes["g"], sizes["a"], sizes["b"]

    def apply_failure(self, amount: float) -> RebalanceReport:
        self._failed = min(self.total, self._failed + amount)
        return self.rebalance()

    def apply_repair(self, amount: Optional[float] = None) -> RebalanceReport:
        if amount is None:
            self._failed = 0.0
        else:
            self._failed = max(0.0, self._failed - amount)
        return self.rebalance()

    # ------------------------------------------------------------------
    # Holdings
    # ------------------------------------------------------------------

    def committed_total(self) -> float:
        return sum(h.committed for h in self._guaranteed.values())

    def admit_guaranteed(self, user: str, committed: float) -> GuaranteedHolding:
        if user in self._guaranteed:
            raise AdmissionError(f"user {user!r} already admitted")
        if self.committed_total() + committed > self.cg + _EPSILON:
            raise AdmissionError(f"cannot admit {user!r}")
        holding = GuaranteedHolding(user=user, committed=committed)
        self._guaranteed[user] = holding
        return holding

    def set_guaranteed_demand(self, user: str,
                              demand: float) -> Optional[RebalanceReport]:
        self._guaranteed[user].demand = demand
        if self._deferred:
            self._dirty = True
            return None
        return self.rebalance()

    def remove_guaranteed(self, user: str) -> RebalanceReport:
        del self._guaranteed[user]
        return self.rebalance()

    def guaranteed_holdings(self) -> List[GuaranteedHolding]:
        self._flush()
        return [self._guaranteed[user] for user in sorted(self._guaranteed)]

    def set_best_effort_demand(self, user: str,
                               demand: float) -> RebalanceReport:
        if iszero(demand):
            self._best_effort.pop(user, None)
            return self.rebalance()
        holding = self._best_effort.get(user)
        if holding is None:
            self._arrivals += 1
            holding = BestEffortHolding(user=user,
                                        arrival_order=self._arrivals)
            self._best_effort[user] = holding
        holding.demand = demand
        return self.rebalance()

    def best_effort_holdings(self) -> List[BestEffortHolding]:
        self._flush()
        return sorted(self._best_effort.values(),
                      key=lambda h: h.arrival_order)

    def clear_holdings(self) -> RebalanceReport:
        self._guaranteed.clear()
        self._best_effort.clear()
        self._arrivals = 0
        return self.rebalance()

    # ------------------------------------------------------------------
    # Deferred rebalancing
    # ------------------------------------------------------------------

    def defer_rebalances(self) -> None:
        self._deferred = True

    def resume_rebalances(self) -> Optional[RebalanceReport]:
        self._deferred = False
        if self._dirty:
            return self.rebalance()
        return None

    def _flush(self) -> None:
        if self._dirty:
            self.rebalance()

    # ------------------------------------------------------------------
    # The rebalance pass
    # ------------------------------------------------------------------

    def rebalance(self) -> RebalanceReport:
        """Recompute the full assignment over every holding."""
        self._dirty = False
        eff_g, eff_a, eff_b = self.effective_sizes()
        previous_be = {user: holding.served
                       for user, holding in self._best_effort.items()}
        sorted_holdings = [self._guaranteed[user]
                           for user in sorted(self._guaranteed)]

        # Pool ledgers: how much each pool supplies to each tier.
        supply = {name: {"guaranteed": 0.0, "excess": 0.0, "best_effort": 0.0}
                  for name in ("g", "a", "b")}
        remaining = {"g": eff_g, "a": eff_a, "b": eff_b}
        protected_b = min(self.best_effort_min, eff_b)

        def draw(pool: str, tier: str, amount: float, *,
                 floor: float = 0.0) -> float:
            """Take up to ``amount`` from a pool, respecting a floor."""
            grantable = max(0.0, remaining[pool] - floor)
            granted = min(amount, grantable)
            remaining[pool] -= granted
            supply[pool][tier] += granted
            return granted

        # --- Tier 1: entitled guaranteed demand -----------------------
        shortfalls: Dict[str, float] = {}
        adapt_transfer = 0.0
        for holding in sorted_holdings:
            holding.from_g = holding.from_a = holding.from_b = 0.0
            need = min(holding.demand, holding.committed)
            got_g = draw("g", "guaranteed", need)
            need -= got_g
            got_a = draw("a", "guaranteed", need)
            need -= got_a
            got_b = draw("b", "guaranteed", need, floor=protected_b)
            need -= got_b
            adapt_transfer += got_a + got_b
            holding.from_g = got_g
            holding.from_a = got_a
            holding.from_b = got_b
            holding.served = got_g + got_a + got_b
            if need > _EPSILON:
                shortfalls[holding.user] = need

        # --- Tier 2: excess guaranteed demand --------------------------
        for holding in sorted_holdings:
            excess = max(0.0, holding.demand - holding.committed)
            if excess <= _EPSILON:
                continue
            got_a = draw("a", "excess", excess)
            excess -= got_a
            got_g = draw("g", "excess", excess)
            excess -= got_g
            holding.from_a += got_a
            holding.from_g += got_g
            holding.served += got_a + got_g

        # --- Tier 3: best-effort demand --------------------------------
        preempted: Dict[str, float] = {}
        for holding in self.best_effort_holdings():
            need = holding.demand
            got_b = draw("b", "best_effort", need)
            need -= got_b
            got_a = draw("a", "best_effort", need)
            need -= got_a
            got_g = draw("g", "best_effort", need)
            holding.served = got_b + got_a + got_g
            before = previous_be.get(holding.user, 0.0)
            if holding.served < before - _EPSILON:
                preempted[holding.user] = before - holding.served

        pools = (
            PoolUsage("Cg", eff_g, supply["g"]["guaranteed"],
                      supply["g"]["excess"], supply["g"]["best_effort"]),
            PoolUsage("Ca", eff_a, supply["a"]["guaranteed"],
                      supply["a"]["excess"], supply["a"]["best_effort"]),
            PoolUsage("Cb", eff_b, supply["b"]["guaranteed"],
                      supply["b"]["excess"], supply["b"]["best_effort"]),
        )
        self.last_report = RebalanceReport(
            shortfalls=shortfalls, preempted=preempted,
            adapt_transfer=adapt_transfer, pools=pools)
        return self.last_report
