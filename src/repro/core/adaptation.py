"""Algorithm 1 under the paper's own function names.

The :class:`AdaptationEngine` exposes the pseudo-code's entry points —
``Available_Guaranteed_Resource``, ``Allocate_Guaranteed_Resource``,
``Allocate_Best_Effort_Resource`` — as snake_case methods over a
:class:`~repro.core.capacity.CapacityPartition`, and keeps the event
log the Section 5.6 replay and the benchmarks read. ``Adapt()`` is the
partition's water-fill, which every allocation call runs.

The engine is the *mechanism*; policy (which SLA to squeeze, when to
run the optimizer) lives in :mod:`repro.core.scenarios` and the broker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim.trace import TraceRecorder
from .capacity import CapacityPartition, RebalanceReport


@dataclass(frozen=True)
class AllocationDecision:
    """Outcome of one allocation call.

    Attributes:
        user: The requesting user.
        requested: Capacity asked for.
        granted: Capacity actually allocated.
        adapted: Whether ``Adapt()`` had to transfer capacity to serve
            the guaranteed tier during this call.
        preempted: Best-effort capacity reclaimed by this call.
        report: The underlying rebalance report.
    """

    user: str
    requested: float
    granted: float
    adapted: bool
    preempted: float
    report: RebalanceReport

    @property
    def fully_granted(self) -> bool:
        """Whether the full request was served."""
        return self.granted >= self.requested - 1e-9


class AdaptationEngine:
    """Algorithm 1 over one capacity partition.

    Args:
        partition: The managed ``C = Cg + Ca + Cb`` split.
        trace: Optional activity recorder (category ``"adaptation"``).
        now: Callable returning the current time for log stamps.
    """

    def __init__(self, partition: CapacityPartition, *,
                 trace: Optional[TraceRecorder] = None,
                 now=lambda: 0.0) -> None:
        self.partition = partition
        self._trace = trace
        self._now = now
        self.decisions: List[AllocationDecision] = []  # qlint: disable=QLNT118 -- allocation history, not the provenance log

    # ------------------------------------------------------------------
    # Paper-named primitives
    # ------------------------------------------------------------------

    def available_guaranteed_resource(self, committed: float) -> bool:
        """``Available_Guaranteed_Resource(g(u))``:
        whether ``Σ g(v) + g(u) <= Cg``."""
        return self.partition.available_guaranteed_resource(committed)

    def net_capacity(self) -> float:
        """``Cn(t) = Ca − (Σ c(u,t) − Cg)``: the adaptive head-room
        after covering guaranteed overflow. Negative means guarantees
        cannot be honored from ``Cg + Ca`` alone."""
        entitled = self.partition.entitled_total()
        eff_g, eff_a, _eff_b = self.partition.effective_sizes()
        overflow = max(0.0, entitled - eff_g)
        return eff_a - overflow

    def allocate_guaranteed_resource(
            self, user: str, demand: float) -> "Optional[AllocationDecision]":
        """``Allocate_Guaranteed_Resource(c(u,t), g(u))``.

        * demand within ``g(u)`` must be served (``Adapt()`` runs if the
          guaranteed pool alone cannot cover it);
        * demand above ``g(u)`` is the recursive excess claim, served
          opportunistically from adaptive head-room.

        The user must already hold an admitted SLA
        (:meth:`admit_guaranteed`).

        When the partition is in deferred-rebalance mode (batch
        admission), the demand is recorded but no assignment exists
        yet, so ``None`` is returned and no decision is logged — the
        batch's single water-fill settles every member at once.
        """
        before = self.partition.last_report
        before_transfer = before.adapt_transfer if before else 0.0
        report = self.partition.set_guaranteed_demand(user, demand)
        if report is None:
            return None
        holding = self.partition.guaranteed_holding(user)
        adapted = report.adapt_transfer > before_transfer + 1e-9
        decision = AllocationDecision(
            user=user, requested=demand, granted=holding.served,
            adapted=adapted,
            preempted=sum(report.preempted.values()), report=report)
        self.decisions.append(decision)
        self._log_decision("guaranteed", decision)
        return decision

    def allocate_best_effort_resource(self, user: str,
                                      demand: float) -> AllocationDecision:
        """``Allocate_Best_Effort_Resource(b(u,t))``: admit iff the
        demand fits in ``Cb`` plus currently idle ``Cg``/``Ca``
        capacity; granted capacity may be partial (the paper's strict
        variant refuses instead — use
        :meth:`can_allocate_best_effort` first for that behaviour)."""
        report = self.partition.set_best_effort_demand(user, demand)
        served = (self.partition.best_effort_holding(user).served
                  if demand > 0 else 0.0)
        decision = AllocationDecision(
            user=user, requested=demand, granted=served,
            adapted=False, preempted=sum(report.preempted.values()),
            report=report)
        self.decisions.append(decision)
        self._log_decision("best-effort", decision)
        return decision

    def can_allocate_best_effort(self, demand: float) -> bool:
        """The paper's strict test: ``Σ b(u,t) + demand`` fits in
        ``Cb`` plus idle capacity."""
        return demand <= self.partition.idle_capacity() + 1e-9

    # ------------------------------------------------------------------
    # Admission / teardown (delegates)
    # ------------------------------------------------------------------

    def admit_guaranteed(self, user: str, committed: float) -> None:
        """Admit a guaranteed SLA (raises on over-commitment)."""
        self.partition.admit_guaranteed(user, committed)
        if self._trace is not None:
            self._trace.record(
                self._now(), "adaptation",
                f"admitted guaranteed user {user!r} with g(u)={committed:g} "
                f"(Σg={self.partition.committed_total():g} of "
                f"Cg={self.partition.cg:g})")

    def release_guaranteed(self, user: str) -> RebalanceReport:
        """Remove a guaranteed user and rebalance (Scenario 2 trigger)."""
        report = self.partition.remove_guaranteed(user)
        if self._trace is not None:
            self._trace.record(self._now(), "adaptation",
                               f"released guaranteed user {user!r}")
        return report

    def release_best_effort(self, user: str) -> RebalanceReport:
        """Remove a best-effort user and rebalance."""
        return self.partition.set_best_effort_demand(user, 0.0)

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------

    def on_capacity_change(self, delta: float) -> RebalanceReport:
        """React to node failures (``delta < 0``) or repairs.

        This is the compute RM's capacity-change hook; a failure
        triggers ``Adapt()`` implicitly through the rebalance.
        """
        if delta < 0:
            report = self.partition.apply_failure(-delta)
        else:
            report = self.partition.apply_repair(delta)
        if self._trace is not None:
            verb = "failure" if delta < 0 else "repair"
            honored = ("guarantees honored" if report.guarantees_honored
                       else f"SHORTFALL {report.shortfalls}")
            self._trace.record(
                self._now(), "adaptation",
                f"capacity {verb} of {abs(delta):g} unit(s); "
                f"adapt transfer {report.adapt_transfer:g}; {honored}")
        return report

    def _log_decision(self, kind: str, decision: AllocationDecision) -> None:
        if self._trace is None:
            return
        outcome = ("granted" if decision.fully_granted
                   else f"partially granted ({decision.granted:g})")
        extras = []
        if decision.adapted:
            extras.append("via Adapt()")
        if decision.preempted > 0:
            extras.append(f"preempted {decision.preempted:g}")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        self._trace.record(
            self._now(), "adaptation",
            f"{kind} allocation for {decision.user!r}: "
            f"{decision.requested:g} requested, {outcome}{suffix}")
