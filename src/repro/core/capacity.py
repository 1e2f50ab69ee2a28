"""The capacity partition ``C = Cg + Ca + Cb`` (Section 5.4).

The system administrator splits the total resource capacity into a
guaranteed pool ``Cg``, an adaptive reserve ``Ca`` "based on the
specified rate of resource failure or congestion", and a best-effort
pool ``Cb`` with a protected minimum. The partition is *dynamic*:

* best-effort work borrows whatever is idle in ``Cg`` and ``Ca``
  ("the extra reserved capacity is used by 'best effort' users as long
  as it is not needed by 'guaranteed' users") — borrowed capacity is
  pre-emptible;
* when failures shrink the pools or guaranteed demand spikes,
  ``Adapt()`` covers the guaranteed shortfall from ``Ca`` and then from
  ``Cb`` down to the best-effort minimum.

The partition is deliberately *scalar* — it accounts capacity units of
one resource type (CPU nodes in the paper's example; the broker runs
one partition per managed resource type). All mutation funnels through
:meth:`CapacityPartition.rebalance`, a deterministic two-tier
water-fill, so the allocation state is always a pure function of
(demands, commitments, failures) — which is what makes the Section 5.6
timeline exactly replayable. Being a pure function does not mean
recomputing it: a pass works out the pool rows and the shortfalls and
draws no holding; a holding draws its own values off the last pass
when they are read (see :meth:`CapacityPartition.rebalance` and DESIGN
§4).
The full recompute survives as
``tests/core/capacity_reference.NaiveCapacityPartition``, the
differential-test oracle.

Priority tiers inside ``rebalance``:

1. **Entitled guaranteed demand** ``min(c(u,t), g(u))`` — must be
   served: from effective ``Cg``, then ``Ca``, then ``Cb`` down to the
   best-effort minimum (that transfer is the paper's ``Adapt()``).
   Anything still unserved is a recorded *shortfall* (an SLA violation
   the broker must react to).
2. **Excess guaranteed demand** ``c(u,t) − g(u)`` — the recursive
   claim in ``Allocate_Guaranteed_Resource``: served best-effort-ly
   from whatever ``Ca``/``Cg`` head-room remains (never from the
   protected ``Cb`` minimum); partial service is fine.
3. **Best-effort demand** — served from effective ``Cb`` plus all
   remaining idle capacity, FCFS in arrival order; partial service is
   fine.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from ..errors import AdmissionError
from ..probe import Probe
from ..recovery.journal import CAPACITY_REBALANCED
from ..units import iszero

_EPSILON = 1e-9


class GuaranteedHolding:
    """One guaranteed user's state in the partition.

    Attributes:
        user: User/session key.
        committed: ``g(u)`` — the SLA-committed capacity.
        demand: ``c(u,t)`` — current demand.
        served: Capacity actually allocated right now.
        from_g / from_a / from_b: Sourcing breakdown of ``served``
            (the per-pool "x/y" views of the Section 5.6 tables).

    The last four are drawn when read: a holding stamped before the
    partition's last pass draws itself off that pass first
    (:meth:`CapacityPartition._draw`). A read never runs a pass, and a
    holding that left the partition keeps its last draw for good.
    """

    __slots__ = ("user", "committed", "demand", "_partition", "_stamp",
                 "_served", "_from_g", "_from_a", "_from_b")

    def __init__(self, user: str, committed: float,
                 partition: "Optional[CapacityPartition]" = None) -> None:
        self.user = user
        self.committed = committed
        self.demand = 0.0
        self._partition = partition
        self._stamp = partition._passes if partition is not None else 0
        self._served = self._from_g = self._from_a = self._from_b = 0.0

    def _read(self) -> "GuaranteedHolding":
        """Draw off the partition's last pass if one ran since the
        last draw; never a pass itself."""
        partition = self._partition
        if partition is not None and self._stamp != partition._passes:
            partition._draw(self)
        return self

    def _freeze(self) -> None:
        """Keep the current draw for good (the holding left)."""
        self._read()
        self._partition = None

    served = property(lambda self: self._read()._served)
    from_g = property(lambda self: self._read()._from_g)
    from_a = property(lambda self: self._read()._from_a)
    from_b = property(lambda self: self._read()._from_b)

    @property
    def entitled(self) -> float:
        """The must-serve portion ``min(c(u,t), g(u))``."""
        return min(self.demand, self.committed)

    @property
    def excess(self) -> float:
        """The opportunistic portion ``c(u,t) − g(u)`` (0 when the
        demand is within the commitment)."""
        over = self.demand - self.committed
        return over if over > _EPSILON else 0.0

    @property
    def shortfall(self) -> float:
        """Entitled demand not currently served (an SLA violation)."""
        return max(0.0, self.entitled - self.served)


@dataclass
class BestEffortHolding:
    """One best-effort user's state in the partition."""

    user: str
    demand: float = 0.0
    served: float = 0.0
    arrival_order: int = 0


@dataclass(frozen=True)
class PoolUsage:
    """Usage snapshot of one pool (a Section 5.6 table row).

    ``guaranteed``/``excess``/``best_effort`` are the capacity units
    this pool currently supplies to each tier; ``idle`` is what is
    left of its effective size.
    """

    name: str
    effective: float
    guaranteed: float
    excess: float
    best_effort: float

    @property
    def used(self) -> float:
        return self.guaranteed + self.excess + self.best_effort

    @property
    def idle(self) -> float:
        return max(0.0, self.effective - self.used)


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of one :meth:`CapacityPartition.rebalance` pass.

    Attributes:
        shortfalls: ``user -> unserved entitled capacity`` (violations).
        preempted: ``user -> capacity taken back`` from best-effort
            borrowers relative to the previous assignment.
        adapt_transfer: Capacity ``Adapt()`` moved to the guaranteed
            tier beyond effective ``Cg`` (from ``Ca``, then ``Cb``).
        pools: Per-pool usage snapshot after the pass.
    """

    shortfalls: "Dict[str, float]"
    preempted: "Dict[str, float]"
    adapt_transfer: float
    pools: "Tuple[PoolUsage, PoolUsage, PoolUsage]"

    @property
    def guarantees_honored(self) -> bool:
        """Whether every entitled guaranteed unit is served."""
        return not self.shortfalls


class CapacityPartition:
    """The administrator's ``C = Cg + Ca + Cb`` split, with borrowing.

    Args:
        guaranteed: Nominal ``Cg``.
        adaptive: Nominal ``Ca``.
        best_effort: Nominal ``Cb``.
        best_effort_min: Protected best-effort minimum (never raided
            by ``Adapt()``); defaults to 0.
        failure_order: Which pools absorb capacity failures, first to
            last. The Section 5.6 example loses nodes from the
            guaranteed pool, so ``("g", "a", "b")`` is the default.
        probe: The testbed's instrumentation seam.
    """

    def __init__(self, guaranteed: float, adaptive: float,
                 best_effort: float, *, best_effort_min: float = 0.0,
                 failure_order: "Tuple[str, ...]" = ("g", "a", "b"),
                 probe: Optional[Probe] = None) -> None:
        for name, value in (("guaranteed", guaranteed),
                            ("adaptive", adaptive),
                            ("best_effort", best_effort)):
            if value < 0:
                raise AdmissionError(f"{name} capacity must be >= 0: {value}")
        if not 0 <= best_effort_min <= best_effort:
            raise AdmissionError(
                f"best_effort_min must be in [0, Cb={best_effort}]: "
                f"{best_effort_min}")
        if sorted(failure_order) != ["a", "b", "g"]:
            raise AdmissionError(
                f"failure_order must be a permutation of g/a/b: "
                f"{failure_order}")
        self.cg = float(guaranteed)
        self.ca = float(adaptive)
        self.cb = float(best_effort)
        self.best_effort_min = float(best_effort_min)
        self.failure_order = failure_order
        self._failed = 0.0
        self._guaranteed: Dict[str, GuaranteedHolding] = {}
        self._best_effort: Dict[str, BestEffortHolding] = {}
        self._arrivals = 0
        #: Running ``Σ g(u)``, maintained by admit/remove/clear so the
        #: admission test never re-sums the holdings.
        self._committed = 0.0
        #: Running ``Σ entitled`` and ``Σ excess`` — the ends of the two
        #: demand lines the pool boundaries are compared against.
        #: Maintained by set-demand/remove/clear like ``_committed``,
        #: and re-derived exactly by every pass that has the index, so
        #: they cannot drift.
        self._entitled = 0.0
        self._excess = 0.0
        #: Holdings whose demand changed since the last pass.
        self._touched: Dict[str, GuaranteedHolding] = {}
        #: The sort-order index: user keys with their entitled/excess
        #: columns in parallel. Absent until a pass finds a boundary
        #: inside a tier (or the holdings are listed), from then on
        #: updated in place by admit/remove.
        self._keys: Optional[List[str]] = None
        self._ents: List[float] = []
        self._excs: List[float] = []
        #: The two demand lines, kept between passes, and the low-water
        #: mark: the lowest index position changed since they were summed.
        self._line_e: List[float] = [0.0]
        self._line_x: List[float] = [0.0]
        self._low = 0
        #: What a holding draws itself off (:meth:`_draw`): the pass
        #: count, the last pass's five boundaries (``None`` without the
        #: index) and the keys admitted since, which are off its lines.
        self._passes = 0
        self._bounds: Optional[Tuple[float, float, float, float, float]] = None
        self._fresh: List[str] = []
        #: Deferred-rebalance mode (batch admission): demand updates
        #: mark the assignment dirty instead of rebalancing, and every
        #: reader of rebalance-derived state flushes first.
        self._deferred = False
        self._dirty = False
        self.last_report: Optional[RebalanceReport] = None
        self.probe = probe if probe is not None else Probe()
        self.rebalance()

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------

    @property
    def total(self) -> float:
        """Nominal total capacity ``C``."""
        return self.cg + self.ca + self.cb

    @property
    def failed(self) -> float:
        """Capacity currently lost to failures."""
        return self._failed

    def effective_sizes(self) -> "Tuple[float, float, float]":
        """``(Cg, Ca, Cb)`` after failures, in ``failure_order``."""
        remaining_failure = self._failed
        sizes = {"g": self.cg, "a": self.ca, "b": self.cb}
        for pool in self.failure_order:
            absorbed = min(sizes[pool], remaining_failure)
            sizes[pool] -= absorbed
            remaining_failure -= absorbed
        return sizes["g"], sizes["a"], sizes["b"]

    def apply_failure(self, amount: float) -> RebalanceReport:
        """Lose ``amount`` capacity units (node failures)."""
        if amount < 0:
            raise AdmissionError(f"failure amount must be >= 0: {amount}")
        self._failed = min(self.total, self._failed + amount)
        return self.rebalance()

    def apply_repair(self, amount: Optional[float] = None) -> RebalanceReport:
        """Recover ``amount`` failed units (all of them by default)."""
        if amount is None:
            self._failed = 0.0
        else:
            if amount < 0:
                raise AdmissionError(f"repair amount must be >= 0: {amount}")
            self._failed = max(0.0, self._failed - amount)
        return self.rebalance()

    # ------------------------------------------------------------------
    # Guaranteed-class admission and demand
    # ------------------------------------------------------------------

    def committed_total(self) -> float:
        """``Σ g(u)`` over admitted guaranteed users.

        A running sum (O(1)): commitments only change on admit, remove
        and clear, each of which maintains it.
        """
        return self._committed

    def entitled_total(self) -> float:
        """``Σ min(c(u,t), g(u))`` — the must-serve demand line.

        A running sum (O(1)). Flushes like every other reader, so a
        mid-batch read settles the pending pass where it always did.
        """
        self._flush()
        return self._entitled

    def available_guaranteed_resource(self, committed: float) -> bool:
        """The paper's ``Available_Guaranteed_Resource(g(u))`` test:
        a new SLA committing ``g(u)`` is admissible iff
        ``Σ g(v) + g(u) <= Cg`` (nominal — the adaptive reserve exists
        precisely to cover transient failures, so admission is against
        the nominal pool)."""
        return self.committed_total() + committed <= self.cg + _EPSILON

    def admit_guaranteed(self, user: str, committed: float) -> GuaranteedHolding:
        """Admit a guaranteed SLA committing ``g(u)`` capacity units.

        Raises:
            AdmissionError: When ``Available_Guaranteed_Resource``
                fails or the user is already admitted.
        """
        if committed <= 0:
            raise AdmissionError(
                f"guaranteed commitment must be positive: {committed}")
        if user in self._guaranteed:
            raise AdmissionError(f"user {user!r} already admitted")
        if not self.available_guaranteed_resource(committed):
            raise AdmissionError(
                f"cannot admit {user!r}: committed total "
                f"{self.committed_total():g} + {committed:g} exceeds "
                f"Cg={self.cg:g}")
        holding = GuaranteedHolding(user, committed, self)
        self._guaranteed[user] = holding
        self._committed += committed
        keys = self._keys
        if keys is not None:
            at = bisect_left(keys, user)
            keys.insert(at, user)
            self._ents.insert(at, 0.0)
            self._excs.insert(at, 0.0)
            insort(self._fresh, user)
            self._low = min(self._low, at)
        return holding

    def set_guaranteed_demand(self, user: str,
                              demand: float) -> Optional[RebalanceReport]:
        """Update ``c(u,t)`` for an admitted user and rebalance.

        In deferred mode (:meth:`defer_rebalances`) the demand is
        recorded but the water-fill is postponed; ``None`` is returned
        instead of a report.
        """
        holding = self._guaranteed.get(user)
        if holding is None:
            raise AdmissionError(f"user {user!r} is not admitted")
        if demand < 0:
            raise AdmissionError(f"demand must be >= 0: {demand}")
        if self._deferred:  # it reads its last draw until the pass
            holding._read()
        entitled, excess = holding.entitled, holding.excess
        holding.demand = demand
        self._entitled += holding.entitled - entitled
        self._excess += holding.excess - excess
        self._touched[user] = holding
        if self._deferred:
            self._dirty = True
            return None
        return self.rebalance()

    def remove_guaranteed(self, user: str) -> RebalanceReport:
        """Drop a guaranteed user (SLA completed/expired) and rebalance."""
        holding = self._guaranteed.pop(user, None)
        if holding is None:
            raise AdmissionError(f"user {user!r} is not admitted")
        holding._freeze()
        self._committed -= holding.committed
        self._entitled -= holding.entitled
        self._excess -= holding.excess
        if not self._guaranteed:
            self._committed = self._entitled = self._excess = 0.0
        self._touched.pop(user, None)
        keys = self._keys
        if keys is not None:
            at = bisect_left(keys, user)
            del keys[at], self._ents[at], self._excs[at]
            self._low = min(self._low, at)
        return self.rebalance()

    def guaranteed_holding(self, user: str) -> GuaranteedHolding:
        """The holding for an admitted guaranteed user."""
        holding = self._guaranteed.get(user)
        if holding is None:
            raise AdmissionError(f"user {user!r} is not admitted")
        self._flush()
        return holding

    def _index(self) -> List[str]:
        """Build the sort-order index if it is absent.

        The demand lines start unsummed: until the next pass sums them,
        holdings keep drawing as the last pass (without an index) left
        them.
        """
        keys = self._keys
        if keys is None:
            keys = self._keys = sorted(self._guaranteed)
            rows = [self._guaranteed[user] for user in keys]
            self._ents = [holding.entitled for holding in rows]
            self._excs = [holding.excess for holding in rows]
            self._low = 0
        return keys

    def guaranteed_holdings(self) -> List[GuaranteedHolding]:
        """All guaranteed holdings (stable order)."""
        self._flush()
        guaranteed = self._guaranteed
        return [guaranteed[user] for user in self._index()]

    # ------------------------------------------------------------------
    # Best-effort demand
    # ------------------------------------------------------------------

    def set_best_effort_demand(self, user: str,
                               demand: float) -> RebalanceReport:
        """Update ``b(u,t)``; zero demand removes the user."""
        if demand < 0:
            raise AdmissionError(f"demand must be >= 0: {demand}")
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

    def best_effort_holding(self, user: str) -> BestEffortHolding:
        """The holding for a best-effort user."""
        holding = self._best_effort.get(user)
        if holding is None:
            raise AdmissionError(f"user {user!r} has no best-effort demand")
        self._flush()
        return holding

    def best_effort_holdings(self) -> List[BestEffortHolding]:
        """All best-effort holdings, in arrival order."""
        self._flush()
        return sorted(self._best_effort.values(),
                      key=lambda h: h.arrival_order)

    def best_effort_served(self) -> float:
        """Total best-effort capacity currently served."""
        self._flush()
        return sum(pool.best_effort for pool in self.last_report.pools)

    def clear_holdings(self) -> RebalanceReport:
        """Drop every holding and rebalance (crash-recovery wipe).

        Failure bookkeeping is untouched — the machine, not the
        partition, is authoritative for lost capacity, and recovery
        re-derives ``failed`` from it separately. Every dropped holding
        keeps its last draw.
        """
        for holding in self._guaranteed.values():
            holding._freeze()
        self._guaranteed.clear()
        self._best_effort.clear()
        self._arrivals = 0
        self._committed = self._entitled = self._excess = 0.0
        self._touched.clear()
        self._keys = None
        return self.rebalance()

    # ------------------------------------------------------------------
    # Deferred rebalancing (batch admission)
    # ------------------------------------------------------------------

    def defer_rebalances(self) -> None:
        """Enter deferred mode: demand updates postpone the water-fill.

        While deferred, :meth:`set_guaranteed_demand` marks the
        assignment dirty instead of rebalancing. Every reader of
        rebalance-derived state (holdings, served totals, idle
        capacity, snapshots) flushes the pending pass first, so no
        caller can ever observe a stale assignment — which is what
        keeps batched admission decision-identical to sequential
        admission. Mutations that rebalance unconditionally (failures,
        removals, best-effort demand) also absorb the pending pass.
        """
        self._deferred = True

    def resume_rebalances(self) -> Optional[RebalanceReport]:
        """Leave deferred mode, running any pending water-fill.

        Returns the flushed report, or ``None`` when nothing was
        pending.
        """
        self._deferred = False
        if self._dirty:
            return self.rebalance()
        return None

    def _flush(self) -> None:
        """Run a pending deferred water-fill, if any."""
        if self._dirty:
            self.rebalance()

    # ------------------------------------------------------------------
    # The rebalance pass
    # ------------------------------------------------------------------

    def rebalance(self) -> RebalanceReport:
        """Recompute the assignment (see module docstring).

        Tiers 1 and 2 are a closed form of each holding's place on two
        cumulative demand lines in sort order: Σ entitled is cut by
        ``Cg | Ca | Cb − min`` and Σ excess by what tier 1 left of
        ``Ca | Cg`` (effective sizes). So the pass draws no holding:
        it re-sums the kept lines from the lowest changed position,
        takes the pool rows and ``adapt_transfer`` from the line ends
        and the shortfalls from the suffix past the ``Cb − min`` cut,
        and stores the five boundaries; each holding draws its own
        place off them when read (:meth:`_draw`).

        Without the index no boundary is inside a tier, the order is
        immaterial, and the touched holdings stand as the tail of both
        lines: every holding is served its whole demand.
        """
        self._dirty = False
        self._passes += 1
        self._fresh.clear()
        eff_g, eff_a, eff_b = self.effective_sizes()
        protected_b = min(self.best_effort_min, eff_b)
        touched = self._touched
        keys = self._keys
        if keys is None and (self._entitled > eff_g
                             or self._excess > eff_a):
            keys = self._index()
        if keys is None:
            users = list(touched)
            ents = [holding.entitled for holding in touched.values()]
            excs = [holding.excess for holding in touched.values()]
            line_e = list(accumulate(ents,
                                     initial=self._entitled - sum(ents)))
            line_x = list(accumulate(excs,
                                     initial=self._excess - sum(excs)))
        else:
            users, ents, excs = keys, self._ents, self._excs
            low = self._low
            for user, holding in touched.items():
                at = bisect_left(keys, user)
                ents[at], excs[at] = holding.entitled, holding.excess
                low = min(low, at)
            # A prefix sum is a left fold: re-summing from the lowest
            # changed column gives every later entry bit for bit.
            line_e, line_x = self._line_e, self._line_x
            start_e, start_x = line_e[low], line_x[low]
            del line_e[low:], line_x[low:]
            line_e += accumulate(ents[low:], initial=start_e)
            line_x += accumulate(excs[low:], initial=start_x)
            self._low = len(keys)
        touched.clear()
        # The line ends are both sums, added up exactly as a walk would.
        entitled = self._entitled = line_e[-1]
        excess = self._excess = line_x[-1]

        # What each pool supplies to the two guaranteed tiers.
        raid_b = eff_b - protected_b
        g_guaranteed = entitled if entitled <= eff_g else eff_g
        need = entitled - g_guaranteed
        a_guaranteed = need if need <= eff_a else eff_a
        need -= a_guaranteed
        b_guaranteed = need if need <= raid_b else raid_b
        adapt_transfer = a_guaranteed + b_guaranteed
        left_a, left_g = eff_a - a_guaranteed, eff_g - g_guaranteed
        a_excess = excess if excess <= left_a else left_a
        need = excess - a_excess
        g_excess = need if need <= left_g else left_g

        # The five boundaries the holdings draw off.
        end_a = eff_g + eff_a
        end_b = end_a + raid_b
        self._bounds = None if keys is None else (
            eff_g, end_a, end_b, left_a, left_a + left_g)

        shortfalls: Dict[str, float] = {}
        for at in range(bisect_right(line_e, end_b, 1) - 1, len(ents)):
            need = line_e[at + 1] - end_b
            if need > ents[at]:
                need = ents[at]
            if need > _EPSILON:
                shortfalls[users[at]] = need
        rem_g = left_g - g_excess
        rem_a = left_a - a_excess
        rem_b = eff_b - b_guaranteed

        # --- Tier 3: best-effort demand --------------------------------
        # FCFS: the dict holds users in arrival order (a departed user
        # re-arrives at the back).
        preempted: Dict[str, float] = {}
        g_best_effort = a_best_effort = b_best_effort = 0.0
        for holding in self._best_effort.values():
            need = holding.demand
            got_b = need if need <= rem_b else rem_b
            rem_b -= got_b
            need -= got_b
            got_a = need if need <= rem_a else rem_a
            rem_a -= got_a
            need -= got_a
            got_g = need if need <= rem_g else rem_g
            rem_g -= got_g
            b_best_effort += got_b
            a_best_effort += got_a
            g_best_effort += got_g
            before = holding.served
            holding.served = got_b + got_a + got_g
            if holding.served < before - _EPSILON:
                preempted[holding.user] = before - holding.served

        pools = (
            PoolUsage("Cg", eff_g, g_guaranteed, g_excess, g_best_effort),
            PoolUsage("Ca", eff_a, a_guaranteed, a_excess, a_best_effort),
            PoolUsage("Cb", eff_b, b_guaranteed, 0.0, b_best_effort),
        )
        self.last_report = RebalanceReport(
            shortfalls=shortfalls, preempted=preempted,
            adapt_transfer=adapt_transfer, pools=pools)
        probe = self.probe
        probe.rebalanced(self, self.last_report)
        probe.append(CAPACITY_REBALANCED, failed=self._failed,
                     committed=self.committed_total(),
                     adapt_transfer=adapt_transfer)
        if probe.explaining and (
                shortfalls or preempted or adapt_transfer > _EPSILON):
            # Only eventful passes are provenance-worthy: a
            # water-fill that moved nothing would drown the log.
            probe.decide(
                "rebalance",
                "shortfall" if shortfalls else "adapted",
                subject="partition",
                constraint="capacity" if shortfalls else "",
                reason=f"failed={self._failed:g} "
                       f"adapt_transfer={adapt_transfer:g} "
                       f"shortfalls={len(shortfalls)} "
                       f"preempted={len(preempted)}",
                headroom={"eff_g": eff_g, "eff_a": eff_a, "eff_b": eff_b,
                          "committed": self.committed_total()})
        return self.last_report

    def _draw(self, holding: GuaranteedHolding) -> None:
        """Draw ``holding`` off the last pass's columns, lines and
        boundaries (a key admitted since has no place on the lines yet),
        and stamp it. A holding no boundary reaches — every one, after a
        pass without the index — is served its whole demand, which is
        what the ladder would give it: ``from_g = e, from_a = x``."""
        holding._stamp = self._passes
        bounds = self._bounds
        if bounds is None:
            need, more, reached = holding.entitled, holding.excess, False
        else:
            eff_g, end_a, end_b, left_a, end_x = bounds
            user = holding.user
            at = bisect_left(self._keys, user)
            line = at - bisect_left(self._fresh, user)
            need, start = self._ents[at], self._line_e[line]
            more, start_x = self._excs[at], self._line_x[line]
            reached = need > eff_g - start or (
                more > 0.0 and more > left_a - start_x)
        if not reached:
            holding._from_g, holding._from_a, holding._from_b = (
                need, more, 0.0)
            holding._served = need + more
            return
        # --- Tier 1: entitled demand, from Cg, then Ca, then Cb -------
        room = eff_g - start
        got_g = need if need <= room else room if room > 0.0 else 0.0
        need -= got_g
        room = end_a - (start if start > eff_g else eff_g)
        got_a = need if need <= room else room if room > 0.0 else 0.0
        need -= got_a
        room = end_b - (start if start > end_a else end_a)
        got_b = need if need <= room else room if room > 0.0 else 0.0
        served = got_g + got_a + got_b
        # --- Tier 2: excess demand, from Ca, then Cg -------------------
        if more > 0.0:
            room = left_a - start_x
            more_a = more if more <= room else room if room > 0.0 else 0.0
            more -= more_a
            room = end_x - (start_x if start_x > left_a else left_a)
            more_g = more if more <= room else room if room > 0.0 else 0.0
            got_a += more_a
            got_g += more_g
            served += more_a + more_g
        holding._from_g, holding._from_a, holding._from_b = got_g, got_a, got_b
        holding._served = served

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _guaranteed_served(self) -> float:
        """Capacity serving guaranteed users (entitled plus excess)."""
        return sum(pool.guaranteed + pool.excess
                   for pool in self.last_report.pools)

    def total_served(self) -> float:
        """All capacity currently allocated across every tier.

        Read off the last pass's pool rows (what the pools supply is
        what the holdings are served), not re-summed over holdings.
        """
        self._flush()
        return self._guaranteed_served() + self.best_effort_served()

    def idle_capacity(self) -> float:
        """Effective capacity not serving anyone."""
        self._flush()
        eff_g, eff_a, eff_b = self.effective_sizes()
        return max(0.0, eff_g + eff_a + eff_b - self.total_served())

    def utilization(self) -> float:
        """Fraction of effective capacity in use (0 when none exists)."""
        self._flush()
        eff_total = sum(self.effective_sizes())
        if eff_total <= 0:
            return 0.0
        return min(1.0, self.total_served() / eff_total)

    def snapshot(self) -> "Dict[str, float]":
        """Flat numeric snapshot for metrics and reports."""
        self._flush()
        eff_g, eff_a, eff_b = self.effective_sizes()
        return {
            "cg": self.cg, "ca": self.ca, "cb": self.cb,
            "eff_g": eff_g, "eff_a": eff_a, "eff_b": eff_b,
            "failed": self._failed,
            "committed": self.committed_total(),
            "guaranteed_served": self._guaranteed_served(),
            "best_effort_served": self.best_effort_served(),
            "idle": self.idle_capacity(),
            "utilization": self.utilization(),
            "adapt_transfer": self.last_report.adapt_transfer,
        }
