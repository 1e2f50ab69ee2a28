"""The three adaptation scenarios of Section 4.

* **Scenario 1 — New Service Request**: a request arrives but resources
  are insufficient. The handler queries the repository for active
  services "whose SLAs indicate willingness to accept a degraded QoS
  and/or termination of service", squeezes the degradable ones to their
  floors, and terminates the termination-accepting ones (cheapest
  first) until the request fits.
* **Scenario 2 — Service Termination**: a service completed and
  released resources. The handler (a) restores previously degraded
  sessions, (b) runs the revenue optimizer to upgrade sessions not at
  their best QoS, and (c) presents promotion offers to sessions that
  accept them.
* **Scenario 3 — QoS Degradation**: delivered QoS fell below the SLA.
  The handler restores at the broker level by squeezing others, then
  degrades the victim itself to an SLA-admissible lower point, and
  finally terminates the session on major unrecoverable degradation.
  Section 3.2's resource-level step before these (DSRT shrinking CPU
  contracts toward observed usage) is not modelled (DESIGN §2).

The handlers mutate sessions only through the broker's ``apply_point``
/ ``terminate_session`` entry points, so every move is reflected in the
partition, the reservations, the ledger and the trace at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import SLAError
from ..monitoring.notifications import DegradationNotice
from ..obs.decisions import point_payload
from ..sla.document import ServiceSLA

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .broker import AQoSBroker

#: Degradation severity at or above which a session is terminated
#: rather than adapted (the paper's "major QoS degradation").
MAJOR_DEGRADATION = 0.5


@dataclass
class ScenarioStats:
    """Counters for the benchmark harness."""

    squeezes: int = 0
    terminations_for_compensation: int = 0
    restorations: int = 0
    upgrades: int = 0
    promotions_offered: int = 0
    self_degradations: int = 0
    terminal_degradations: int = 0


class ScenarioEngine:
    """Scenario handlers bound to one broker."""

    def __init__(self, broker: "AQoSBroker") -> None:
        self._broker = broker
        self.stats = ScenarioStats()

    # ------------------------------------------------------------------
    # Scenario 1: new service request under pressure
    # ------------------------------------------------------------------

    def free_capacity_for(self, cpu_needed: float,
                          committed_needed: float) -> bool:
        """Try to make room for a new request.

        Args:
            cpu_needed: Instantaneous CPU units the request must be
                served right now.
            committed_needed: ``g(u)`` head-room needed inside ``Cg``
                (0 for best-effort requests).

        Returns:
            Whether the request now fits.
        """
        broker = self._broker
        if self._fits(cpu_needed, committed_needed):
            return True

        # Step 1: squeeze degradable controlled-load sessions to their
        # floors (frees instantaneous capacity, not commitments). A
        # squeeze moves points only, so the list stays current for
        # step 2.
        degradable = broker.repository.degradable()
        for sla in degradable:
            if not sla.service_class.adjustable:
                continue
            floor = sla.floor_point()
            if sla.delivered_point != floor and (
                    sla.adaptation.accept_degradation
                    or sla.adaptation.alternative_points):
                lowest = self._lowest_point(sla)
                broker.apply_point(sla, lowest)
                self.stats.squeezes += 1
                if broker.probe.explaining:
                    broker._decide(
                        "adaptation", "squeeze", sla_id=sla.sla_id,
                        subject=f"sla-{sla.sla_id}",
                        reason="Scenario 1: squeezed to floor to free "
                               f"cpu={cpu_needed:g}",
                        chosen={"point": point_payload(lowest)})
                if self._fits(cpu_needed, committed_needed):
                    return True

        # Step 2: terminate sessions that accept termination, cheapest
        # (lowest price rate) first — compensation costs the provider
        # the least that way. Accepting termination makes a session
        # degradable, so the victims are all in step 1's list.
        victims = [sla for sla in degradable
                   if sla.adaptation.accept_termination]
        victims.sort(key=lambda sla: sla.price_rate)
        for sla in victims:
            broker._decide("adaptation", "terminate", sla_id=sla.sla_id,
                           subject=f"sla-{sla.sla_id}",
                           constraint="compensation",
                           reason="Scenario 1: terminated (cheapest "
                                  "compensable session) to free capacity")
            broker.terminate_session(sla.sla_id, cause="violation",
                                     note="terminated for compensation "
                                          "(Scenario 1)")
            self.stats.terminations_for_compensation += 1
            if self._fits(cpu_needed, committed_needed):
                return True
        return self._fits(cpu_needed, committed_needed)

    def _fits(self, cpu_needed: float, committed_needed: float) -> bool:
        """Whether the pending request could now be served.

        Commitments must fit inside ``Cg`` (the Algorithm 1 admission
        rule); instantaneous capacity is checked against the compute
        slot table — tier-1 preemption takes care of the partition
        side, but the advance-reservation ledger only frees up when
        squeezed sessions' bookings are actually resized.
        """
        broker = self._broker
        partition = broker.partition
        if committed_needed > 0 and not partition.available_guaranteed_resource(
                committed_needed):
            return False
        now = broker.sim.now
        free = broker.compute_rm.available_at(now)
        return cpu_needed <= free.cpu + 1e-9

    @staticmethod
    def _lowest_point(sla: ServiceSLA) -> "dict":
        """The least-demanding admissible point for a session.

        Prefers the last (most degraded) pre-agreed alternative when
        alternatives were negotiated, falling back to the spec floor.
        """
        candidates = [sla.floor_point()]
        candidates.extend(point for point in sla.adaptation.alternative_points
                          if sla.specification.admits(point))
        def cpu_of(point):
            from ..qos.specification import QoSSpecification
            return QoSSpecification.point_demand(point).cpu
        return min(candidates, key=cpu_of)

    # ------------------------------------------------------------------
    # Scenario 2: service termination frees resources
    # ------------------------------------------------------------------

    def on_service_termination(self) -> None:
        """Use freed resources: restore, upgrade, promote."""
        broker = self._broker

        # (a) restore sessions that adaptation previously degraded.
        for sla in broker.repository.degraded():
            restored = broker.try_apply_point(sla, sla.agreed_point)
            if restored:
                self.stats.restorations += 1
                if broker.probe.explaining:
                    broker._decide(
                        "adaptation", "restore", sla_id=sla.sla_id,
                        subject=f"sla-{sla.sla_id}",
                        reason="Scenario 2: freed resources restored "
                               "the agreed point",
                        chosen={"point": point_payload(sla.agreed_point)})

        # (b) upgrade sessions not receiving their best QoS (the
        # revenue optimizer decides who, within SLA bounds).
        result = broker.run_optimizer()
        if result is not None:
            self.stats.upgrades += sum(
                1 for key, candidate in result.assignment.items()
                if broker.delivers_point(key, candidate.point))

        # (c) promotion offers to sessions that accept them.
        for sla in broker.repository.active():
            if not sla.adaptation.accept_promotion:
                continue
            if not sla.service_class.may_receive_promotions:
                continue
            best = sla.specification.best_point()
            if sla.delivered_point == best:
                continue
            accepted = broker.offer_promotion(sla, best)
            self.stats.promotions_offered += 1
            if accepted:
                self.stats.upgrades += 1

    # ------------------------------------------------------------------
    # Scenario 3: QoS degradation
    # ------------------------------------------------------------------

    def on_degradation(self, notice: DegradationNotice) -> None:
        """Restore, degrade-in-place, or terminate a degraded session."""
        broker = self._broker
        try:
            sla = broker.repository.get(notice.sla_id)
        except SLAError:
            return
        if not sla.status.is_live or not sla.service_class.monitored:
            return

        # Broker-level restore: squeeze others so this session's
        # entitled demand is served again.
        holding = broker.partition_holding(sla.sla_id)
        if holding is not None and holding.shortfall > 1e-9:
            freed = self.free_capacity_for(holding.shortfall, 0.0)
            broker.partition.rebalance()
            holding = broker.partition_holding(sla.sla_id)
            if freed and holding is not None and holding.shortfall <= 1e-9:
                self.stats.restorations += 1
                broker.record(f"Scenario 3: restored SLA {sla.sla_id} by "
                              f"squeezing other sessions")
                broker._decide("adaptation", "restore", sla_id=sla.sla_id,
                               subject=f"sla-{sla.sla_id}",
                               reason="Scenario 3: restored by squeezing "
                                      "other sessions")
                return

        severity = notice.severity
        if sla.service_class.adjustable:
            # Degrade in place to a pre-agreed lower point.
            lowest = self._lowest_point(sla)
            if sla.delivered_point != lowest:
                if broker.try_apply_point(sla, lowest):
                    self.stats.self_degradations += 1
                    broker.record(f"Scenario 3: degraded SLA {sla.sla_id} "
                                  f"to a pre-agreed lower QoS")
                    if broker.probe.explaining:
                        broker._decide(
                            "adaptation", "degrade", sla_id=sla.sla_id,
                            subject=f"sla-{sla.sla_id}",
                            reason=f"Scenario 3: degraded in place "
                                   f"(severity {severity:.2f})",
                            chosen={"point": point_payload(lowest)})
                    return

        if severity >= MAJOR_DEGRADATION:
            broker._decide("adaptation", "terminate", sla_id=sla.sla_id,
                           subject=f"sla-{sla.sla_id}",
                           constraint="major-degradation",
                           reason=f"Scenario 3: severity {severity:.2f} >= "
                                  f"{MAJOR_DEGRADATION:g} and no restore "
                                  f"or degrade-in-place succeeded")
            broker.terminate_session(sla.sla_id, cause="violation",
                                     note="major QoS degradation "
                                          "(Scenario 3)")
            self.stats.terminal_degradations += 1
        else:
            # Restoration failed but the degradation is tolerable:
            # penalize per the SLA and alert the client.
            broker.penalize(sla, notice)
            broker.record(f"Scenario 3: SLA {sla.sla_id} degraded "
                          f"(severity {severity:.2f}); client alerted")
            broker._decide("adaptation", "penalize", sla_id=sla.sla_id,
                           subject=f"sla-{sla.sla_id}",
                           reason=f"Scenario 3: tolerable degradation "
                                  f"(severity {severity:.2f}); penalized "
                                  f"per the SLA")
