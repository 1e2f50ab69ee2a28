"""The AQoS broker — the Application QoS broker/manager.

The AQoS "is required to interact with clients, RMs, NRMs and
neighboring AQoSs ... negotiates SLAs with clients and communicates
parameters associated with an SLA to the corresponding resource
manager ... is responsible for ensuring SLA conformance to allocated
resources, and provides support for parameter adaptation when a SLA
violation is detected" (Section 2.1).

One broker instance orchestrates, per Figure 2:

1. **Discovery** — UDDIe query, then resource-availability checks with
   the compute RM and the NRM.
2. **Negotiation & SLA establishment** — offers, client accept,
   SLA document into the repository.
3. **Reservation & allocation** — the Reservation System co-allocates
   (temporary → confirmed), GRAM launches the service, the process
   binds its reservation.
4. **QoS management** — sensors attach, SLA-Verif monitors, the
   adaptation engine and scenario handlers react, the optimizer
   periodically re-tunes controlled-load quality, accounting accrues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import (
    AdmissionError,
    CapacityError,
    NetworkError,
    SLAError,
)
from ..monitoring.mds import InformationService
from ..monitoring.notifications import DegradationNotice, NotificationHub
from ..monitoring.sensors import Sensor, SensorReading
from ..monitoring.verifier import SlaVerifier
from ..network.interdomain import EndToEndAllocation, InterDomainCoordinator
from ..obs.decisions import point_payload
from ..network.nrm import NetworkResourceManager
from ..probe import Probe
from ..qos.classes import ServiceClass
from ..qos.cost import PricingPolicy
from ..qos.parameters import Dimension
from ..qos.specification import OperatingPoint, QoSSpecification
from ..qos.vector import ResourceVector
from ..recovery.journal import BEST_EFFORT_SET, DeferredValue, SLA_SAVED
from ..registry.query import ServiceQuery
from ..registry.uddie import ServiceRecord, UddieRegistry
from ..resources.compute import ComputeResourceManager, Job, JobState
from ..sim.engine import Simulator
from ..sim.trace import TraceRecorder
from ..telemetry import MetricsRegistry
from ..sla.document import ServiceSLA, SlaStatus
from ..sla.lifecycle import Phase, QoSFunction, QoSSession
from ..sla.negotiation import Negotiation, Offer, ServiceRequest
from ..sla.repository import SLARepository
from ..sla.violations import violation_penalty
from ..xmlmsg.codec import render_service_sla
from .accounting import AccountingLedger
from .adaptation import AdaptationEngine
from .allocation import AllocationManager
from .capacity import CapacityPartition, GuaranteedHolding
from .optimizer import (
    OptimizationResult,
    QualityCandidate,
    candidates_for,
    greedy_optimize,
)
from .discovery import (
    DirectDiscovery,
    DiscoveryResult,
    DiscoveryService,
    _exact,
)
from .reservation_system import CompositeReservation, ReservationSystem
from .scenarios import ScenarioEngine

#: Quality levels the optimizer enumerates per controlled-load SLA.
_OPTIMIZER_LEVELS = 4


@dataclass
class BrokerStats:
    """Counters the experiment harness reads."""

    requests: int = 0
    accepted: int = 0
    rejected_discovery: int = 0
    rejected_capacity: int = 0
    rejected_negotiation: int = 0
    best_effort_requests: int = 0
    best_effort_granted: int = 0
    completed: int = 0
    terminated: int = 0
    expired: int = 0
    optimizer_runs: int = 0


@dataclass
class ServiceOutcome:
    """Result of one end-to-end service request."""

    request: ServiceRequest
    accepted: bool
    reason: str = ""
    negotiation: Optional[Negotiation] = None
    sla: Optional[ServiceSLA] = None
    session: Optional[QoSSession] = None


class _SessionComputeSensor(Sensor):
    """Per-session CPU/memory sensor reading the partition holding."""

    def __init__(self, name: str, sim: Simulator, broker: "AQoSBroker",
                 sla_id: int) -> None:
        super().__init__(name, sim)
        self._broker = broker
        self._sla_id = sla_id

    def sample(self) -> SensorReading:
        holding = self._broker.partition_holding(self._sla_id)
        sla = self._broker.repository.get(self._sla_id)
        served = holding.served if holding is not None else 0.0
        values = {Dimension.CPU: served}
        memory = sla.delivered_point.get(Dimension.MEMORY_MB)
        if memory is not None:
            # Memory is booked wholesale with the reservation; a CPU
            # shortfall scales the usable share.
            entitled = max(holding.entitled, 1e-9) if holding else 1e-9
            scale = min(1.0, served / entitled) if holding else 1.0
            values[Dimension.MEMORY_MB] = memory * scale
        return SensorReading(sensor=self.name, time=self._sim.now,
                             values=values)


class _SessionNetworkSensor(Sensor):
    """Per-session bandwidth/delay/loss sensor over the flow booking."""

    def __init__(self, name: str, sim: Simulator, broker: "AQoSBroker",
                 sla_id: int) -> None:
        super().__init__(name, sim)
        self._broker = broker
        self._sla_id = sla_id

    def sample(self) -> SensorReading:
        resources = self._broker.allocation.get(self._sla_id)
        booking = (resources.reservation.network_booking
                   if resources.reservation is not None else None)
        values: Dict[Dimension, float] = {}
        if booking is not None:
            if isinstance(booking, EndToEndAllocation):
                coordinator = self._broker.coordinator
                assert coordinator is not None
                values[Dimension.BANDWIDTH_MBPS] = coordinator.measure(booking)
                delays = sum(nrm.measure(flow).delay_ms
                             for nrm, flow in booking.segments)
                values[Dimension.DELAY_MS] = delays
                survive = 1.0
                for nrm, flow in booking.segments:
                    survive *= 1.0 - nrm.measure(flow).loss
                values[Dimension.PACKET_LOSS] = 1.0 - survive
            else:
                nrm = self._broker.nrm
                assert nrm is not None
                measurement = nrm.measure(booking)
                values[Dimension.BANDWIDTH_MBPS] = measurement.bandwidth_mbps
                values[Dimension.DELAY_MS] = measurement.delay_ms
                values[Dimension.PACKET_LOSS] = measurement.loss
        return SensorReading(sensor=self.name, time=self._sim.now,
                             values=values)


class AQoSBroker:
    """The Application QoS broker.

    Args:
        sim: Simulation engine.
        registry: UDDIe registry for discovery.
        compute_rm: The compute resource manager.
        partition: The administrator's capacity partition (CPU nodes).
        nrm: Optional single-domain NRM.
        coordinator: Optional inter-domain coordinator (overrides
            ``nrm`` for booking when given).
        pricing: Pricing policy.
        trace: Optional activity recorder.
        repository: The SLA store; built fresh when omitted.
        optimizer_interval: When > 0, the optimizer runs periodically
            ("the optimization heuristic is executed periodically by
            the AQoS broker", Section 5.5).
        probe: The testbed's instrumentation seam, shared with every
            subsystem the broker builds.
    """

    def __init__(self, sim: Simulator, *, registry: UddieRegistry,
                 compute_rm: ComputeResourceManager,
                 partition: CapacityPartition,
                 nrm: Optional[NetworkResourceManager] = None,
                 coordinator: Optional[InterDomainCoordinator] = None,
                 pricing: Optional[PricingPolicy] = None,
                 trace: Optional[TraceRecorder] = None,
                 repository: Optional[SLARepository] = None,
                 optimizer_interval: float = 0.0,
                 probe: Optional[Probe] = None) -> None:
        self.sim = sim
        self.registry = registry
        #: Direct registry lookups; chaos wiring swaps in a
        #: :class:`~repro.core.discovery.ResilientDiscovery` that rides
        #: the message bus and degrades to a stale cache.
        self.discovery: "DiscoveryService" = DirectDiscovery(registry)
        self.compute_rm = compute_rm
        self.partition = partition
        self.nrm = nrm
        self.coordinator = coordinator
        self.pricing = pricing if pricing is not None else PricingPolicy()
        self.trace = trace
        self.mds = InformationService()
        self.hub = NotificationHub()
        # NB: an identity check, not truthiness — an empty repository is
        # falsy (it defines __len__) and must not be replaced.
        self.repository = (repository if repository is not None
                           else SLARepository())
        self.ledger = AccountingLedger()
        self.allocation = AllocationManager()
        #: The broker-wide metrics registry — the single counting
        #: mechanism for cross-cutting operational stats (QLNT113).
        self.metrics = MetricsRegistry(now=lambda: sim.now)
        self.probe = probe if probe is not None else Probe()
        #: Cache of journaled SLA XML keyed by sla_id; an entry is
        #: reused while the mutable document fields (the fingerprint)
        #: are unchanged, which keeps journaling off the XML encoder
        #: for status-only transitions.
        self._journal_xml_cache: Dict[int, "tuple"] = {}
        self.engine = AdaptationEngine(partition, trace=trace,
                                       now=lambda: sim.now)
        self.verifier = SlaVerifier(sim, self.mds, self.repository,
                                    self.hub, trace=trace,
                                    metrics=self.metrics, probe=self.probe)
        self.reservation_system = ReservationSystem(
            sim, compute_rm, nrm=nrm, coordinator=coordinator, trace=trace,
            probe=self.probe)
        self.scenarios = ScenarioEngine(self)
        self.stats = BrokerStats()
        self._closing: set = set()
        self._be_counter = 0
        #: The running batch's discovery answers, ``exact query ->
        #: records``, all fetched at :attr:`_lookups_at`; ``None``
        #: outside :meth:`request_services`.
        self._lookups: "Optional[Dict[tuple, tuple]]" = None
        self._lookups_at = 0.0

        compute_rm.subscribe_capacity(self._on_capacity_change)
        compute_rm.subscribe_job_end(self._on_job_end)
        self.hub.subscribe(self._on_degradation_notice)
        if nrm is not None:
            nrm.subscribe_degradation(
                self.verifier.on_network_degradation(
                    self.allocation.sla_for_flow))
        if coordinator is not None:
            for domain_nrm in coordinator._nrms.values():  # noqa: SLF001
                domain_nrm.subscribe_degradation(
                    self.verifier.on_network_degradation(
                        self.allocation.sla_for_flow))
        if optimizer_interval > 0:
            self._schedule_optimizer(optimizer_interval)

    # ==================================================================
    # Instrumentation payloads
    # ==================================================================

    def _pool_headroom(self) -> "Dict[str, float]":
        """Per-pool capacity context for decision records.

        Only **non-flushing** partition reads: flushing a deferred
        batch rebalance from inside an emit point would change the
        journal sequence relative to provenance-off runs.
        """
        eff_g, eff_a, eff_b = self.partition.effective_sizes()
        committed = self.partition.committed_total()
        return {"eff_g": eff_g, "eff_a": eff_a, "eff_b": eff_b,
                "committed": committed,
                "cg_headroom": self.partition.cg - committed}

    @staticmethod
    def _offer_candidates(negotiation: Negotiation
                          ) -> "List[Dict[str, object]]":
        """The negotiated offers as decision-record candidate dicts."""
        return [{"point": point_payload(offer.point),
                 "revenue_rate": offer.price_rate,
                 "note": offer.note}
                for offer in negotiation.offers]

    def _decide(self, action: str, outcome: str, **context: object) -> None:
        """Emit one broker/scenario verdict (the QLNT116 funnel).

        Head-room is attached here so emit sites stay one-liners;
        anything expensive to build (candidate lists, pricing calls,
        f-string reasons) is gated on ``probe.explaining`` at the
        call site.
        """
        if self.probe.explaining:  # head-room is payload too
            self.probe.decide(action, outcome,
                              headroom=self._pool_headroom(), **context)

    def _journal_sla(self, sla: ServiceSLA) -> None:
        """Append an ``sla_saved`` record (document + lifecycle status).

        Every durable change to an SLA document funnels through here,
        so the journal always holds the latest full Table 4 XML for
        each SLA — recovery rebuilds the repository from these alone.
        """
        if not self.probe.journaling:
            return
        # Most saves are status-only transitions around an unchanged
        # document; re-render the XML only when the mutable document
        # fields (agreed/delivered point, price) actually moved.  The
        # status rides alongside the XML in its own payload field, so
        # a cached document is still exact.  The cache keys on copies
        # of the point dicts (C-speed dict equality against the live
        # ones), not on the SLA object, which may be rebound wholesale
        # during renegotiation.
        cached = self._journal_xml_cache.get(sla.sla_id)
        if (cached is not None and cached[0] == sla.agreed_point
                and cached[1] == sla.delivered_point
                and cached[2] == sla.price_rate):  # qlint: disable=QLNT102 -- cache fingerprint: any change, however small, must re-render
            xml = cached[3]
        else:
            # Render from a point-in-time snapshot, deferred to encode
            # time: an in-memory store never pays for the XML on the
            # admission path, and a durable store resolves it inside
            # the append.  The copy pins the two mutable point dicts;
            # every other field is immutable or rebound wholesale.
            # (A raw ``__dict__`` copy, not ``copy.copy``: the generic
            # path goes through ``__reduce_ex__`` and is several times
            # slower on this hot path.)
            snapshot = ServiceSLA.__new__(ServiceSLA)
            state = dict(sla.__dict__)
            state["agreed_point"] = dict(sla.agreed_point)
            state["delivered_point"] = dict(sla.delivered_point)
            snapshot.__dict__ = state
            xml = DeferredValue(lambda: render_service_sla(snapshot))
            self._journal_xml_cache[sla.sla_id] = (
                snapshot.agreed_point, snapshot.delivered_point,
                sla.price_rate, xml)
        self.probe.append(SLA_SAVED, sla_id=sla.sla_id,
                          status=sla.status.value, xml=xml)

    # ==================================================================
    # Establishment phase (Figure 2, steps 1-2)
    # ==================================================================

    def discover(self, request: ServiceRequest) -> List[ServiceRecord]:
        """Query UDDIe for services matching the request's QoS.

        Discovery goes through the pluggable :attr:`discovery`
        transport; a degraded (stale-cache) answer is accepted but
        counted and traced, so operators can see the broker running on
        old registry data.

        Inside :meth:`request_services` each distinct exact query
        (:func:`~repro.core.discovery._exact`, so ``True``/``1``/``1.0``
        constraints stay apart) is asked once per sim instant; a later
        request with the same query gets the held answer as a fresh
        list. No admission step registers or removes a service, and
        scheduled events fire only when the clock moves, so the held
        answers are dropped at the first request that finds
        ``sim.now`` moved (a delay fault or a retry backoff advanced
        it, maybe inside the lookup itself). A degraded answer is not
        held: the next request asks again, as a sequential one would.
        """
        query = ServiceQuery(name_pattern=request.service_name,
                             qos=request.specification)
        lookups = self._lookups
        if lookups is None:
            result = self.discovery.find(query)
        else:
            # The clock never runs back, so ``>`` is exactly "moved".
            now = self.sim.now
            if now > self._lookups_at:
                lookups.clear()
                self._lookups_at = now
            key = _exact(query)
            held = lookups.get(key)
            if held is not None:
                result = DiscoveryResult(list(held))
            else:
                result = self.discovery.find(query)
                if not result.degraded:
                    lookups[key] = tuple(result.records)
        matches = result.records
        if result.degraded:
            self.metrics.counter("repro_discovery_degraded_total").inc()
            self.record(f"degraded discovery for {request.client!r}: "
                        f"serving {len(matches)} stale record(s) "
                        f"(age {result.age:g})")
        self.record(f"discovery for {request.client!r}: "
                    f"{len(matches)} matching service(s) for "
                    f"{request.service_name!r}")
        return matches

    def _resources_available(self, request: ServiceRequest,
                             demand: ResourceVector) -> bool:
        """The Figure 2 Query{Computation,Network}Resources step."""
        compute_free = self.compute_rm.available(request.start, request.end)
        compute_demand = ResourceVector(cpu=demand.cpu,
                                        memory_mb=demand.memory_mb,
                                        disk_mb=demand.disk_mb)
        if not compute_demand.fits_within(compute_free):
            return False
        if request.network is not None:
            booker = self.coordinator or self.nrm
            if booker is None:
                return False
            try:
                topology = (self.nrm._topology if self.nrm is not None  # noqa: SLF001
                            else self.coordinator._topology)  # noqa: SLF001
                source = topology.site_by_address(
                    request.network.source_ip).name
                destination = topology.site_by_address(
                    request.network.dest_ip).name
            except NetworkError:
                return False
            if not booker.can_allocate(source, destination,
                                       request.network.bandwidth_mbps,
                                       request.start, request.end):
                return False
        return True

    def make_offers(self, request: ServiceRequest) -> List[Offer]:
        """Build SLA offers for an admissible request.

        For a guaranteed request there is a single offer at the exact
        specification. A controlled-load request gets the best
        admissible point plus the floor as a cheaper alternative, with
        the floor also recorded in the SLA's adaptation options.
        """
        spec = request.specification
        best = spec.best_point()
        offers = [Offer(point=best,
                        price_rate=self.pricing.point_rate(
                            best, request.service_class),
                        adaptation=request.adaptation,
                        note="best quality")]
        if request.service_class.adjustable:
            floor = spec.worst_point()
            if floor != best:
                from dataclasses import replace as _replace
                alternatives = list(request.adaptation.alternative_points)
                if floor not in alternatives:
                    alternatives.append(floor)
                adaptation = _replace(
                    request.adaptation,
                    alternative_points=tuple(alternatives))
                offers[0] = Offer(point=best,
                                  price_rate=offers[0].price_rate,
                                  adaptation=adaptation,
                                  note="best quality")
                offers.append(Offer(
                    point=floor,
                    price_rate=self.pricing.point_rate(
                        floor, request.service_class),
                    adaptation=adaptation,
                    note="minimum acceptable quality"))
        return offers

    def negotiate(self, request: ServiceRequest) -> "tuple[Negotiation, str]":
        """Run discovery + resource query and propose offers.

        Returns the negotiation (possibly already FAILED) and a reason
        string for failures.
        """
        with self.probe.span("negotiate", "aqos-broker",
                             client=request.client,
                             service=request.service_name):
            return self._negotiate(request)

    def _negotiate(self, request: ServiceRequest
                   ) -> "tuple[Negotiation, str]":
        self.stats.requests += 1
        negotiation = Negotiation(request)
        if request.service_class.has_sla:
            matches = self.discover(request)
            if not matches:
                negotiation.propose([])
                self.stats.rejected_discovery += 1
                self._decide("admission", "reject", subject=request.client,
                             constraint="discovery",
                             reason="no matching service in UDDIe")
                return negotiation, "no matching service in UDDIe"
        demand = QoSSpecification.point_demand(
            request.specification.best_point())
        floor_demand = QoSSpecification.point_demand(
            request.specification.worst_point())
        committed = (floor_demand.cpu
                     if request.service_class.adjustable else demand.cpu)
        fits = (self._resources_available(request, floor_demand)
                and (committed <= 0
                     or self.partition.available_guaranteed_resource(
                         committed)))
        if not fits:
            # Scenario 1: try to free capacity before refusing.
            self.record(f"insufficient resources for {request.client!r}; "
                        f"invoking Scenario 1 adaptation")
            self.scenarios.free_capacity_for(floor_demand.cpu, committed)
            fits = (self._resources_available(request, floor_demand)
                    and (committed <= 0
                         or self.partition.available_guaranteed_resource(
                             committed)))
        if not fits:
            negotiation.propose([])
            self.stats.rejected_capacity += 1
            if self.probe.explaining:
                self._decide("admission", "reject", subject=request.client,
                             constraint="capacity",
                             reason=f"insufficient resources "
                                    f"(needs cpu={floor_demand.cpu:g}, "
                                    f"committed={committed:g} guaranteed)")
            return negotiation, "insufficient resources"
        negotiation.propose(self.make_offers(request))
        if negotiation.offers:
            self.record(f"proposed {len(negotiation.offers)} offer(s) to "
                        f"{request.client!r} (best at rate "
                        f"{negotiation.offers[0].price_rate:g})")
            return negotiation, ""
        self.stats.rejected_negotiation += 1
        if self.probe.explaining:
            budget = ("unconstrained" if request.budget_rate is None
                      else f"{request.budget_rate:g}")
            self._decide("admission", "reject", subject=request.client,
                         constraint="negotiation",
                         reason="no offer within the client's budget "
                                f"(budget_rate={budget})")
        return negotiation, "no offer within the client's budget"

    def establish(self, negotiation: Negotiation) -> ServiceOutcome:
        """Turn an accepted negotiation into a live session."""
        with self.probe.span("establish", "aqos-broker",
                             client=negotiation.request.client):
            return self._establish(negotiation)

    def _establish(self, negotiation: Negotiation) -> ServiceOutcome:
        request = negotiation.request
        sla = negotiation.build_sla(self.repository.next_id())
        session = QoSSession(session_id=sla.sla_id)
        session.perform(QoSFunction.SPECIFICATION, self.sim.now)
        session.perform(QoSFunction.MAPPING, self.sim.now)
        session.perform(QoSFunction.NEGOTIATION, self.sim.now)

        # Reservation (temporary, then confirmed — Section 3.1).
        session.perform(QoSFunction.RESERVATION, self.sim.now)
        try:
            composite = self.reservation_system.reserve(sla)
        except (CapacityError, NetworkError):
            self.scenarios.free_capacity_for(
                sla.agreed_demand().cpu, 0.0)
            try:
                composite = self.reservation_system.reserve(sla)
            except (CapacityError, NetworkError) as error:
                self.stats.rejected_capacity += 1
                session.enter_clearing("violation")
                session.close()
                reason = f"reservation failed: {error}"
                if self.probe.explaining:
                    self._decide("admission", "reject",
                                 subject=request.client,
                                 constraint="reservation", reason=reason,
                                 candidates=self._offer_candidates(
                                     negotiation))
                return ServiceOutcome(request=request, accepted=False,
                                      reason=reason, negotiation=negotiation,
                                      session=session)

        self.repository.save(sla)
        sla.establish()
        self._journal_sla(sla)
        self.reservation_system.confirm(composite)
        resources = self.allocation.open_session(sla.sla_id, session)
        resources.reservation = composite
        self.stats.accepted += 1
        self.record(f"SLA {sla.sla_id} established for {sla.client!r} "
                    f"({sla.service_class.value}, rate {sla.price_rate:g})")
        if self.probe.explaining:
            self._decide("admission", "accept",
                         subject=self._user_key(sla.sla_id),
                         sla_id=sla.sla_id,
                         reason=f"offer accepted by {sla.client!r} "
                                f"({sla.service_class.value})",
                         candidates=self._offer_candidates(negotiation),
                         chosen={"point": point_payload(sla.agreed_point),
                                 "revenue_rate": sla.price_rate})

        # Allocation + invocation happen at the window start: an
        # advance reservation (start in the future) holds its GARA
        # booking now but consumes live capacity only when it begins.
        if sla.start > self.sim.now + 1e-9:
            self.record(f"SLA {sla.sla_id}: advance reservation — "
                        f"activation scheduled at t={sla.start:g}")
            self.sim.schedule_at(
                sla.start, lambda: self._activate_session(sla.sla_id),
                label=f"sla:{sla.sla_id}:activate")
        else:
            self._activate_session(sla.sla_id)
        self.sim.schedule_at(sla.end, lambda: self._on_window_end(sla.sla_id),
                             label=f"sla:{sla.sla_id}:window-end")
        return ServiceOutcome(request=request, accepted=True,
                              negotiation=negotiation, sla=sla,
                              session=session)

    def _activate_session(self, sla_id: int) -> None:
        """Window start: partition admission, launch, monitoring.

        For an advance reservation, commitments may have filled up in
        the meantime; Scenario 1 gets one shot at freeing them, and an
        un-admittable session is terminated with a violation (the
        provider broke the agreed window).
        """
        with self.probe.span("activate-session", "aqos-broker",
                             sla_id=sla_id):
            self._activate_session_impl(sla_id)

    def _activate_session_impl(self, sla_id: int) -> None:
        sla = self.repository.get(sla_id)
        if sla.status is not SlaStatus.ESTABLISHED:
            return
        session = self.allocation.get(sla_id).session
        resources = self.allocation.get(sla_id)
        composite = resources.reservation
        committed = (sla.floor_demand().cpu
                     if sla.service_class.adjustable
                     else sla.agreed_demand().cpu)
        user_key = self._user_key(sla_id)
        if committed > 0:
            if not self.partition.available_guaranteed_resource(committed):
                self.scenarios.free_capacity_for(0.0, committed)
            try:
                self.engine.admit_guaranteed(user_key, committed)
            except AdmissionError as error:
                self.record(f"SLA {sla_id}: activation failed "
                            f"({error}); terminating")
                if self.probe.explaining:
                    self._decide("activation", "reject", subject=user_key,
                                 sla_id=sla_id, constraint="admission",
                                 reason=f"activation failed: {error}")
                self.terminate_session(sla_id, cause="violation",
                                       note="activation failed")
                return

        session.enter_active()
        session.perform(QoSFunction.ALLOCATION, self.sim.now)
        if committed > 0:
            self.engine.allocate_guaranteed_resource(
                user_key, sla.delivered_demand().cpu)
        if composite is not None and composite.compute_handle is not None:
            # A job that survived a broker crash is adopted, not
            # relaunched — the reservation binding identifies it.
            surviving = self.compute_rm.running_job_for(
                composite.compute_handle)
            if surviving is not None:
                resources.job = surviving
            else:
                try:
                    resources.job = self.compute_rm.launch(
                        sla.service_name, composite.compute_handle,
                        duration=sla.end - self.sim.now,
                        dsrt_fraction=0.8)
                except CapacityError:
                    # The CPU scheduler is saturated even though the
                    # slot table admitted the booking (contracts only
                    # approximate bookings: integer nodes, clamped
                    # growth). The reservation is what was sold — run
                    # the job without a DSRT contract rather than
                    # breaking an established SLA.
                    resources.job = self.compute_rm.launch(
                        sla.service_name, composite.compute_handle,
                        duration=sla.end - self.sim.now)
                    self.record(f"SLA {sla_id}: DSRT saturated; job "
                                f"launched without a CPU contract")
        sla.activate()
        self._journal_sla(sla)

        # Monitoring wiring.
        session.perform(QoSFunction.MONITORING, self.sim.now)
        compute_sensor = _SessionComputeSensor(
            f"session/{sla_id}/compute", self.sim, self, sla_id)
        self.verifier.attach_sensor(sla_id, compute_sensor)
        resources.sensor_names.append(compute_sensor.name)
        if composite is not None and composite.network_booking is not None:
            network_sensor = _SessionNetworkSensor(
                f"session/{sla_id}/network", self.sim, self, sla_id)
            self.verifier.attach_sensor(sla_id, network_sensor)
            resources.sensor_names.append(network_sensor.name)
        self.ledger.session_started(sla_id, self.sim.now, sla.price_rate)
        self.probe.session_started(sla_id, sla.service_class.value,
                                   self.sim.now)
        # Counted up/down on activate/close rather than recounted from
        # the repository: the recount is O(n log n) and sits on the
        # admission hot path. Recovery re-seeds the gauge after replay.
        self.metrics.gauge("repro_sla_active_sessions").add(1.0)

    def request_service(self, request: ServiceRequest) -> ServiceOutcome:
        """One-call client flow: negotiate, auto-accept the first offer,
        establish. Best-effort requests route to
        :meth:`request_best_effort` semantics and report granted/not.
        """
        if request.service_class is ServiceClass.BEST_EFFORT:
            demand = QoSSpecification.point_demand(
                request.specification.best_point())
            granted = self.request_best_effort(
                request.client, demand.cpu,
                duration=request.duration)
            return ServiceOutcome(request=request, accepted=granted,
                                  reason="" if granted
                                  else "insufficient best-effort capacity")
        negotiation, reason = self.negotiate(request)
        if negotiation.state.value != "offered":
            return ServiceOutcome(request=request, accepted=False,
                                  reason=reason, negotiation=negotiation)
        negotiation.accept()
        return self.establish(negotiation)

    def request_services(
            self, requests: "Sequence[ServiceRequest]",
    ) -> "List[ServiceOutcome]":
        """Admit a batch of requests at the current sim tick.

        Decision-identical to calling :meth:`request_service` on each
        request in order — same accepts, same rejects, same holdings —
        but the per-request overheads are amortized across the batch:

        * the capacity partition runs **one** water-fill for the whole
          batch instead of one per admission
          (:meth:`~repro.core.capacity.CapacityPartition.defer_rebalances`);
          any mid-batch read of rebalance-derived state (a rejection
          probing idle capacity, a Scenario-1 squeeze, a best-effort
          admission) flushes the pending pass first, which is exactly
          the fall-back to per-request semantics;
        * the journal buffers every record the batch writes and
          group-commits them in one bulk append
          (:meth:`~repro.recovery.journal.Journal.begin_group`) — LSNs
          are identical to sequential admission, only the store-level
          write is batched;
        * discovery asks UDDIe **once** per distinct exact query and
          sim instant instead of once per request (:meth:`discover`):
          on a bus transport that is one ``find_services`` exchange
          per query where there was one per request.
        """
        partition = self.partition
        outcomes: "List[ServiceOutcome]" = []
        with self.probe.group():
            partition.defer_rebalances()
            self._lookups = {}
            self._lookups_at = self.sim.now
            try:
                # The batch-level span parents every per-request tree,
                # so one batched episode renders as one connected
                # trace instead of len(requests) disjoint roots.
                with self.probe.span("batch_admission", "aqos-broker",
                                     batch_size=len(requests)):
                    for request in requests:
                        outcomes.append(self.request_service(request))
            finally:
                self._lookups = None
                # Settle the batch's single water-fill before the
                # group commits, so its journal record lands inside
                # the group.
                partition.resume_rebalances()
        return outcomes

    # ==================================================================
    # Best effort
    # ==================================================================

    def request_best_effort(self, user: str, cpu: float, *,
                            duration: Optional[float] = None) -> bool:
        """Serve a best-effort request from ``Cb`` plus idle capacity.

        Strict: as the paper's algorithm does, a request that does not
        fit whole is refused rather than partially served.
        """
        self.stats.requests += 1
        self.stats.best_effort_requests += 1
        if cpu <= 0:
            self._decide("best_effort", "reject", subject=user,
                         constraint="demand",
                         reason="non-positive demand")
            return False
        if not self.engine.can_allocate_best_effort(cpu):
            self.record(f"best-effort request by {user!r} for {cpu:g} "
                        f"node(s) refused (idle="
                        f"{self.partition.idle_capacity():g})")
            if self.probe.explaining:
                self._decide("best_effort", "reject", subject=user,
                             constraint="capacity",
                             reason=f"requested {cpu:g} node(s), idle="
                                    f"{self.partition.idle_capacity():g}")
            return False
        self._be_counter += 1
        key = f"be-{user}-{self._be_counter}"
        decision = self.engine.allocate_best_effort_resource(key, cpu)
        if decision.granted <= 0:
            self.engine.release_best_effort(key)
            self.record(f"best-effort request by {user!r} for {cpu:g} "
                        f"node(s): nothing available")
            if self.probe.explaining:
                self._decide("best_effort", "reject", subject=user,
                             constraint="capacity",
                             reason=f"requested {cpu:g} node(s): "
                                    f"nothing available")
            return False
        self.probe.append(BEST_EFFORT_SET, user=key, demand=cpu)
        if duration is not None:
            def _release() -> None:
                self.engine.release_best_effort(key)
                self.probe.append(BEST_EFFORT_SET, user=key, demand=0.0)
            self.sim.schedule(duration, _release,
                              label=f"best-effort:{key}:release")
        self.stats.best_effort_granted += 1
        self.record(f"best-effort request by {user!r}: granted "
                    f"{decision.granted:g} of {cpu:g} node(s)")
        self._decide("best_effort", "grant", subject=user,
                     chosen={"granted": decision.granted, "requested": cpu})
        return True

    # ==================================================================
    # Active phase
    # ==================================================================

    def _user_key(self, sla_id: int) -> str:
        return f"sla-{sla_id}"

    def partition_holding(self, sla_id: int) -> Optional[GuaranteedHolding]:
        """The partition holding behind an SLA (``None`` if released)."""
        try:
            return self.partition.guaranteed_holding(self._user_key(sla_id))
        except AdmissionError:
            return None

    def delivers_point(self, service_key: str,
                       point: OperatingPoint) -> bool:
        """Whether the session behind ``service_key`` currently
        delivers ``point`` (scenario-statistics helper)."""
        sla_id = int(service_key.split("-", 1)[1])
        sla = self.repository.get(sla_id)
        return sla.delivered_point == dict(point)

    def apply_point(self, sla: ServiceSLA, point: OperatingPoint) -> None:
        """Move a session's delivered operating point everywhere at once:
        SLA document, partition demand, compute reservation, network
        flow, and the accounting rate."""
        if dict(point) == sla.delivered_point:
            return
        sla.set_delivered_point(point)
        demand = sla.delivered_demand()
        user_key = self._user_key(sla.sla_id)
        if self.partition_holding(sla.sla_id) is not None:
            self.engine.allocate_guaranteed_resource(user_key, demand.cpu)
        if self.allocation.has(sla.sla_id):
            resources = self.allocation.get(sla.sla_id)
            composite = resources.reservation
            if composite is not None and composite.compute_handle is not None:
                self.reservation_system.modify_compute(composite, demand,
                                                       force=True)
                if resources.job is not None:
                    self.compute_rm.resize_job_contract(resources.job,
                                                        demand.cpu)
            if composite is not None and composite.network_booking is not None:
                self._resize_network(composite, point)
        new_rate = self.pricing.point_rate(point, sla.service_class)
        self.ledger.rate_changed(sla.sla_id, self.sim.now, new_rate)
        self._journal_sla(sla)
        self.record(f"SLA {sla.sla_id}: delivered point moved "
                    f"(rate now {new_rate:g})")

    def try_apply_point(self, sla: ServiceSLA,
                        point: OperatingPoint) -> bool:
        """Apply a point only if capacity allows; ``False`` otherwise."""
        demand = QoSSpecification.point_demand(point)
        holding = self.partition_holding(sla.sla_id)
        current_cpu = holding.served if holding is not None else 0.0
        extra = demand.cpu - current_cpu
        if extra > self.partition.idle_capacity() + 1e-9:
            return False
        try:
            self.apply_point(sla, point)
        except (CapacityError, SLAError):
            return False
        return True

    def _resize_network(self, composite: CompositeReservation,
                        point: OperatingPoint) -> None:
        bandwidth = point.get(Dimension.BANDWIDTH_MBPS)
        if bandwidth is None:
            return
        booking = composite.network_booking
        try:
            if isinstance(booking, EndToEndAllocation):
                for nrm, flow in booking.segments:
                    nrm.resize(flow, bandwidth)
                booking.bandwidth_mbps = bandwidth
            elif booking is not None:
                assert self.nrm is not None
                self.nrm.resize(booking, bandwidth)
        except (CapacityError, NetworkError):
            self.record(f"SLA {composite.sla_id}: network resize to "
                        f"{bandwidth:g} Mbps refused; keeping current flow")

    # ------------------------------------------------------------------
    # The optimizer (Section 5.3 / 5.5)
    # ------------------------------------------------------------------

    def _optimizer_budget(self, adjustable: List[ServiceSLA]
                          ) -> ResourceVector:
        """Capacity the controlled-load set may collectively use."""
        eff_g, eff_a, _eff_b = self.partition.effective_sizes()
        tier1 = self.partition.entitled_total()
        headroom = max(0.0, eff_g + eff_a - tier1)
        floors = sum(sla.floor_demand().cpu for sla in adjustable)
        now = self.sim.now
        free = self.compute_rm.available_at(now)
        held_memory = sum(sla.delivered_demand().memory_mb
                          for sla in adjustable)
        held_disk = sum(sla.delivered_demand().disk_mb for sla in adjustable)
        return ResourceVector(
            cpu=floors + headroom,
            memory_mb=free.memory_mb + held_memory,
            disk_mb=free.disk_mb + held_disk,
            bandwidth_mbps=float("inf"))

    def run_optimizer(self) -> Optional[OptimizationResult]:
        """One optimization pass over the controlled-load sessions.

        Candidate points come from each SLA's acceptable levels; the
        greedy heuristic maximizes revenue within the current capacity
        budget; winning points are applied (network legs fall back
        gracefully if a link refuses the resize).
        """
        with self.probe.span("optimizer-pass", "aqos-broker"):
            return self._run_optimizer()

    def _run_optimizer(self) -> Optional[OptimizationResult]:
        adjustable = [sla for sla in self.repository.active()
                      if sla.service_class.adjustable]
        if not adjustable:
            return None
        self.stats.optimizer_runs += 1
        services: Dict[str, List[QualityCandidate]] = {}
        for sla in adjustable:
            key = self._user_key(sla.sla_id)
            candidates = candidates_for(key, sla.specification,
                                        sla.service_class, self.pricing,
                                        levels=_OPTIMIZER_LEVELS)
            # The optimizer moves sessions within [floor, agreed]; going
            # above the agreed point requires an accepted promotion
            # offer (Scenario 2c), never a silent upgrade-and-bill.
            agreed_demand = sla.agreed_demand()
            capped = [candidate for candidate in candidates
                      if candidate.demand.fits_within(agreed_demand)]
            if not any(candidate.point == sla.agreed_point
                       for candidate in capped):
                capped.append(QualityCandidate(
                    service_key=key, level=len(capped),
                    point=dict(sla.agreed_point), demand=agreed_demand,
                    revenue_rate=self.pricing.point_rate(
                        sla.agreed_point, sla.service_class)))
            services[key] = capped
        budget = self._optimizer_budget(adjustable)
        on_decision = None
        if self.probe.explaining:
            def on_decision(outcome: OptimizationResult) -> None:
                self._decide(
                    "optimizer",
                    "solved" if outcome.feasible else "infeasible",
                    subject="controlled-load",
                    constraint="" if outcome.feasible else "capacity",
                    reason=f"{len(adjustable)} session(s), "
                           f"budget cpu={budget.cpu:g}",
                    chosen={"revenue_rate": outcome.revenue})
        result = greedy_optimize(services, budget, on_decision=on_decision)
        if self.probe.explaining:
            for sla in adjustable:
                key = self._user_key(sla.sla_id)
                candidate = result.assignment.get(key)
                self._decide(
                    "optimizer",
                    "assign" if candidate is not None else "skip",
                    subject=key, sla_id=sla.sla_id,
                    candidates=[{"level": option.level,
                                 "point": point_payload(option.point),
                                 "revenue_rate": option.revenue_rate}
                                for option in services[key]],
                    chosen=(None if candidate is None else
                            {"level": candidate.level,
                             "point": point_payload(candidate.point),
                             "revenue_rate": candidate.revenue_rate}))
        for sla in adjustable:
            candidate = result.assignment.get(self._user_key(sla.sla_id))
            if candidate is None:
                continue
            if dict(candidate.point) != sla.delivered_point:
                self.try_apply_point(sla, candidate.point)
        self.record(f"optimizer pass over {len(adjustable)} session(s): "
                    f"revenue rate {result.revenue:g}")
        for sla in adjustable:
            if self.allocation.has(sla.sla_id):
                self.allocation.get(sla.sla_id).session.perform(
                    QoSFunction.ADAPTATION, self.sim.now)
        return result

    def _schedule_optimizer(self, interval: float) -> None:
        def tick() -> None:
            self.run_optimizer()
            self.sim.schedule(interval, tick, label="broker:optimizer")
        self.sim.schedule(interval, tick, label="broker:optimizer")

    # ------------------------------------------------------------------
    # Re-negotiation (Figure 3's Active-phase function; the paper's
    # response (b): "re-negotiating QoS as per the SLA")
    # ------------------------------------------------------------------

    def renegotiate_session(self, sla_id: int,
                            new_specification: QoSSpecification, *,
                            budget_rate: Optional[float] = None
                            ) -> "tuple[bool, str]":
        """Re-negotiate a live session's QoS mid-flight.

        The client proposes a replacement specification (grow or
        shrink). Admission is checked with the session's *own* held
        capacity released first — a shrink always fits; a grow needs
        only the delta. On success the SLA document is updated in
        place (same id, same session), capacity and reservations are
        resized atomically, and the price rate moves to the new agreed
        point. On failure nothing changes.

        Returns:
            ``(True, "")`` on success, ``(False, reason)`` otherwise.
        """
        try:
            sla = self.repository.get(sla_id)
        except SLAError as error:
            self._decide("renegotiation", "reject", sla_id=sla_id,
                         constraint="lookup", reason=str(error))
            return False, str(error)
        if sla.status is not SlaStatus.ACTIVE:
            reason = f"SLA {sla_id} is {sla.status.value}, not active"
            self._decide("renegotiation", "reject", sla_id=sla_id,
                         constraint="lifecycle", reason=reason)
            return False, reason
        if self.allocation.has(sla_id):
            self.allocation.get(sla_id).session.perform(
                QoSFunction.RENEGOTIATION, self.sim.now)

        new_best = new_specification.best_point()
        new_floor = new_specification.worst_point()
        new_committed = (QoSSpecification.point_demand(new_floor).cpu
                         if sla.service_class.adjustable
                         else QoSSpecification.point_demand(new_best).cpu)
        new_rate = self.pricing.point_rate(new_best, sla.service_class)
        if budget_rate is not None and new_rate > budget_rate:
            reason = (f"offer rate {new_rate:g} exceeds budget "
                      f"{budget_rate:g}")
            self._decide("renegotiation", "reject", sla_id=sla_id,
                         constraint="negotiation", reason=reason)
            return False, reason

        # Admission with the session's own holdings netted out.
        holding = self.partition_holding(sla_id)
        old_committed = holding.committed if holding is not None else 0.0
        committed_after = (self.partition.committed_total()
                           - old_committed + new_committed)
        if committed_after > self.partition.cg + 1e-9:
            reason = (f"commitments {committed_after:g} would exceed "
                      f"Cg={self.partition.cg:g}")
            self._decide("renegotiation", "reject", sla_id=sla_id,
                         constraint="capacity", reason=reason)
            return False, reason
        new_demand = QoSSpecification.point_demand(new_best)
        now = self.sim.now
        free = self.compute_rm.available_at(now)
        old_demand = sla.delivered_demand()
        compute_delta = ResourceVector(
            cpu=max(0.0, new_demand.cpu - old_demand.cpu),
            memory_mb=max(0.0, new_demand.memory_mb - old_demand.memory_mb),
            disk_mb=max(0.0, new_demand.disk_mb - old_demand.disk_mb))
        if not compute_delta.fits_within(free):
            # Scenario 1 may still make room.
            self.scenarios.free_capacity_for(compute_delta.cpu,
                                             max(0.0, new_committed
                                                 - old_committed))
            free = self.compute_rm.available_at(now)
            if not compute_delta.fits_within(free):
                self._decide("renegotiation", "reject", sla_id=sla_id,
                             constraint="capacity",
                             reason="insufficient resources for the "
                                    "new QoS")
                return False, "insufficient resources for the new QoS"

        # Apply atomically: partition commitment, reservations, document.
        user_key = self._user_key(sla_id)
        if holding is not None:
            self.engine.release_guaranteed(user_key)
        if new_committed > 0:
            self.engine.admit_guaranteed(user_key, new_committed)
        sla.specification = new_specification
        sla.agreed_point = dict(new_best)
        sla.delivered_point = dict(new_best)
        sla.price_rate = new_rate
        if new_committed > 0:
            self.engine.allocate_guaranteed_resource(user_key,
                                                     new_demand.cpu)
        if self.allocation.has(sla_id):
            composite = self.allocation.get(sla_id).reservation
            if composite is not None and composite.compute_handle is not None:
                self.reservation_system.modify_compute(composite,
                                                       new_demand,
                                                       force=True)
            if composite is not None and composite.network_booking is not None:
                self._resize_network(composite, new_best)
        self.ledger.rate_changed(sla_id, self.sim.now, new_rate)
        self._journal_sla(sla)
        self.record(f"SLA {sla_id} re-negotiated: new agreed point at "
                    f"rate {new_rate:g}")
        if self.probe.explaining:
            self._decide("renegotiation", "accept", sla_id=sla_id,
                         subject=user_key,
                         chosen={"point": point_payload(new_best),
                                 "revenue_rate": new_rate})
        return True, ""

    # ------------------------------------------------------------------
    # Promotions (Scenario 2c)
    # ------------------------------------------------------------------

    def offer_promotion(self, sla: ServiceSLA,
                        point: OperatingPoint) -> bool:
        """Offer a QoS upgrade. The client accepts every offer; the
        SLA's agreed terms are re-negotiated upward and the new point
        applied when it fits the idle capacity, else the offer is
        declined."""
        applied = False
        demand = QoSSpecification.point_demand(point)
        holding = self.partition_holding(sla.sla_id)
        current = holding.served if holding is not None else 0.0
        if demand.cpu - current <= self.partition.idle_capacity() + 1e-9:
            new_rate = self.pricing.point_rate(point, sla.service_class)
            previous_agreed = dict(sla.agreed_point)
            sla.renegotiate_point(dict(point), new_rate)
            try:
                self.apply_point(sla, dict(point))
            except (CapacityError, SLAError):
                sla.renegotiate_point(previous_agreed,
                                      self.pricing.point_rate(
                                          previous_agreed,
                                          sla.service_class))
            else:
                applied = True
                self.ledger.rate_changed(sla.sla_id, self.sim.now,
                                         new_rate)
        self.ledger.promotion_offered(sla.sla_id, accepted=applied)
        self.record(f"promotion offer to SLA {sla.sla_id}: "
                    f"{'accepted' if applied else 'declined/refused'}")
        if self.probe.explaining:
            self._decide("promotion",
                         "accept" if applied else "decline",
                         sla_id=sla.sla_id,
                         subject=self._user_key(sla.sla_id),
                         constraint="" if applied else "client/capacity",
                         chosen=({"point": point_payload(point)}
                                 if applied else None))
        return applied

    # ------------------------------------------------------------------
    # Degradation / monitoring hooks
    # ------------------------------------------------------------------

    def conformance_test(self, sla_id: int):
        """Explicit client-requested SLA conformance test."""
        if self.allocation.has(sla_id):
            self.allocation.get(sla_id).session.perform(
                QoSFunction.MONITORING, self.sim.now)
        return self.verifier.conformance_test(sla_id)

    def _on_degradation_notice(self, notice: DegradationNotice) -> None:
        if notice.sla_id in self._closing:
            return
        with self.probe.span("handle-degradation", "aqos-broker",
                             sla_id=notice.sla_id, source=notice.source):
            if self.allocation.has(notice.sla_id):
                self.allocation.get(notice.sla_id).session.perform(
                    QoSFunction.ADAPTATION, self.sim.now)
            self.scenarios.on_degradation(notice)

    def penalize(self, sla: ServiceSLA, notice: DegradationNotice, *,
                 duration: float = 1.0) -> None:
        """Book an SLA-violation penalty from a degradation notice.

        ``duration`` is the violated span the notice covers — pass the
        SLA-Verif poll interval when penalties come from periodic
        conformance tests, so refunds accrue over the whole degraded
        period rather than once per notice.
        """
        if notice.report is not None:
            amount = violation_penalty(
                sla, notice.report, duration=duration,
                penalty_rate=self.pricing.violation_penalty_rate)
        else:
            amount = sla.price_rate * 0.1 * duration
        self.ledger.add_penalty(sla.sla_id, self.sim.now, amount,
                                reason=notice.detail or "degradation")

    def _on_capacity_change(self, delta_nodes: int) -> None:
        with self.probe.span("capacity-change", "aqos-broker",
                             delta_nodes=delta_nodes):
            report = self.engine.on_capacity_change(float(delta_nodes))
            if delta_nodes < 0 and not report.guarantees_honored:
                for user, shortfall in report.shortfalls.items():
                    if not user.startswith("sla-"):
                        continue
                    sla_id = int(user.split("-", 1)[1])
                    self.hub.publish(DegradationNotice(
                        sla_id=sla_id, time=self.sim.now, source="compute",
                        detail=f"capacity failure left a shortfall of "
                               f"{shortfall:g} node(s)"))

    # ------------------------------------------------------------------
    # Clearing phase
    # ------------------------------------------------------------------

    def _on_job_end(self, job: Job) -> None:
        if job.state is not JobState.COMPLETED:
            return  # kills are driven by terminate_session
        for resources in self.allocation.open_sessions():
            if resources.job is not None and resources.job.job_id == job.job_id:
                self.complete_session(resources.sla_id)
                return

    def _on_window_end(self, sla_id: int) -> None:
        try:
            sla = self.repository.get(sla_id)
        except SLAError:
            return
        if sla.status.is_live and sla_id not in self._closing:
            self._close_session(sla_id, cause="expiration")
            self.stats.expired += 1
            # Expiry releases resources just like completion, so the
            # Scenario 2 upgrade/promotion pass runs here too.
            self.scenarios.on_service_termination()

    def complete_session(self, sla_id: int) -> None:
        """Normal completion → Clearing → Scenario 2."""
        self._close_session(sla_id, cause="completion")
        self.stats.completed += 1
        self.scenarios.on_service_termination()

    def terminate_session(self, sla_id: int, *, cause: str = "violation",
                          note: str = "") -> None:
        """Forced termination (adaptation or major degradation)."""
        self._close_session(sla_id, cause=cause, note=note)
        self.stats.terminated += 1

    def _close_session(self, sla_id: int, *, cause: str,
                       note: str = "") -> None:
        if sla_id in self._closing:
            return
        with self.probe.span("close-session", "aqos-broker",
                             sla_id=sla_id, cause=cause):
            self._close_session_impl(sla_id, cause=cause, note=note)

    def _close_session_impl(self, sla_id: int, *, cause: str,
                            note: str = "") -> None:
        self._closing.add(sla_id)
        try:
            sla = self.repository.get(sla_id)
            was_active = sla.status is SlaStatus.ACTIVE
            resources = (self.allocation.close_session(sla_id)
                         if self.allocation.has(sla_id) else None)
            if resources is not None:
                session = resources.session
                if session.phase is Phase.ACTIVE:
                    session.perform(QoSFunction.ACCOUNTING, self.sim.now)
                session.enter_clearing(cause)
                session.perform(QoSFunction.TERMINATION, self.sim.now)
                session.perform(QoSFunction.ACCOUNTING, self.sim.now)
                if resources.job is not None and \
                        resources.job.state is JobState.RUNNING:
                    self.compute_rm.kill(resources.job.job_id)
                if resources.reservation is not None:
                    self.reservation_system.cancel(resources.reservation)
                self.verifier.detach_session(sla_id)
                session.close()
            user_key = self._user_key(sla_id)
            if self.partition_holding(sla_id) is not None:
                self.engine.release_guaranteed(user_key)
            if sla.status.is_live:
                if cause == "completion":
                    sla.complete()
                elif cause == "expiration":
                    sla.expire()
                else:
                    sla.terminate()
                self._journal_sla(sla)
            self.ledger.session_ended(sla_id, self.sim.now)
            self.probe.session_ended(sla_id, self.sim.now)
            if was_active:
                self.metrics.gauge("repro_sla_active_sessions").add(-1.0)
            suffix = f" ({note})" if note else ""
            self.record(f"SLA {sla_id} closed: {cause}{suffix}")
        finally:
            self._closing.discard(sla_id)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def record(self, message: str) -> None:
        """Write one broker activity-log row (the Figure 6 view)."""
        if self.trace is not None:
            self.trace.record(self.sim.now, "broker", message)

    def snapshot(self) -> Dict[str, float]:
        """Flat metrics snapshot for the experiment harness."""
        data = {f"partition.{k}": v
                for k, v in self.partition.snapshot().items()}
        data.update({
            "requests": float(self.stats.requests),
            "accepted": float(self.stats.accepted),
            "rejected_capacity": float(self.stats.rejected_capacity),
            "best_effort_granted": float(self.stats.best_effort_granted),
            "completed": float(self.stats.completed),
            "terminated": float(self.stats.terminated),
            "gross_revenue": self.ledger.provider_gross(self.sim.now),
            "net_revenue": self.ledger.provider_net(self.sim.now),
            "penalties": self.ledger.total_penalties(),
            "active_sessions": float(len(self.repository.active())),
        })
        return data
