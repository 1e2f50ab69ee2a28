"""The Network Resource Manager — a per-domain bandwidth broker.

The NRM admits bandwidth reservations along paths inside its domain,
tracks per-link allocations on advance-reservation slot tables, answers
the broker's ``QueryNetworkResources`` call (Figure 2), measures the
QoS a flow actually receives (congestion squeezes flows
proportionally), and "notifies the SLA-Verif system of such
degradation" (Section 3.2) through registered listeners.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import CapacityError, NetworkError
from ..gara.slot_table import SlotEntry, SlotTable
from ..probe import Probe
from ..qos.vector import ResourceVector
from ..sim.engine import Simulator
from ..sim.random import RandomSource
from ..sim.trace import TraceRecorder
from .topology import Link, Topology


@dataclass(frozen=True)
class NetworkMeasurement:
    """What a flow is actually receiving.

    Attributes:
        flow_id: The measured flow.
        bandwidth_mbps: Delivered bandwidth after congestion scaling.
        delay_ms: End-to-end path delay.
        loss: End-to-end loss fraction.
    """

    flow_id: int
    bandwidth_mbps: float
    delay_ms: float
    loss: float


@dataclass
class FlowAllocation:
    """A bandwidth reservation along a path.

    Attributes:
        flow_id: Unique id.
        source: Source site name.
        destination: Destination site name.
        bandwidth_mbps: Agreed bandwidth.
        links: The path links (in order).
        entries: Per-link slot-table bookings.
        start, end: Reservation window.
        active: Whether the allocation still holds bandwidth.
        committed: Whether the booking was confirmed (vs temporary);
            reconciliation uses this to tell a confirmed composite
            from one still inside GARA's auto-cancel window.
    """

    flow_id: int
    source: str
    destination: str
    bandwidth_mbps: float
    links: List[Link]
    entries: List[SlotEntry]
    start: float
    end: float
    active: bool = True
    committed: bool = False

    def commit(self) -> None:
        """Mark the booking confirmed (idempotent)."""
        self.committed = True


#: Degradation listener: called with (flow, measurement) when a flow's
#: delivered bandwidth drops below its agreed bandwidth.
DegradationListener = Callable[[FlowAllocation, NetworkMeasurement], None]


class NetworkResourceManager:
    """Bandwidth broker for one administrative domain.

    Args:
        sim: Simulation engine.
        topology: The shared network graph.
        domain: The domain this NRM manages; flows whose path leaves
            the domain must go through the inter-domain coordinator.
        rng: Optional random source for measurement noise.
        measurement_noise: Std-dev of multiplicative Gaussian noise on
            measured bandwidth (0 = exact).
        trace: Optional activity recorder.
        probe: The testbed's instrumentation seam.
    """

    def __init__(self, sim: Simulator, topology: Topology, domain: str, *,
                 rng: Optional[RandomSource] = None,
                 measurement_noise: float = 0.0,
                 trace: Optional[TraceRecorder] = None,
                 probe: Optional[Probe] = None) -> None:
        self._sim = sim
        self._topology = topology
        self.domain = domain
        self._rng = rng
        self.measurement_noise = measurement_noise
        self._trace = trace
        self._tables: Dict[Tuple[str, str], SlotTable] = {}
        self._flows: Dict[int, FlowAllocation] = {}
        # Per-domain flow numbering (like per-table slot-entry ids):
        # two testbeds built in one process assign identical flow ids,
        # so journal payloads are comparable across runs.
        self._flow_ids = itertools.count(1)
        self._listeners: List[DegradationListener] = []
        self.probe = probe if probe is not None else Probe()

    def _observe(self, op: str) -> None:
        """Count one flow operation and refresh the live-flow gauge."""
        probe = self.probe
        if probe.measuring:
            probe.count("repro_nrm_operations_total",
                        domain=self.domain, op=op)
            probe.gauge("repro_nrm_active_flows", float(len(self._flows)),
                        domain=self.domain)

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def _table(self, link: Link) -> SlotTable:
        table = self._tables.get(link.key)
        if table is None:
            table = SlotTable(ResourceVector(
                bandwidth_mbps=link.capacity_mbps))
            self._tables[link.key] = table
        return table

    def _owns(self, link: Link) -> bool:
        return link.owner_domain == self.domain

    def domain_links(self, source: str, destination: str) -> List[Link]:
        """The shortest-path links, verified to be owned by this domain.

        Raises:
            NetworkError: When the path uses links another domain's NRM
                books (the caller must use the inter-domain coordinator).
        """
        links = self._topology.path(source, destination)
        for link in links:
            if not self._owns(link):
                raise NetworkError(
                    f"link {link.a!r}-{link.b!r} is owned by domain "
                    f"{link.owner_domain!r}, not {self.domain!r}; use "
                    f"InterDomainCoordinator")
        return links

    # ------------------------------------------------------------------
    # Admission / allocation
    # ------------------------------------------------------------------

    def available_bandwidth(self, source: str, destination: str,
                            start: float, end: float) -> float:
        """Free end-to-end bandwidth over a window (min across links)."""
        return self.available_on_links(
            self.domain_links(source, destination), start, end)

    def available_on_links(self, links: List[Link], start: float,
                           end: float) -> float:
        """Free bandwidth over a window on an explicit link list."""
        if not links:
            return float("inf")
        return min(self._table(link).available(start, end).bandwidth_mbps
                   for link in links)

    def available_bandwidth_at(self, source: str, destination: str,
                               time: float) -> float:
        """Instantaneous free end-to-end bandwidth (profile fast path).

        The slot-table point query replaces the
        ``available(now, now + 1e-9)`` pinhole-window idiom for
        "what could this path carry right now" probes.
        """
        links = self.domain_links(source, destination)
        if not links:
            return float("inf")
        return min(self._table(link).available_at(time).bandwidth_mbps
                   for link in links)

    def can_allocate(self, source: str, destination: str,
                     bandwidth_mbps: float, start: float,
                     end: float) -> bool:
        """Whether a flow of the given bandwidth is admissible."""
        try:
            return (self.available_bandwidth(source, destination, start, end)
                    >= bandwidth_mbps)
        except NetworkError:
            return False

    def allocate(self, source: str, destination: str,
                 bandwidth_mbps: float, start: float,
                 end: float) -> FlowAllocation:
        """Reserve ``bandwidth_mbps`` along the path over ``[start, end)``.

        Bookings are atomic: on a mid-path capacity failure, already-
        booked links are rolled back.

        Raises:
            CapacityError: When some link lacks the bandwidth.
            NetworkError: When no intra-domain path exists.
        """
        links = self.domain_links(source, destination)
        return self.allocate_links(links, source, destination,
                                   bandwidth_mbps, start, end)

    def allocate_links(self, links: List[Link], source: str,
                       destination: str, bandwidth_mbps: float,
                       start: float, end: float) -> FlowAllocation:
        """Reserve bandwidth along an explicit owned link list.

        The inter-domain coordinator uses this to book the segment of a
        cross-domain path that this NRM owns.

        Raises:
            CapacityError: When some link lacks the bandwidth (earlier
                bookings are rolled back).
            NetworkError: On non-positive bandwidth or foreign links.
        """
        if bandwidth_mbps <= 0:
            raise NetworkError(
                f"bandwidth must be positive: {bandwidth_mbps}")
        for link in links:
            if not self._owns(link):
                raise NetworkError(
                    f"link {link.a!r}-{link.b!r} is owned by domain "
                    f"{link.owner_domain!r}, not {self.domain!r}")
        demand = ResourceVector(bandwidth_mbps=bandwidth_mbps)
        booked: List[SlotEntry] = []
        try:
            for link in links:
                booked.append(self._table(link).reserve(
                    demand, start, end,
                    label=f"{source}->{destination}"))
        except CapacityError:
            for link, entry in zip(links, booked):
                self._table(link).release(entry)
            raise
        flow = FlowAllocation(
            flow_id=next(self._flow_ids), source=source,
            destination=destination, bandwidth_mbps=bandwidth_mbps,
            links=list(links), entries=booked, start=start, end=end)
        self._flows[flow.flow_id] = flow
        if not math.isinf(end):
            self._sim.schedule_at(end, lambda: self._expire(flow.flow_id),
                                  label=f"nrm:{self.domain}:flow-expiry")
        self._observe("allocate")
        self._record(f"allocated flow {flow.flow_id} "
                     f"{source}->{destination} at {bandwidth_mbps:g} Mbps")
        return flow

    def release(self, flow: FlowAllocation) -> None:
        """Tear down a flow and free its bandwidth."""
        if not flow.active:
            return
        flow.active = False
        for link, entry in zip(flow.links, flow.entries):
            self._table(link).release(entry)
        self._flows.pop(flow.flow_id, None)
        self._observe("release")
        self._record(f"released flow {flow.flow_id}")

    def resize(self, flow: FlowAllocation, bandwidth_mbps: float) -> None:
        """Change a live flow's bandwidth (adaptation's modify path).

        Raises:
            CapacityError: When growing past some link's free capacity;
                already-resized links are rolled back.
        """
        if not flow.active:
            raise NetworkError(f"flow {flow.flow_id} is not active")
        demand = ResourceVector(bandwidth_mbps=bandwidth_mbps)
        new_entries: List[SlotEntry] = []
        for index, (link, entry) in enumerate(zip(flow.links, flow.entries)):
            try:
                new_entries.append(self._table(link).resize(entry, demand))
            except CapacityError:
                for prev_index in range(index):
                    restored = self._table(flow.links[prev_index]).resize(
                        new_entries[prev_index],
                        ResourceVector(bandwidth_mbps=flow.bandwidth_mbps))
                    flow.entries[prev_index] = restored
                raise
        flow.entries = new_entries
        flow.bandwidth_mbps = bandwidth_mbps
        self._observe("resize")
        self._record(f"resized flow {flow.flow_id} to {bandwidth_mbps:g} Mbps")

    def _expire(self, flow_id: int) -> None:
        flow = self._flows.get(flow_id)
        if flow is not None and flow.active:
            flow.active = False
            for link, entry in zip(flow.links, flow.entries):
                self._table(link).release(entry)
            self._flows.pop(flow_id, None)
            self._observe("expire")
            self._record(f"flow {flow_id} expired")

    def flows(self) -> List[FlowAllocation]:
        """All active flows."""
        return [flow for flow in self._flows.values() if flow.active]

    def flow(self, flow_id: int) -> Optional[FlowAllocation]:
        """Look up an active flow by id (``None`` when gone).

        Recovery's reconciliation sweep uses this to re-adopt journaled
        network bookings that survived a broker crash.
        """
        flow = self._flows.get(flow_id)
        if flow is not None and flow.active:
            return flow
        return None

    # ------------------------------------------------------------------
    # Measurement & congestion
    # ------------------------------------------------------------------

    def measure(self, flow: FlowAllocation) -> NetworkMeasurement:
        """What the flow is currently receiving.

        When a link's usable capacity (after congestion) is below its
        total booked bandwidth, flows on the link are squeezed
        proportionally.
        """
        delivered = flow.bandwidth_mbps
        for link, entry in zip(flow.links, flow.entries):
            booked = self._table(link).usage_at(self._sim.now).bandwidth_mbps
            if booked <= 0:
                continue
            scale = min(1.0, link.usable_mbps / booked)
            delivered = min(delivered, flow.bandwidth_mbps * scale)
        if self._rng is not None and self.measurement_noise > 0:
            noise = self._rng.normal(1.0, self.measurement_noise)
            delivered = max(0.0, delivered * noise)
        delivered = min(delivered, flow.bandwidth_mbps)
        delay = sum(link.delay_ms for link in flow.links)
        survive = 1.0
        for link in flow.links:
            survive *= (1.0 - link.loss)
        return NetworkMeasurement(flow_id=flow.flow_id,
                                  bandwidth_mbps=delivered,
                                  delay_ms=delay, loss=1.0 - survive)

    def subscribe_degradation(self, listener: DegradationListener) -> None:
        """Register a degradation listener (the SLA-Verif hook)."""
        self._listeners.append(listener)

    def set_congestion(self, a: str, b: str, factor: float) -> None:
        """Congest (or clear) a link and notify degraded flows."""
        link = self._topology.link(a, b)
        link.set_congestion(factor)
        self._record(f"link {a}-{b} congestion factor -> {factor:g}")
        for flow in self.flows():
            if link.key in {l.key for l in flow.links}:
                measurement = self.measure(flow)
                if measurement.bandwidth_mbps < flow.bandwidth_mbps - 1e-9:
                    for listener in list(self._listeners):
                        listener(flow, measurement)

    def _record(self, message: str) -> None:
        if self._trace is not None:
            self._trace.record(self._sim.now, "network",
                               f"nrm.{self.domain}: {message}")
