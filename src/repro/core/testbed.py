"""Testbed wiring: the Figure 5 single-domain deployment and the
Figure 1 multi-domain architecture.

:func:`build_testbed` assembles a fully wired single-domain G-QoSM
instance — simulator, machine, compute RM, topology, NRM, UDDIe, SLA
repository, pricing, capacity partition and the AQoS broker — in the
proportions of the paper's running example (26 grid nodes split
15/6/5). :func:`build_multidomain` stands up one broker per domain over
a shared topology with an inter-domain coordinator, matching Figure 1's
two-domain picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..obs import DecisionLog, SloEngine
from ..network.interdomain import InterDomainCoordinator
from ..network.nrm import NetworkResourceManager
from ..network.topology import Topology
from ..probe import Probe
from ..qos.cost import PricingPolicy
from ..qos.parameters import Dimension, range_parameter
from ..qos.specification import QoSSpecification
from ..recovery.snapshot import SnapshotKeeper
from ..registry.uddie import UddieRegistry
from ..resources.compute import ComputeResourceManager
from ..resources.machine import Machine
from ..sim.engine import Simulator
from ..sim.random import RandomSource
from ..sim.trace import TraceRecorder
from ..telemetry import Telemetry
from ..monitoring.relay import BusNotificationRelay
from ..sla.repository import SLARepository
from ..xmlmsg.bus import MessageBus
from ..xmlmsg.faults import FaultPlan
from ..xmlmsg.resilient import ResilientCaller, RetryPolicy
from .broker import AQoSBroker
from .capacity import CapacityPartition
from .discovery import RegistryEndpoint, ResilientDiscovery
from .gateway import BrokerGateway, ClientStub
from ..errors import ValidationError


@dataclass
class Testbed:
    """A wired single-domain G-QoSM instance.

    The control-plane fields (``bus`` onward) are ``None`` until
    :func:`attach_control_plane` puts the broker behind the message
    bus; ``faults`` is additionally ``None`` until
    :func:`install_chaos` arms fault injection. ``telemetry``,
    ``journal``, ``decisions`` and ``slo`` read the backend an
    installer put behind :attr:`probe` (``None`` until then).
    """

    sim: Simulator
    trace: TraceRecorder
    rng: RandomSource
    machine: Machine
    compute_rm: ComputeResourceManager
    topology: Topology
    nrm: NetworkResourceManager
    registry: UddieRegistry
    partition: CapacityPartition
    broker: AQoSBroker
    probe: Probe
    bus: Optional[MessageBus] = None
    gateway: Optional[BrokerGateway] = None
    registry_endpoint: Optional[RegistryEndpoint] = None
    relay: Optional[BusNotificationRelay] = None
    faults: Optional[FaultPlan] = None
    snapshots: Optional[SnapshotKeeper] = None

    @property
    def repository(self) -> SLARepository:
        """The broker's SLA repository."""
        return self.broker.repository

    # The read side: whatever backend an installer put behind the probe.
    telemetry = property(lambda self: self.probe.telemetry)
    journal = property(lambda self: self.probe.journal)
    decisions = property(lambda self: self.probe.decisions)
    slo = property(lambda self: self.probe.slo)

    def client(self, name: str, *,
               policy: Optional[RetryPolicy] = None) -> ClientStub:
        """A client stub with a seeded resilient caller.

        Jitter for this client's backoff comes from the testbed RNG's
        ``caller:<name>`` substream, so every client is decorrelated
        yet the whole run replays from one seed.
        """
        if self.bus is None:
            raise ValidationError(
                "control plane not attached; call attach_control_plane()")
        caller = ResilientCaller(
            self.bus, rng=self.rng.stream(f"caller:{name}"),
            policy=policy, trace=self.trace, name=name)
        gateway_name = (self.gateway.endpoint_name
                        if self.gateway is not None else "aqos")
        return ClientStub(name, self.bus, gateway_name=gateway_name,
                          caller=caller)


#: The Section 5.6 split ``(Cg, Ca, Cb)`` both builders partition by.
_PAPER_SPLIT = (15, 6, 5)


def build_testbed(*, total_cpu: int = sum(_PAPER_SPLIT),
                  guaranteed_cpu: int = _PAPER_SPLIT[0],
                  adaptive_cpu: int = _PAPER_SPLIT[1],
                  best_effort_cpu: int = _PAPER_SPLIT[2],
                  best_effort_min: int = 2,
                  machine_nodes: int = 64,
                  memory_mb: float = 10_240.0,
                  disk_mb: float = 51_200.0,
                  link_mbps: float = 622.0,
                  seed: int = 0,
                  optimizer_interval: float = 0.0,
                  pricing: Optional[PricingPolicy] = None,
                  sim: Optional[Simulator] = None,
                  trace: Optional[TraceRecorder] = None,
                  rng: Optional[RandomSource] = None,
                  machine_name: Optional[str] = None,
                  sla_first_id: int = 1000,
                  probe: Optional[Probe] = None) -> Testbed:
    """Build the Figure 5 testbed with the Section 5.6 proportions.

    The default capacity split is the paper's: 26 grid-exposed nodes
    partitioned ``Cg=15, Ca=6, Cb=5`` on a 64-node machine, with a
    622 Mbps backbone between the sites of the example.

    ``sim``/``trace``/``rng`` may be passed to embed the testbed into
    shared infrastructure (the federation builds one testbed per
    domain over a single simulator and recorder); when omitted each
    testbed owns fresh instances, exactly as before. Likewise the
    ``probe`` every component built here reports through.
    """
    if guaranteed_cpu + adaptive_cpu + best_effort_cpu != total_cpu:
        raise ValidationError(
            f"partition {guaranteed_cpu}+{adaptive_cpu}+{best_effort_cpu} "
            f"!= total {total_cpu}")
    sim = sim if sim is not None else Simulator()
    trace = trace if trace is not None else TraceRecorder()
    rng = rng if rng is not None else RandomSource(seed)
    probe = probe if probe is not None else Probe()

    machine = Machine(machine_name or "sgi-siteA", machine_nodes,
                      grid_nodes=total_cpu,
                      memory_mb=memory_mb, disk_mb=disk_mb)
    compute_rm = ComputeResourceManager(sim, machine, trace=trace,
                                        probe=probe)

    topology = Topology()
    topology.add_site("siteA", "domain1", address="192.200.168.33")
    topology.add_site("siteB", "domain1", address="135.200.50.101")
    topology.add_site("siteC", "domain1", address="10.10.10.3")
    topology.add_link("siteA", "siteB", link_mbps, delay_ms=5.0)
    topology.add_link("siteA", "siteC", 155.0, delay_ms=8.0)
    nrm = NetworkResourceManager(sim, topology, "domain1", trace=trace,
                                 probe=probe)

    registry = UddieRegistry()
    _register_default_services(registry, total_cpu, memory_mb, disk_mb,
                               link_mbps)

    partition = CapacityPartition(guaranteed_cpu, adaptive_cpu,
                                  best_effort_cpu,
                                  best_effort_min=best_effort_min,
                                  probe=probe)
    broker = AQoSBroker(sim, registry=registry, compute_rm=compute_rm,
                        partition=partition, nrm=nrm,
                        pricing=pricing or PricingPolicy(), trace=trace,
                        repository=SLARepository(first_id=sla_first_id),
                        optimizer_interval=optimizer_interval, probe=probe)
    return Testbed(sim=sim, trace=trace, rng=rng, machine=machine,
                   compute_rm=compute_rm, topology=topology, nrm=nrm,
                   registry=registry, partition=partition, broker=broker,
                   probe=probe)


def attach_control_plane(testbed: Testbed, *,
                         latency: float = 0.0,
                         bus: Optional[MessageBus] = None,
                         gateway_name: str = "aqos",
                         registry_name: str = "uddie",
                         relay_name: Optional[str] = None,
                         discovery_name: str = "aqos-discovery") -> Testbed:
    """Put the broker's control plane onto the message bus.

    After this call the testbed has a gateway (``aqos`` endpoint), a
    registry endpoint (``uddie``) with the broker's discovery riding
    the bus behind a resilient caller, and the notification hub's
    traffic relayed as asynchronous envelopes. Without an installed
    fault plan the transport is perfect, so behaviour is unchanged —
    this wiring only *exposes* the control plane to the chaos layer.

    Pass a shared ``bus`` plus per-domain endpoint names to put many
    testbeds on one wire (the federation does: ``aqos:d1``,
    ``uddie:d1``, ... so domains stay addressable side by side).
    """
    if testbed.bus is not None:
        return testbed
    if bus is None:
        bus = MessageBus(testbed.sim, trace=testbed.trace, latency=latency,
                         probe=testbed.probe)
    testbed.bus = bus
    testbed.gateway = BrokerGateway(testbed.broker, bus,
                                    endpoint_name=gateway_name)
    testbed.registry_endpoint = RegistryEndpoint(
        testbed.registry, bus, endpoint_name=registry_name)
    testbed.broker.discovery = ResilientDiscovery(
        bus,
        caller=ResilientCaller(bus, rng=testbed.rng.stream("discovery"),
                               trace=testbed.trace, name=discovery_name),
        client_name=discovery_name, registry_name=registry_name,
        trace=testbed.trace, metrics=testbed.broker.metrics)
    relay_kwargs = {} if relay_name is None else {
        "endpoint_name": relay_name}
    testbed.relay = BusNotificationRelay(testbed.broker.hub, bus,
                                         **relay_kwargs)
    return testbed


def install_telemetry(testbed: Testbed) -> Telemetry:
    """Turn on deterministic telemetry across the whole testbed.

    The hub *adopts* the testbed's existing infrastructure — the
    broker's metrics registry and the trace recorder's event stream —
    so there is exactly one counting mechanism and one event log.
    Idempotent: a second call returns the installed hub. Order is
    free: every component already holds the probe, so telemetry may
    go in before or after :func:`attach_control_plane`.
    """
    probe = testbed.probe
    if probe.telemetry is not None:
        return probe.telemetry
    sim = testbed.sim
    telemetry = Telemetry(now=lambda: sim.now,
                          metrics=testbed.broker.metrics,
                          stream=testbed.trace.stream)
    probe.telemetry = telemetry
    probe.rebalanced(testbed.partition, None)  # prime the gauges
    if testbed.bus is not None:
        # Endpoints that registered first kept private dedup counters.
        testbed.bus.adopt_endpoints()
    return telemetry


def install_observability(testbed: Testbed
                          ) -> "tuple[DecisionLog, SloEngine]":
    """Turn on decision provenance and SLO tracking testbed-wide.

    Telemetry is installed first (the decision log shares its event
    stream), then a :class:`DecisionLog` and :class:`SloEngine` go
    behind the probe. The probe stamps each record with the open span
    and its journal's LSN at emit time, so ``install_journal`` may run
    before or after this. Idempotent: a second call returns the
    installed pair.
    """
    probe = testbed.probe
    if probe.decisions is not None and probe.slo is not None:
        return probe.decisions, probe.slo
    telemetry = install_telemetry(testbed)
    sim = testbed.sim
    decisions = DecisionLog(now=lambda: sim.now, stream=telemetry.stream)
    metrics = telemetry.metrics

    def occupancy() -> "Dict[str, float]":
        return {"utilization_mean": metrics.time_gauge(
            "repro_capacity_utilization").mean()}

    slo = SloEngine(now=lambda: sim.now, stream=telemetry.stream,
                    occupancy=occupancy)
    probe.decisions = decisions
    probe.slo = slo
    return decisions, slo


def install_chaos(testbed: Testbed, seed: int, *,
                  drop: float = 0.1, duplicate: float = 0.05,
                  delay: float = 0.1, error: float = 0.05,
                  reorder: float = 0.05,
                  delay_range: "tuple[float, float]" = (0.5, 2.0)
                  ) -> FaultPlan:
    """Arm deterministic fault injection on the testbed's bus.

    Attaches the control plane first when needed. The plan's RNG is a
    dedicated ``faults`` substream of its own seed, independent of the
    testbed seed, so the same workload can be replayed under many
    fault schedules (and the same ``seed`` reproduces one exactly).
    """
    attach_control_plane(testbed)
    assert testbed.bus is not None
    plan = FaultPlan.uniform(
        RandomSource(seed).stream("faults"), drop=drop,
        duplicate=duplicate, delay=delay, error=error, reorder=reorder,
        delay_range=delay_range)
    testbed.bus.install_faults(plan)
    testbed.faults = plan
    return plan


def install_all(testbed: Testbed, *,
                latency: float = 0.0,
                bus: Optional[MessageBus] = None,
                gateway_name: str = "aqos",
                registry_name: str = "uddie",
                relay_name: Optional[str] = None,
                discovery_name: str = "aqos-discovery",
                journal_store=None,
                chaos_seed: Optional[int] = None,
                chaos_options: Optional[Dict[str, float]] = None
                ) -> Testbed:
    """Install every cross-cutting layer on a testbed in one call.

    ``install_chaos``/``install_telemetry``/``install_journal``/
    ``install_observability`` each switch on one concern; standing up
    a multi-domain deployment by calling them individually makes it
    easy to skip a layer on one domain and chase the asymmetry for an
    afternoon. This helper composes all of them — telemetry, control
    plane (optionally onto a shared ``bus`` under per-domain endpoint
    names), observability, journal, and (when ``chaos_seed`` is given)
    fault injection — and is idempotent because each constituent
    installer is.
    """
    install_telemetry(testbed)
    attach_control_plane(testbed, latency=latency, bus=bus,
                         gateway_name=gateway_name,
                         registry_name=registry_name,
                         relay_name=relay_name,
                         discovery_name=discovery_name)
    install_observability(testbed)
    # Imported here: recovery imports the testbed module for type
    # hints, so a module-level import would be circular.
    from ..recovery.recover import install_journal
    install_journal(testbed, journal_store)
    if chaos_seed is not None:
        install_chaos(testbed, chaos_seed, **(chaos_options or {}))
    return testbed


def _register_default_services(registry: UddieRegistry, total_cpu: int,
                               memory_mb: float, disk_mb: float,
                               link_mbps: float) -> None:
    """Register the services the paper's scenarios exercise."""
    full_capability = QoSSpecification.of(
        range_parameter(Dimension.CPU, 0, total_cpu),
        range_parameter(Dimension.MEMORY_MB, 0, memory_mb),
        range_parameter(Dimension.DISK_MB, 0, disk_mb),
        range_parameter(Dimension.BANDWIDTH_MBPS, 0, link_mbps),
    )
    registry.register("simulation-service", "cardiff-escience",
                      endpoint="service.simulation",
                      capability=full_capability,
                      properties={"os": "linux", "nodes": total_cpu})
    registry.register("visualization-service", "cardiff-escience",
                      endpoint="service.visualization",
                      capability=full_capability,
                      properties={"os": "linux", "gpu": "no"})
    registry.register("data-transfer-service", "cardiff-escience",
                      endpoint="service.transfer",
                      capability=full_capability,
                      properties={"protocol": "gridftp"})


@dataclass
class MultiDomainTestbed:
    """One broker per domain over a shared topology (Figure 1)."""

    sim: Simulator
    trace: TraceRecorder
    topology: Topology
    coordinator: InterDomainCoordinator
    brokers: "Dict[str, AQoSBroker]"
    machines: "Dict[str, Machine]"


#: Each domain's grid nodes, and the speed of the links joining the
#: domains, in :func:`build_multidomain`.
_NODES_PER_DOMAIN = sum(_PAPER_SPLIT)
_INTER_DOMAIN_MBPS = 622.0


def build_multidomain(*, domains: int = 2) -> MultiDomainTestbed:
    """Stand up the Figure 1 architecture: ``domains`` AQoS brokers,
    each with its own RM, NRM and probe, joined by inter-domain links."""
    if domains < 1:
        raise ValidationError(f"need at least one domain: {domains}")
    sim = Simulator()
    trace = TraceRecorder()
    topology = Topology()
    nrms: List[NetworkResourceManager] = []
    machines: Dict[str, Machine] = {}
    compute_rms: Dict[str, ComputeResourceManager] = {}
    probes = [Probe() for _ in range(domains)]
    for index, probe in enumerate(probes):
        domain = f"domain{index + 1}"
        topology.add_site(f"site{index + 1}", domain,
                          address=f"10.{index + 1}.0.1")
        nrms.append(NetworkResourceManager(sim, topology, domain,
                                           trace=trace, probe=probe))
        machine = Machine(f"cluster-{domain}", _NODES_PER_DOMAIN * 2,
                          grid_nodes=_NODES_PER_DOMAIN,
                          memory_mb=8192.0, disk_mb=40_960.0)
        machines[domain] = machine
        compute_rms[domain] = ComputeResourceManager(
            sim, machine, trace=trace, probe=probe)
    for index in range(domains - 1):
        topology.add_link(f"site{index + 1}", f"site{index + 2}",
                          _INTER_DOMAIN_MBPS, delay_ms=10.0)
    coordinator = InterDomainCoordinator(topology, nrms)
    brokers: Dict[str, AQoSBroker] = {}
    for index, probe in enumerate(probes):
        domain = f"domain{index + 1}"
        registry = UddieRegistry()
        _register_default_services(registry, _NODES_PER_DOMAIN, 8192.0,
                                   40_960.0, _INTER_DOMAIN_MBPS)
        partition = CapacityPartition(*_PAPER_SPLIT, best_effort_min=1,
                                      probe=probe)
        brokers[domain] = AQoSBroker(
            sim, registry=registry, compute_rm=compute_rms[domain],
            partition=partition, coordinator=coordinator, trace=trace,
            repository=SLARepository(first_id=1000 + 1000 * index),
            probe=probe)
    return MultiDomainTestbed(sim=sim, trace=trace, topology=topology,
                              coordinator=coordinator, brokers=brokers,
                              machines=machines)
