"""Per-layer tracing by interposition, from the benchmark's side only.

A traced run replaces the public entry points of each layer (the table
in :data:`LAYERS`) with wrappers that record one in-memory span per
call — ``(name, parent, op, start, end)`` — and puts the originals back
afterwards; nothing under ``src/`` is edited. :func:`fold` turns the
spans into self time per layer: a span's duration minus the part its
child spans cover.

``time.perf_counter`` is read here, at the benchmark edge, and nowhere
in the program: the simulation clock stays the program's only clock.

An entry point that no longer exists is skipped, not an error — a later
change may delete a method, and a change that claims a gain may not
edit the benchmark. ``trace.entry_points`` reports how many were found.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import json
import sys
import types
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> entry points, ``module:function`` or ``module:Class.method``;
#: the last component may be a glob. Layers are this repo's modules.
LAYERS: "Dict[str, Tuple[str, ...]]" = {
    "capacity": (
        "repro.core.capacity:CapacityPartition.rebalance",
        "repro.core.capacity:CapacityPartition.admit_guaranteed",
        "repro.core.capacity:CapacityPartition.remove_guaranteed",
        "repro.core.capacity:CapacityPartition.set_guaranteed_demand",
        "repro.core.capacity:CapacityPartition.set_best_effort_demand",
        "repro.core.capacity:CapacityPartition.apply_failure",
        "repro.core.capacity:CapacityPartition.apply_repair",
        "repro.core.capacity:CapacityPartition.resume_rebalances",
        "repro.core.adaptation:AdaptationEngine.allocate_guaranteed_resource",
        "repro.core.adaptation:AdaptationEngine.allocate_best_effort_resource",
        "repro.core.adaptation:AdaptationEngine.admit_guaranteed",
        "repro.core.adaptation:AdaptationEngine.release_guaranteed",
        "repro.core.adaptation:AdaptationEngine.on_capacity_change",
    ),
    "reservation_system": (
        "repro.core.reservation_system:ReservationSystem.reserve",
        "repro.core.reservation_system:ReservationSystem.confirm",
        "repro.core.reservation_system:ReservationSystem.cancel",
        "repro.core.reservation_system:ReservationSystem.modify_compute",
    ),
    "gara": ("repro.gara.api:GaraApi.reservation_*",),
    "slot_table": (
        "repro.gara.slot_table:SlotTable.reserve",
        "repro.gara.slot_table:SlotTable.release",
        "repro.gara.slot_table:SlotTable.resize",
        "repro.gara.slot_table:SlotTable.peak_usage",
        "repro.gara.slot_table:SlotTable.available",
        "repro.gara.slot_table:SlotTable.available_at",
        "repro.gara.slot_table:SlotTable.set_capacity",
    ),
    "dsrt": (
        "repro.resources.dsrt:DsrtScheduler.reserve",
        "repro.resources.dsrt:DsrtScheduler.release",
        "repro.resources.dsrt:DsrtScheduler.resize",
        "repro.resources.dsrt:DsrtScheduler.adjust_contracts",
    ),
    "compute": (
        "repro.resources.compute:ComputeResourceManager.launch",
        "repro.resources.compute:ComputeResourceManager.kill",
        "repro.resources.compute:ComputeResourceManager.resize_job_contract",
        "repro.resources.compute:ComputeResourceManager._on_machine_change",
        "repro.resources.machine:Machine.fail_nodes",
        "repro.resources.machine:Machine.repair_nodes",
    ),
    "nrm": (
        "repro.network.nrm:NetworkResourceManager.allocate",
        "repro.network.nrm:NetworkResourceManager.release",
        "repro.network.nrm:NetworkResourceManager.resize",
        "repro.network.nrm:NetworkResourceManager.measure",
        "repro.network.nrm:NetworkResourceManager.can_allocate",
    ),
    "journal": (
        "repro.recovery.journal:Journal.append",
        "repro.recovery.journal:Journal.begin_group",
        "repro.recovery.journal:Journal.commit_group",
        "repro.recovery.journal:encode_record",
        "repro.recovery.journal:JournalStore.append_group",
        "repro.recovery.journal:MemoryJournalStore.append_group",
        "repro.core.broker:AQoSBroker._journal_sla",
    ),
    "codec": (
        "repro.xmlmsg.codec:encode_*",
        "repro.xmlmsg.codec:decode_*",
        "repro.xmlmsg.codec:render_*",
        "repro.xmlmsg.envelope:Envelope.to_xml",
        "repro.xmlmsg.envelope:Envelope.from_xml",
        "repro.core.discovery:encode_*",
        "repro.core.discovery:decode_*",
    ),
    "bus": (
        "repro.xmlmsg.bus:MessageBus.request",
        "repro.xmlmsg.bus:MessageBus.send_async",
        "repro.xmlmsg.bus:Endpoint.dispatch",
        "repro.xmlmsg.resilient:ResilientCaller.call",
    ),
    "gateway": (
        "repro.core.gateway:BrokerGateway._on_*",
        "repro.core.gateway:ClientStub.request_service",
        "repro.core.gateway:ClientStub.accept_offer",
        "repro.core.gateway:ClientStub.reject_offer",
        "repro.core.gateway:ClientStub.verify_sla",
    ),
    "discovery": (
        "repro.core.broker:AQoSBroker.discover",
        "repro.core.discovery:DirectDiscovery.find",
        "repro.core.discovery:ResilientDiscovery.find",
        "repro.core.discovery:RegistryEndpoint._on_find_services",
        "repro.registry.uddie:UddieRegistry.find",
    ),
    "negotiation": (
        "repro.core.broker:AQoSBroker.negotiate",
        "repro.core.broker:AQoSBroker.make_offers",
        "repro.sla.negotiation:Negotiation.propose",
        "repro.sla.negotiation:Negotiation.accept",
        "repro.sla.negotiation:Negotiation.build_sla",
    ),
    "repository": (
        "repro.sla.repository:SLARepository.save",
        "repro.sla.repository:SLARepository.all",
        "repro.sla.repository:SLARepository.live",
        "repro.sla.repository:SLARepository.active",
        "repro.sla.repository:SLARepository.by_client",
        "repro.sla.repository:SLARepository.by_class",
        "repro.sla.repository:SLARepository.degradable",
        "repro.sla.repository:SLARepository.degraded",
    ),
    "broker": (
        "repro.core.broker:AQoSBroker.request_service",
        "repro.core.broker:AQoSBroker.request_services",
        "repro.core.broker:AQoSBroker.request_best_effort",
        "repro.core.broker:AQoSBroker.establish",
        "repro.core.broker:AQoSBroker._activate_session",
        "repro.core.broker:AQoSBroker.apply_point",
        "repro.core.broker:AQoSBroker.try_apply_point",
        "repro.core.broker:AQoSBroker.offer_promotion",
        "repro.core.broker:AQoSBroker.renegotiate_session",
        "repro.core.broker:AQoSBroker.terminate_session",
        "repro.core.broker:AQoSBroker.complete_session",
        "repro.core.broker:AQoSBroker._on_window_end",
        "repro.core.broker:AQoSBroker._on_job_end",
        "repro.core.broker:AQoSBroker._on_capacity_change",
        "repro.core.broker:AQoSBroker._on_degradation_notice",
    ),
    "scenarios": (
        "repro.core.scenarios:ScenarioEngine.free_capacity_for",
        "repro.core.scenarios:ScenarioEngine.on_service_termination",
        "repro.core.scenarios:ScenarioEngine.on_degradation",
    ),
    "optimizer": (
        "repro.core.broker:AQoSBroker.run_optimizer",
        "repro.core.optimizer:candidates_for",
        "repro.core.optimizer:greedy_optimize",
        "repro.core.optimizer:exact_optimize",
    ),
    "telemetry": (
        "repro.telemetry.spans:Tracer.start",
        "repro.telemetry.spans:Tracer.finish",
        "repro.telemetry.capacity:CapacityGauges.on_rebalance",
    ),
    # The registry the broker owns whether or not telemetry is
    # installed, so its own layer: `telemetry` is then exactly the
    # instruments `install_telemetry` adds.
    "metrics": (
        "repro.telemetry.metrics:MetricsRegistry.counter",
        "repro.telemetry.metrics:MetricsRegistry.gauge",
        "repro.telemetry.metrics:MetricsRegistry.histogram",
        "repro.telemetry.metrics:MetricsRegistry.time_gauge",
        "repro.telemetry.metrics:Counter.inc",
        "repro.telemetry.metrics:Gauge.set",
        "repro.telemetry.metrics:Gauge.add",
        "repro.telemetry.metrics:Histogram.observe",
        "repro.telemetry.metrics:TimeWeightedGauge.set",
    ),
    "eventlog": (
        "repro.sim.trace:TraceRecorder.record",
        "repro.telemetry.events:EventStream.emit",
    ),
    "decisions": ("repro.obs.decisions:DecisionLog.decide",),
    "slo": (
        "repro.obs.slo:SloEngine.evaluate",
        "repro.obs.slo:SloEngine.snapshot",
        "repro.obs.slo:SloEngine.session_started",
        "repro.obs.slo:SloEngine.session_ended",
        "repro.obs.slo:SloEngine.on_violation",
        "repro.obs.slo:SloEngine.on_restoration",
    ),
    "verifier": (
        "repro.monitoring.verifier:SlaVerifier.conformance_test",
        "repro.monitoring.verifier:SlaVerifier.conformance_reply_xml",
        "repro.monitoring.verifier:SlaVerifier.attach_sensor",
        "repro.monitoring.verifier:SlaVerifier.detach_session",
        "repro.monitoring.mds:InformationService.register",
        "repro.monitoring.mds:InformationService.unregister",
        "repro.monitoring.notifications:NotificationHub.publish",
    ),
    "sim": (
        "repro.sim.engine:Simulator.run",
        "repro.sim.engine:Simulator.schedule",
        "repro.sim.engine:Simulator.schedule_at",
        "repro.sim.engine:Simulator.cancel",
    ),
    "plane": (
        "repro.federation.plane:FederatedControlPlane.request_service",
        "repro.federation.plane:FederatedControlPlane.request_services",
        "repro.federation.plane:FederatedControlPlane.crash_broker",
        "repro.federation.plane:FederatedControlPlane._delegate",
        "repro.federation.faults:DomainChaos.decide",
    ),
    "protocol": (
        "repro.federation.protocol:FederationEndpoint._on_*",
        "repro.federation.protocol:encode_*",
        "repro.federation.protocol:decode_*",
        "repro.federation.protocol:compute_bid",
    ),
    "workloads": (
        "repro.workloads.replay:replay_scenario",
        "repro.workloads.scenarios:ScenarioSpec.compile",
    ),
    "testbed": (
        "repro.core.testbed:build_testbed",
        "repro.core.testbed:install_*",
        "repro.core.testbed:attach_control_plane",
        "repro.recovery.recover:install_journal",
    ),
}

#: Entry points whose return value is also counted: span name -> how.
#: ``codec.bytes_per_op`` and ``sim.events_per_op`` come from these.
RESULT_COUNTS: "Dict[str, Callable[[object], int]]" = {
    "Envelope.to_xml": len,
    "Simulator.run": int,
}


class Recorder:
    """The in-memory span store of one traced run."""

    __slots__ = ("on", "current", "op", "spans", "names", "layer_of",
                 "counts")

    def __init__(self) -> None:
        #: Spans are recorded only while set — the harness sets it
        #: inside the timed regions of the calls it traces.
        self.on = False
        self.current = -1
        self.op = -1
        #: ``[name_id, parent_index, op, start, end]`` per span.
        self.spans: "List[list]" = []
        self.names: "List[str]" = []
        self.layer_of: "List[str]" = []
        #: span name -> sum of counted return values (RESULT_COUNTS).
        self.counts: "Dict[str, int]" = {}

    def name_id(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1


def _wrap(function: Callable, recorder: Recorder, name_id: int,
          count: "Optional[Callable[[object], int]]") -> Callable:
    spans = recorder.spans
    append = spans.append
    name = recorder.names[name_id]

    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not recorder.on:
            return function(*args, **kwargs)
        parent = recorder.current
        span = [name_id, parent, recorder.op, 0.0, 0.0]
        recorder.current = len(spans)
        append(span)
        span[3] = perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            span[4] = perf_counter()
            recorder.current = parent
        if count is not None:
            recorder.counts[name] = (recorder.counts.get(name, 0)
                                     + count(result))
        return result

    return traced


class Interposition:
    """Installs the wrappers of :data:`LAYERS` and removes them again."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        #: ``(namespace owner, attribute, original object)`` per patch.
        self._patches: "List[Tuple[object, str, object]]" = []
        self.entry_points = 0

    def install(self) -> None:
        for layer, entries in LAYERS.items():
            for entry in entries:
                module_name, _, path = entry.partition(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                owner_name, _, pattern = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    if owner is not None:
                        self._patch_class(layer, owner, pattern)
                else:
                    self._patch_module(layer, module, pattern)

    def _patch_class(self, layer: str, owner: type, pattern: str) -> None:
        for attribute in sorted(vars(owner)):
            if not fnmatch.fnmatchcase(attribute, pattern):
                continue
            raw = vars(owner)[attribute]
            name = f"{owner.__name__}.{attribute}"
            if isinstance(raw, types.FunctionType):
                wrapped = self._wrapper(layer, name, raw)
            elif isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrapper(layer, name, raw.__func__))
            else:
                continue  # a property or constant: not a call boundary
            self._patches.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)
            self.entry_points += 1

    def _patch_module(self, layer: str, module: types.ModuleType,
                      pattern: str) -> None:
        for attribute in sorted(vars(module)):
            if not fnmatch.fnmatchcase(attribute, pattern):
                continue
            raw = vars(module)[attribute]
            if not isinstance(raw, types.FunctionType) \
                    or raw.__module__ != module.__name__:
                continue
            wrapped = self._wrapper(layer, attribute, raw)
            # `from x import f` copies the reference: every repro
            # module that holds the function gets the wrapper too.
            for name in sorted(sys.modules):
                holder = sys.modules[name]
                if holder is None or not (name == "repro"
                                          or name.startswith("repro.")):
                    continue
                for alias, value in list(vars(holder).items()):
                    if value is raw:
                        self._patches.append((holder, alias, raw))
                        setattr(holder, alias, wrapped)
            self.entry_points += 1

    def _wrapper(self, layer: str, name: str, function: Callable) -> Callable:
        name_id = self.recorder.name_id(layer, name)
        return _wrap(function, self.recorder, name_id,
                     RESULT_COUNTS.get(name))

    def remove(self) -> None:
        """Put every original back and check that it is back."""
        for owner, attribute, raw in reversed(self._patches):
            setattr(owner, attribute, raw)
        for owner, attribute, raw in self._patches:
            if vars(owner)[attribute] is not raw:
                raise RuntimeError(
                    f"{getattr(owner, '__name__', owner)}.{attribute} was "
                    f"not restored after tracing")
        self._patches.clear()


def fold(recorder: Recorder, traced_wall: float, traced_ops: int
         ) -> "Dict[str, float]":
    """Spans -> per-layer ``calls_per_op``/``self_us_per_op``/``share``.

    ``traced_wall`` is the summed length of the traced timed regions;
    what no span covers is the harness's own share.

    Raises:
        RuntimeError: When the spans cannot be split — one never
            closed, children outlast their parent, or the spans cover
            more than the traced wall (each by more than 2 %). Self
            times plus harness equal the traced wall by construction;
            the split is only worth reporting when no term is negative.
    """
    spans = recorder.spans
    children = [0.0] * len(spans)
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    calls_by_layer = {layer: 0 for layer in LAYERS}
    calls_by_name: "Dict[str, int]" = {}
    roots = 0.0
    layer_of = recorder.layer_of
    names = recorder.names
    # Children are recorded after their parent, so walking backwards
    # sees every child before the span it belongs to.
    slack = 0.02 * traced_wall
    for index in range(len(spans) - 1, -1, -1):
        name_id, parent, _op, start, end = spans[index]
        duration = end - start
        name = names[name_id]
        if duration < 0.0 or children[index] > duration + slack:
            raise RuntimeError(
                f"span {index} ({name}) is malformed: duration "
                f"{duration:.6f}s, children {children[index]:.6f}s")
        layer = layer_of[name_id]
        self_by_layer[layer] += duration - children[index]
        calls_by_layer[layer] += 1
        calls_by_name[name] = calls_by_name.get(name, 0) + 1
        if parent >= 0:
            children[parent] += duration
        else:
            roots += duration
    harness = traced_wall - roots
    if harness < -slack:
        raise RuntimeError(
            f"spans cover {roots:.6f}s but only {traced_wall:.6f}s were "
            f"traced")
    ops = max(traced_ops, 1)
    metrics: "Dict[str, float]" = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_op"] = calls_by_layer[layer] / ops
        metrics[f"{layer}.self_us_per_op"] = (
            self_by_layer[layer] * 1e6 / ops)
        metrics[f"{layer}.share"] = self_by_layer[layer] / traced_wall
    metrics["harness.share"] = max(harness, 0.0) / traced_wall

    def per_op(name: str) -> float:
        return calls_by_name.get(name, 0) / ops

    def counted(name: str) -> float:
        return recorder.counts.get(name, 0) / ops

    metrics["capacity.rebalances_per_op"] = per_op(
        "CapacityPartition.rebalance")
    metrics["bus.requests_per_op"] = per_op("MessageBus.request")
    metrics["codec.bytes_per_op"] = counted("Envelope.to_xml")
    metrics["optimizer.runs_per_op"] = per_op("AQoSBroker.run_optimizer")
    metrics["telemetry.spans_per_op"] = per_op("Tracer.start")
    metrics["decisions.records_per_op"] = per_op("DecisionLog.decide")
    metrics["verifier.tests_per_op"] = per_op(
        "SlaVerifier.conformance_test")
    metrics["sim.events_per_op"] = counted("Simulator.run")
    return metrics


def dump_spans(recorder: Recorder, path: str) -> None:
    """Write the raw spans as JSON lines (``--trace-out``)."""
    with open(path, "w", encoding="utf-8") as handle:
        for index, (name_id, parent, op, start, end) in enumerate(
                recorder.spans):
            handle.write(json.dumps({
                "span": index, "layer": recorder.layer_of[name_id],
                "name": recorder.names[name_id], "start": start,
                "end": end, "parent": parent, "op": op}) + "\n")
