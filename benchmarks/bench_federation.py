"""Federation overhead — admission throughput and reroute latency.

The federated control plane puts every domain behind one shared bus
and routes each admission through a home-domain decision; the question
this bench answers is what that costs as the federation grows, and how
expensive the robustness path (home down, reroute to a survivor) is.

Measured here and printed with ``-s``, for N = 1, 2 and 4 domains:

* ``admissions_per_s`` — batch=64 guaranteed admissions/sec through
  :meth:`FederatedControlPlane.request_services` with homes assigned
  round-robin (every request fits its home, so this is the local fast
  path plus federation bookkeeping);
* ``reroute_latency_s`` — mean wall-clock seconds per admission whose
  home broker is crashed: the plane detects the dead home, picks the
  acting survivor, records the reroute decision and admits there
  (``None`` at N=1 — no survivor exists).
"""

from __future__ import annotations

import gc
import time
from typing import Optional, Tuple

from repro.federation.plane import FederatedControlPlane
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.negotiation import ServiceRequest

from .conftest import report

#: Timed admissions per domain count.
ADMISSIONS = 2048
BATCH_SIZE = 64
#: Timed rerouted admissions (home crashed) per domain count.
REROUTES = 256
DOMAIN_COUNTS = (1, 2, 4)

#: One shared validity window — keeps every slot-table probe O(1).
WINDOW = (0.0, 1_000_000.0)


def _request(index: int) -> ServiceRequest:
    specification = QoSSpecification.from_iterable([
        exact_parameter(Dimension.CPU, 1),
        exact_parameter(Dimension.MEMORY_MB, 64),
    ])
    return ServiceRequest(
        client=f"user{index}", service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED,
        specification=specification, start=WINDOW[0], end=WINDOW[1])


def _build_plane(domains: int) -> FederatedControlPlane:
    """A plane whose every domain can hold the full timed workload."""
    headroom = ADMISSIONS + REROUTES + 1000
    return FederatedControlPlane(
        domains=domains, seed=0,
        testbed_defaults={
            "total_cpu": headroom + 1000,
            "guaranteed_cpu": headroom,
            "adaptive_cpu": 600, "best_effort_cpu": 400,
            "machine_nodes": 2 * (headroom + 1000),
            "memory_mb": float(headroom) * 64.0 * 2,
            "disk_mb": float(headroom) * 64.0 * 4,
        })


def _measure(domains: int) -> Tuple[float, Optional[float]]:
    """Admissions/sec, and seconds per rerouted admission (N >= 2)."""
    plane = _build_plane(domains)
    names = plane.names
    requests = [_request(index) for index in range(ADMISSIONS)]
    homes = [names[index % domains] for index in range(ADMISSIONS)]
    gc.disable()
    try:
        started = time.perf_counter()
        for offset in range(0, ADMISSIONS, BATCH_SIZE):
            plane.request_services(
                requests[offset:offset + BATCH_SIZE],
                homes=homes[offset:offset + BATCH_SIZE])
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    assert plane.stats["local"] == ADMISSIONS, (
        "benchmark workload was not all admitted locally: "
        f"{plane.stats}")

    reroute_latency: Optional[float] = None
    if domains >= 2:
        plane.crash_broker(names[0])
        rerouted = [_request(ADMISSIONS + index)
                    for index in range(REROUTES)]
        gc.disable()
        try:
            started = time.perf_counter()
            for request in rerouted:
                plane.request_service(request, home=names[0])
            reroute_elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        assert plane.stats["rerouted"] == REROUTES, (
            f"expected {REROUTES} reroutes: {plane.stats}")
        reroute_latency = reroute_elapsed / REROUTES

    return ADMISSIONS / elapsed, reroute_latency


def test_federation_scaling_artifact():
    lines = []
    for count in DOMAIN_COUNTS:
        rate, latency = _measure(count)
        lines.append(
            f"N={count}: {rate:>10.0f} admissions/s"
            + (f"   reroute {latency * 1e6:>8.1f} us"
               if latency is not None else "   reroute        n/a"))
    report("Federation — admission throughput and reroute latency",
           "\n".join(lines))
