"""Observability overhead — provenance disabled vs enabled.

Decision provenance goes through the testbed's probe: every
broker/capacity/verifier emit site is a no-op ``probe.decide`` when
``install_observability`` has not run, with all expensive context
building (candidate lists, headroom reads, f-strings) behind one
``probe.explaining`` check.  What a guard costs is gated per guard by
``bench_telemetry_overhead.py``; this bench counts what each mode
records.

Measured here and printed with ``-s``, both in one process:

* ``disabled`` — batch=64 admissions/sec on a journaled testbed with
  the same workload shape as ``bench_throughput.py`` (n=10k live
  GUARANTEED bookings), observability NOT installed; asserts that the
  probe never starts explaining;
* ``enabled`` — the same measurement with ``install_observability``
  wired (decision log + SLO engine + event-stream emits); asserts at
  least one recorded decision per admission. Its rate against the
  disabled one is reported for context (no gate — enabled-mode cost
  buys the flight recorder).
"""

from __future__ import annotations

import gc
import time

from repro.core.broker import ServiceRequest
from repro.core.testbed import build_testbed, install_observability
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.recovery.recover import install_journal

from .conftest import report

#: Live bookings in place before measurement starts.
PRELOAD = 10_000
#: Admissions timed per mode.
ADMISSIONS = 512
BATCH_SIZE = 64
PRELOAD_CHUNK = 256

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


def _build_loaded_testbed(observed: bool):
    """A journaled testbed matching bench_throughput's workload shape."""
    headroom = PRELOAD + ADMISSIONS
    guaranteed = headroom + 1000
    testbed = build_testbed(
        total_cpu=guaranteed + 1000,
        guaranteed_cpu=guaranteed, adaptive_cpu=600, best_effort_cpu=400,
        machine_nodes=2 * (guaranteed + 1000),
        memory_mb=float(headroom + 1000) * 64.0 * 2,
        disk_mb=float(headroom + 1000) * 64.0 * 4)
    install_journal(testbed)
    if observed:
        install_observability(testbed)
    broker = testbed.broker
    admitted = 0
    while admitted < PRELOAD:
        chunk = min(PRELOAD_CHUNK, PRELOAD - admitted)
        outcomes = broker.request_services(
            [_request(admitted + i) for i in range(chunk)])
        assert all(outcome.accepted for outcome in outcomes), (
            "preload admission rejected — testbed scaled wrong")
        admitted += chunk
    return testbed, admitted


def _measure(observed: bool) -> float:
    """Batch=64 admissions/sec with provenance on or off."""
    testbed, preloaded = _build_loaded_testbed(observed)
    broker = testbed.broker
    requests = [_request(preloaded + i) for i in range(ADMISSIONS)]
    gc.disable()
    try:
        started = time.perf_counter()
        for offset in range(0, ADMISSIONS, BATCH_SIZE):
            broker.request_services(requests[offset:offset + BATCH_SIZE])
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    if observed:
        assert testbed.decisions is not None
        assert len(testbed.decisions) >= preloaded + ADMISSIONS, (
            "enabled mode recorded fewer decisions than admissions")
    else:
        assert not broker.probe.explaining, (
            "disabled mode must leave the decision log uninstalled")
    return ADMISSIONS / elapsed


def test_obs_overhead_artifact():
    disabled = _measure(observed=False)
    enabled = _measure(observed=True)

    lines = [
        f"live bookings at start: {PRELOAD}, batch={BATCH_SIZE}",
        f"disabled: {disabled:>10.0f} admissions/s",
        f"enabled:  {enabled:>10.0f} admissions/s "
        f"({1.0 - enabled / disabled:+.1%} vs disabled)",
    ]
    report("Observability — provenance cost on the batched admission path",
           "\n".join(lines))
