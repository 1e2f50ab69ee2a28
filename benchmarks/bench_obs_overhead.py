"""Observability overhead — provenance disabled vs enabled.

Decision provenance goes through the testbed's probe: every
broker/capacity/verifier emit site is a no-op ``probe.decide`` when
``install_observability`` has not run, with all expensive context
building (candidate lists, headroom reads, f-strings) behind one
``probe.explaining`` check.  The acceptance gate is that the
disabled-mode batch=64 admission rate stays within 5% of the recorded
``BENCH_throughput.json`` batch=64 rate — i.e. the guards are free.

Measured here, written to ``benchmarks/BENCH_obs.json``:

* ``disabled`` — batch=64 admissions/sec on a journaled testbed with
  the same workload shape as ``bench_throughput.py`` (n=10k live
  GUARANTEED bookings), observability NOT installed;
* ``enabled`` — the same measurement with ``install_observability``
  wired (decision log + SLO engine + event-stream emits), reported for
  context (no gate — enabled-mode cost buys the flight recorder);
* ``overhead_disabled_fraction`` — (reference - disabled)/reference
  against the recorded BENCH_throughput batch=64 rate.

``BENCH_OBS_SMOKE=1`` reduces the workload for ``scripts/check.sh``:
same schema, asserts only that the disabled run completes and decisions
stay un-recorded, and skips the artifact write and the 5% gate (the
gate needs full-n rates on a quiet machine to be meaningful).
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import time
from typing import Dict

from repro.core.broker import ServiceRequest
from repro.core.testbed import build_testbed, install_observability
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.recovery.recover import install_journal

from .conftest import report, write_artifact

ARTIFACT_NAME = "BENCH_obs.json"
REFERENCE_ARTIFACT = "BENCH_throughput.json"

SMOKE = bool(os.environ.get("BENCH_OBS_SMOKE"))
#: Live bookings in place before measurement starts.
PRELOAD = 256 if SMOKE else 10_000
#: Admissions timed per mode.
ADMISSIONS = 128 if SMOKE else 512
BATCH_SIZE = 64
PRELOAD_CHUNK = 256
#: The acceptance gate: disabled-mode overhead vs the recorded
#: BENCH_throughput batch=64 rate.
MAX_DISABLED_OVERHEAD = 0.05

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


def _measure(observed: bool) -> Dict[str, object]:
    """Time ADMISSIONS batch=64 admissions with provenance on or off."""
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
    return {
        "observed": observed,
        "live_bookings": preloaded,
        "admissions": ADMISSIONS,
        "batch_size": BATCH_SIZE,
        "elapsed_s": elapsed,
        "admissions_per_s": ADMISSIONS / elapsed,
    }


def _reference_rate() -> "float | None":
    """The recorded BENCH_throughput batch=64 admissions/sec."""
    path = pathlib.Path(__file__).resolve().parent / REFERENCE_ARTIFACT
    if not path.exists():
        return None
    recorded = json.loads(path.read_text())
    for entry in recorded.get("batches", ()):
        if entry.get("batch_size") == BATCH_SIZE:
            return float(entry["admissions_per_s"])
    return None


def validate_schema(results: Dict[str, object]) -> None:
    """Assert the artifact shape ``scripts/check.sh`` smoke relies on."""
    for key in ("workload", "disabled", "enabled",
                "reference_admissions_per_s", "overhead_disabled_fraction",
                "max_disabled_overhead"):
        assert key in results, f"BENCH_obs results missing {key!r}"
    for mode in ("disabled", "enabled"):
        entry = results[mode]
        for key in ("observed", "live_bookings", "admissions",
                    "batch_size", "elapsed_s", "admissions_per_s"):
            assert key in entry, f"{mode} entry missing {key!r}"
        assert entry["elapsed_s"] > 0.0


def test_obs_overhead_artifact():
    disabled = _measure(observed=False)
    enabled = _measure(observed=True)

    reference = _reference_rate()
    if reference is not None and reference > 0.0:
        overhead = (reference - disabled["admissions_per_s"]) / reference
    else:
        overhead = 0.0

    results = {
        "workload": f"GUARANTEED admissions (CPU=1, 64MB, shared window) "
                    f"against {disabled['live_bookings']} live bookings, "
                    f"in-memory journal, batch={BATCH_SIZE}, "
                    f"{ADMISSIONS} timed admissions per mode",
        "disabled": disabled,
        "enabled": enabled,
        "reference_admissions_per_s": reference,
        "overhead_disabled_fraction": overhead,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
    }
    validate_schema(results)
    if not SMOKE:
        write_artifact(ARTIFACT_NAME, results)

    enabled_cost = (1.0 - enabled["admissions_per_s"]
                    / disabled["admissions_per_s"])
    lines = [
        f"disabled: {disabled['admissions_per_s']:>10.0f} admissions/s",
        f"enabled:  {enabled['admissions_per_s']:>10.0f} admissions/s "
        f"({enabled_cost:+.1%} vs disabled)",
        f"reference (BENCH_throughput batch=64): "
        + (f"{reference:.0f} admissions/s" if reference else "missing"),
        f"disabled-mode overhead vs reference: {overhead:+.1%} "
        f"(gate <= {MAX_DISABLED_OVERHEAD:.0%})",
    ]
    report("Observability — guard overhead on the batched admission path"
           + (" [SMOKE]" if SMOKE else ""), "\n".join(lines))

    if not SMOKE:
        assert overhead <= MAX_DISABLED_OVERHEAD, (
            f"disabled-mode provenance guards cost {overhead:.1%} on the "
            f"batch={BATCH_SIZE} admission path (gate "
            f"{MAX_DISABLED_OVERHEAD:.0%} vs recorded "
            f"{REFERENCE_ARTIFACT})")
