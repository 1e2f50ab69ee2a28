"""Admission throughput — plain sequential vs batched admission.

A sequential admission runs one capacity rebalance, which re-draws only
the holding it touched (the delta water-fill, DESIGN §4), and one
journal store append per record, so its cost must not grow with the
number of live bookings. ``request_services`` coalesces what a batch
emits — one journal group-commit, one ``CAPACITY_REBALANCED`` record
and one rebalance report per batch — with admit/reject decisions
byte-identical to sequential order (pinned by the differential test in
``tests/core/test_batch_admission.py``). If the per-admission pass ever
walks every holding again, sequential collapses to ~40 admissions/s at
this n while batch=64 stays in the thousands, which is what the gate
catches.

Measured here, written to ``benchmarks/BENCH_throughput.json``:
admissions/sec at n=10k live GUARANTEED bookings for batch sizes
{1, 8, 64, 256}, where batch=1 is the plain ``request_service`` path.
The acceptance gate is ROADMAP's target: sequential at least half of
batch=64.

All requests share one validity window so the slot table stays at two
boundaries and every admission does identical O(1) table work — the
quantity under test is the per-admission rebalance + commit cost, not
slot-table scaling (that is ``bench_slot_table_scaling.py``).

Batch sizes are measured in ascending order on one growing testbed:
later (larger) batch sizes face *more* live holdings than the
sequential path did.

``BENCH_THROUGHPUT_SMOKE=1`` switches to a reduced workload for
``scripts/check.sh``: same schema and the same gate, no artifact write.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List

from repro.core.broker import ServiceRequest
from repro.core.testbed import build_testbed
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.recovery.recover import install_journal

from .conftest import report, write_artifact

ARTIFACT_NAME = "BENCH_throughput.json"

SMOKE = bool(os.environ.get("BENCH_THROUGHPUT_SMOKE"))
#: Live bookings in place before measurement starts.
PRELOAD = 256 if SMOKE else 10_000
#: Admissions timed per batch size (same count for every size).
ADMISSIONS = 128 if SMOKE else 512
BATCH_SIZES = (1, 8, 64, 256)
#: Chunk size used to bring the testbed up to PRELOAD bookings.
PRELOAD_CHUNK = 256
#: ROADMAP: plain sequential admission within 2x of batch=64.
TARGET_RATIO = 0.5

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


def _build_loaded_testbed():
    """A journaled testbed scaled to hold PRELOAD + all timed admissions."""
    headroom = PRELOAD + ADMISSIONS * len(BATCH_SIZES)
    guaranteed = headroom + 1000
    testbed = build_testbed(
        total_cpu=guaranteed + 1000,
        guaranteed_cpu=guaranteed, adaptive_cpu=600, best_effort_cpu=400,
        machine_nodes=2 * (guaranteed + 1000),
        memory_mb=float(headroom + 1000) * 64.0 * 2,
        disk_mb=float(headroom + 1000) * 64.0 * 4)
    install_journal(testbed)
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


def _measure(broker, batch_size: int, first_index: int) -> Dict[str, object]:
    """Time ADMISSIONS admissions at one batch size."""
    requests = [_request(first_index + i) for i in range(ADMISSIONS)]
    gc.disable()
    try:
        started = time.perf_counter()
        if batch_size == 1:
            # The plain path: one request_service per admission.
            for request in requests:
                broker.request_service(request)
        else:
            for offset in range(0, ADMISSIONS, batch_size):
                broker.request_services(requests[offset:offset + batch_size])
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    return {
        "batch_size": batch_size,
        "admissions": ADMISSIONS,
        "elapsed_s": elapsed,
        "admissions_per_s": ADMISSIONS / elapsed,
    }


def validate_schema(results: Dict[str, object]) -> None:
    """Assert the artifact shape ``scripts/check.sh`` smoke relies on."""
    for key in ("workload", "live_bookings", "batches",
                "sequential_over_batch64", "target_ratio"):
        assert key in results, f"BENCH_throughput results missing {key!r}"
    batches = results["batches"]
    assert [entry["batch_size"] for entry in batches] == list(BATCH_SIZES)
    for entry in batches:
        for key in ("batch_size", "admissions", "elapsed_s",
                    "admissions_per_s"):
            assert key in entry, f"batch entry missing {key!r}"
        assert entry["elapsed_s"] > 0.0


def test_throughput_artifact():
    testbed, preloaded = _build_loaded_testbed()
    broker = testbed.broker

    batches: List[Dict[str, object]] = []
    next_index = preloaded
    for batch_size in BATCH_SIZES:
        batches.append(_measure(broker, batch_size, next_index))
        next_index += ADMISSIONS

    rates = {entry["batch_size"]: entry["admissions_per_s"]
             for entry in batches}
    ratio = rates[1] / rates[64]

    results = {
        "workload": f"GUARANTEED admissions (CPU=1, 64MB, shared window) "
                    f"against {preloaded} live bookings, in-memory "
                    f"journal, {ADMISSIONS} admissions per batch size",
        "live_bookings": preloaded,
        "batches": batches,
        "sequential_over_batch64": ratio,
        "target_ratio": TARGET_RATIO,
    }
    validate_schema(results)
    if not SMOKE:
        write_artifact(ARTIFACT_NAME, results)

    lines = [f"live bookings at start: {preloaded}"]
    for entry in batches:
        lines.append(
            f"batch={entry['batch_size']:>3}:  "
            f"{entry['admissions_per_s']:>10.0f} admissions/s  "
            f"({entry['elapsed_s'] * 1e3 / ADMISSIONS:.3f}ms/admission)")
    lines.append(f"sequential / batch=64: {ratio:.2f} "
                 f"(target >={TARGET_RATIO:g})")
    report("Throughput — sequential vs batched admission"
           + (" [SMOKE]" if SMOKE else ""), "\n".join(lines))

    assert ratio >= TARGET_RATIO, (
        f"sequential admission runs at only {ratio:.2f} of batch=64 at "
        f"n={preloaded} ({rates[1]:.0f}/s vs {rates[64]:.0f}/s, target "
        f">={TARGET_RATIO:g}): the per-admission rebalance is walking "
        f"the holdings again")
