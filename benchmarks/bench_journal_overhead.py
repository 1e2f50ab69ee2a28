"""Write-ahead journal overhead on the admission hot path.

Crash consistency must not tax the paths PR-1 made fast: every
journal hook in the control plane is a ``probe.append`` that does
nothing until a journal is installed, and with the in-memory store a
typed append defers byte-encoding entirely, so a journaled admission
stays within 5 % of an unjournaled one — the same budget PR-4 set for
telemetry.

Three measurements, written to ``benchmarks/BENCH_recovery.json``:

* a full ``request_service`` admission (GUARANTEED class, compute +
  network legs — six journal records) with the journal off vs wired
  with a :class:`~repro.recovery.journal.MemoryJournalStore`, the
  configuration the acceptance budget is defined over;
* the same admission against a :class:`FileJournalStore` (reported,
  not budgeted: the durable store pays the XML render and an fsync-free
  ``open``/``write`` per record, which is the cold-restart price);
* one typed append in isolation, to show the per-record mechanism is
  sub-microsecond.

The journal-off and journal-on brokers are measured *interleaved in
one process*: separate processes drift by more than the effect being
measured (CPU frequency and layout variance of ±2 % on a ~200µs op),
while interleaving cancels it.
"""

from __future__ import annotations

import gc
import time

from repro.core.broker import ServiceRequest
from repro.core.testbed import build_testbed
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.recovery.journal import CONFIRM, Journal, MemoryJournalStore
from repro.recovery.recover import install_journal
from repro.sla.document import NetworkDemand

from .conftest import report, write_artifact

ARTIFACT_NAME = "BENCH_recovery.json"
WARMUP = 20
ROUNDS = 400
TRIALS = 3
APPEND_LOOPS = 2000
BUDGET = 0.05


def _request(start: float, end: float) -> ServiceRequest:
    specification = QoSSpecification.from_iterable([
        exact_parameter(Dimension.CPU, 2),
        exact_parameter(Dimension.MEMORY_MB, 64),
    ])
    return ServiceRequest(
        client="user1", service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED,
        specification=specification, start=start, end=end,
        network=NetworkDemand("135.200.50.101", "192.200.168.33", 1.0))


def _admission_op(store=None):
    """An admit-forever closure over a fresh testbed.

    Each call admits one GUARANTEED SLA with a network leg in a fresh
    100-unit window, so capacity never runs out and every admission
    does identical work.
    """
    testbed = build_testbed()
    if store is not False:
        install_journal(testbed, store)
    broker = testbed.broker
    state = {"t": 0.0}

    def admit():
        start = state["t"]
        state["t"] = start + 100.0
        broker.request_service(_request(start, start + 50.0))

    return admit


def _interleaved_best(op_a, op_b) -> "tuple[float, float]":
    """Best-of per-op times for two ops, alternated in one process."""
    for _ in range(WARMUP):
        op_a()
        op_b()
    best_a = best_b = float("inf")
    gc.disable()
    try:
        for _ in range(ROUNDS):
            started = time.perf_counter()
            op_a()
            elapsed = time.perf_counter() - started
            if elapsed < best_a:
                best_a = elapsed
            started = time.perf_counter()
            op_b()
            elapsed = time.perf_counter() - started
            if elapsed < best_b:
                best_b = elapsed
    finally:
        gc.enable()
    return best_a, best_b


def _append_per_record_s() -> float:
    journal = Journal(MemoryJournalStore())

    def append():
        journal.append(CONFIRM, sla_id=1000)

    gc.disable()
    try:
        best = float("inf")
        for _ in range(7):
            started = time.perf_counter()
            for _ in range(APPEND_LOOPS):
                append()
            elapsed = (time.perf_counter() - started) / APPEND_LOOPS
            if elapsed < best:
                best = elapsed
    finally:
        gc.enable()
    return best


def test_journal_overhead_artifact(tmp_path):
    # Best (lowest-overhead) trial: each trial is already an
    # interleaved best-of-ROUNDS, so the min across trials rejects
    # whole-trial interference without hiding a real regression.
    best = None
    for _ in range(TRIALS):
        off_s, on_s = _interleaved_best(
            _admission_op(store=False), _admission_op())
        overhead = (on_s - off_s) / off_s
        if best is None or overhead < best[2]:
            best = (off_s, on_s, overhead)
    off_s, on_s, overhead = best

    file_store_s = None
    from repro.recovery.journal import FileJournalStore
    _, file_store_s = _interleaved_best(
        _admission_op(store=False),
        _admission_op(FileJournalStore(tmp_path / "bench.journal")))

    append_s = _append_per_record_s()

    results = {
        "workload": "request_service admission (GUARANTEED, compute + "
                    "network legs, 6 journal records), interleaved "
                    f"best of {ROUNDS} x {TRIALS} trials",
        "admission_journal_off_s": off_s,
        "admission_memory_journal_s": on_s,
        "memory_journal_overhead_fraction": overhead,
        "admission_file_journal_s": file_store_s,
        "append_per_record_s": append_s,
        "budget_fraction": BUDGET,
    }
    write_artifact(ARTIFACT_NAME, results)

    report(
        "Journal overhead — write-ahead hooks on the admission path",
        "\n".join([
            f"admission, journal off:        {off_s * 1e6:.2f}µs",
            f"admission, in-memory journal:  {on_s * 1e6:.2f}µs "
            f"(+{overhead * 100:.1f}%)",
            f"admission, file journal:       {file_store_s * 1e6:.2f}µs "
            f"(+{(file_store_s - off_s) / off_s * 100:.1f}%, "
            f"informational)",
            f"one typed append: {append_s * 1e9:.0f}ns",
        ]))

    # The acceptance budget: with the in-memory store a journaled
    # admission costs <= 5 % more than an unjournaled one.
    assert overhead <= BUDGET, (
        f"in-memory journal adds {overhead * 100:.1f}% to an admission "
        f"({off_s * 1e6:.1f}µs -> {on_s * 1e6:.1f}µs), over the "
        f"{BUDGET * 100:.0f}% budget")
