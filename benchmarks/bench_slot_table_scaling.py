"""Slot-table scaling: sweep-line profile index vs naive event-point scan.

Measures create (admission-checked reserve + release) and point/window
query latency at n ∈ {100, 1k, 10k} live bookings for both the indexed
:class:`SlotTable` and the seed's :class:`NaiveSlotTable`, plus the
EXPERIMENTS.md T2 anchor point (create against 200 live bookings, which
the seed measured at ~4.8 ms). Results are written to
``benchmarks/BENCH_slot_table.json`` so the speedup claim is a
checked-in, regenerable artifact.

Tables are populated with ``force=True`` so the naive oracle's O(n²)
admission scan does not make population itself quadratic-times-n; the
timed create is a normal (admission-checked) reserve.
"""

from __future__ import annotations

import time

from repro.gara.slot_table import SlotTable
from repro.qos.vector import ResourceVector
from tests.gara.slot_table_reference import NaiveSlotTable

from .conftest import report, write_artifact

ARTIFACT_NAME = "BENCH_slot_table.json"
SIZES = (100, 1_000, 10_000)
#: Fewer repeats for the naive table at large n (a single naive create
#: against 10k bookings costs hundreds of milliseconds).
REPEATS = {"indexed": 200, "naive": 3}
CAPACITY = ResourceVector(cpu=1e9, memory_mb=1e9, disk_mb=1e9,
                          bandwidth_mbps=1e9)
DEMAND = ResourceVector(cpu=2.0, memory_mb=64.0)


def _populate(table, count: int) -> None:
    for index in range(count):
        table.reserve(DEMAND, float(index), float(index + 50), force=True)


def _best_of(repeats: int, operation) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        operation()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def _measure(kind: str, table, count: int) -> "dict[str, float]":
    repeats = REPEATS[kind]
    mid = count / 2.0

    def create_and_release():
        entry = table.reserve(DEMAND, mid, mid + 50.0)
        table.release(entry)

    return {
        "create_s": _best_of(repeats, create_and_release),
        "usage_at_s": _best_of(repeats, lambda: table.usage_at(mid)),
        "available_at_s": _best_of(repeats, lambda: table.available_at(mid)),
        "peak_usage_s": _best_of(
            repeats, lambda: table.peak_usage(mid, mid + 50.0)),
    }


def test_slot_table_scaling_artifact():
    results = {"capacity": "effectively unbounded (admission never fails)",
               "workload": "n live bookings, 50-wide staggered windows",
               "metric": "best-of-N wall-clock seconds per operation",
               "sizes": {}}
    for count in SIZES:
        per_size = {}
        for kind, cls in (("indexed", SlotTable), ("naive", NaiveSlotTable)):
            table = cls(CAPACITY)
            _populate(table, count)
            per_size[kind] = _measure(kind, table, count)
        per_size["create_speedup"] = (per_size["naive"]["create_s"]
                                      / per_size["indexed"]["create_s"])
        results["sizes"][str(count)] = per_size

    # The EXPERIMENTS.md T2 anchor: create against 200 live bookings.
    anchor = {}
    for kind, cls in (("indexed", SlotTable), ("naive", NaiveSlotTable)):
        table = cls(CAPACITY)
        _populate(table, 200)
        anchor[kind] = _measure(kind, table, 200)
    speedup_200 = anchor["naive"]["create_s"] / anchor["indexed"]["create_s"]
    results["t2_anchor_n200"] = {
        "indexed_create_s": anchor["indexed"]["create_s"],
        "naive_create_s": anchor["naive"]["create_s"],
        "create_speedup": speedup_200,
    }

    write_artifact(ARTIFACT_NAME, results)

    lines = [f"{'n':>7} {'create idx':>12} {'create naive':>13} "
             f"{'speedup':>9} {'usage_at idx':>13} {'usage_at naive':>15}"]
    for count in SIZES:
        row = results["sizes"][str(count)]
        lines.append(
            f"{count:>7} {row['indexed']['create_s'] * 1e6:>10.1f}µs "
            f"{row['naive']['create_s'] * 1e3:>10.2f}ms "
            f"{row['create_speedup']:>8.0f}x "
            f"{row['indexed']['usage_at_s'] * 1e6:>11.2f}µs "
            f"{row['naive']['usage_at_s'] * 1e3:>13.3f}ms")
    lines.append(f"T2 anchor (n=200): "
                 f"{anchor['indexed']['create_s'] * 1e6:.1f}µs indexed vs "
                 f"{anchor['naive']['create_s'] * 1e3:.2f}ms naive "
                 f"({speedup_200:.0f}x)")
    report("Slot-table scaling — sweep-line index vs event-point scan",
           "\n".join(lines))

    assert speedup_200 >= 10, (
        f"create at n=200 only {speedup_200:.1f}x faster than the scan")
    # The indexed table must not degrade super-logarithmically: even at
    # 10k live bookings a create stays well under the seed's 4.8 ms.
    assert results["sizes"]["10000"]["indexed"]["create_s"] < 2e-3
