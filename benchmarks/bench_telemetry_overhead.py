"""Telemetry disabled-mode overhead on the reservation hot path.

The PR-1 speedup claim must survive instrumentation: every telemetry
hook in the hot path is one ``probe.measuring`` check on a probe with
no hub behind it, so the disabled-mode cost per GARA operation has to
stay within noise of the slot-table admission itself (budget: <= 5 %
of an indexed create at the EXPERIMENTS.md T2 anchor of 200 live
bookings).

Three measurements, printed with ``-s``:

* the raw slot-table create/release at 200 live bookings (the PR-1
  baseline this PR must not regress);
* a full GARA ``reservation_create`` + ``cancel`` round trip with
  telemetry off vs installed (what the broker actually pays);
* the guard primitive itself — the ``measuring`` predicate of a
  silent probe — measured directly, to show the disabled-mode
  mechanism is nanoseconds, not microseconds.
"""

from __future__ import annotations

import time

from repro.gara.api import GaraApi
from repro.gara.slot_table import SlotTable
from repro.probe import Probe
from repro.qos.vector import ResourceVector
from repro.rsl.builder import reservation_rsl
from repro.sim.engine import Simulator
from repro.telemetry import Telemetry

from .conftest import report

LIVE_BOOKINGS = 200
REPEATS = 400
GUARD_LOOPS = 100_000
CAPACITY = ResourceVector(cpu=1e9, memory_mb=1e9, disk_mb=1e9,
                          bandwidth_mbps=1e9)
DEMAND = ResourceVector(cpu=2.0, memory_mb=64.0)
RSL = reservation_rsl(DEMAND, 100.0, 150.0)


def _best_of(repeats: int, operation) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        operation()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def _populated_table() -> SlotTable:
    table = SlotTable(CAPACITY)
    for index in range(LIVE_BOOKINGS):
        table.reserve(DEMAND, float(index), float(index + 50),
                      force=True)
    return table


def _gara(telemetry_on: bool) -> GaraApi:
    sim = Simulator()
    probe = Probe(telemetry=Telemetry(now=lambda: sim.now)
                  if telemetry_on else None)
    return GaraApi(sim, _populated_table(), name="bench-gara", probe=probe)


def _gara_round_trip_s(api: GaraApi) -> float:
    def create_and_cancel():
        handle = api.reservation_create(RSL, temporary=False)
        api.reservation_cancel(handle)

    return _best_of(REPEATS, create_and_cancel)


def _guard_cost_s() -> float:
    """Cost of one disabled-mode hook: ``measuring`` on a silent probe."""
    probe = Probe()
    loops = range(GUARD_LOOPS)

    def guarded():
        for _ in loops:
            if probe.measuring:
                raise AssertionError  # pragma: no cover - never taken

    def empty():
        for _ in loops:
            pass

    guarded_s = _best_of(7, guarded)
    empty_s = _best_of(7, empty)
    return max(0.0, guarded_s - empty_s) / GUARD_LOOPS


def test_telemetry_overhead_artifact():
    table = _populated_table()

    def create_and_release():
        entry = table.reserve(DEMAND, 100.0, 150.0)
        table.release(entry)

    slot_create_s = _best_of(REPEATS, create_and_release)
    disabled_s = _gara_round_trip_s(_gara(telemetry_on=False))
    enabled_s = _gara_round_trip_s(_gara(telemetry_on=True))
    guard_s = _guard_cost_s()

    report(
        "Telemetry overhead — disabled-mode guards on the hot path",
        "\n".join([
            f"slot-table create+release (n={LIVE_BOOKINGS}): "
            f"{slot_create_s * 1e6:.2f}µs",
            f"GARA create+cancel, telemetry off:  "
            f"{disabled_s * 1e6:.2f}µs",
            f"GARA create+cancel, telemetry on:   "
            f"{enabled_s * 1e6:.2f}µs "
            f"(+{(enabled_s - disabled_s) / disabled_s * 100:.1f}%)",
            f"one silent-probe guard: {guard_s * 1e9:.1f}ns "
            f"({guard_s / slot_create_s * 100:.3f}% of a "
            f"create)",
        ]))

    # The acceptance budget: a disabled hook must cost <= 5 % of a
    # slot-table admission. One guard is the per-hook price.
    assert guard_s <= 0.05 * slot_create_s, (
        f"disabled-mode guard costs {guard_s * 1e9:.0f}ns, more than "
        f"5% of a {slot_create_s * 1e6:.1f}µs create")
