"""X7 — the workload atlas: reserve sizing across scenario families.

X3 sized the adaptive reserve against synthetic non-overlapping
failure episodes on one workload shape. The atlas generalizes the
question: with the paper's partition (``Cg + Ca = 21``, ``Cb = 5``)
fixed in total, how does the ``Cg``/``Ca`` split trade guaranteed
acceptance against violation time under *each* traffic family —
diurnal swings, flash crowds, heavy tails, tenant mixes, correlated
rack outages and best-effort floods?

Two measurement layers per scenario:

* an **Algorithm-1 policy sweep** (fast path, `run_policy_workload`)
  over ``Ca ∈ {0, 2, 4, 6, 8}`` with the scenario's own compiled
  sessions and failure timeline;
* one **full-stack replay headline** (broker, batched admission,
  telemetry, verifier) at the atlas seed, whose invariants the
  regression suite already pins.

The sweep's table is printed with ``-s``. The sweep is deterministic
at the atlas seed, so its best ``diurnal_day`` revenue is asserted
exactly, to the sweep's 6-decimal rounding.
"""

from __future__ import annotations

from repro.baselines import AdaptivePolicy
from repro.experiments.harness import run_policy_workload
from repro.experiments.reporting import format_table
from repro.workloads import (DEFAULT_SEED, check_invariants,
                             replay_scenario, scenarios)

from .conftest import report

#: Cg + Ca = 21 fixed, Cb = 5 — the X3 frame, per scenario family.
RESERVES = (0, 2, 4, 6, 8)

#: The best ``diurnal_day`` revenue over RESERVES at DEFAULT_SEED.
DIURNAL_DAY_BEST_REVENUE = 9124.952412


def sweep_scenario(spec):
    """The Ca sweep for one scenario on the policy fast path."""
    compiled = spec.compile(DEFAULT_SEED)
    failures = [(time, float(delta))
                for time, delta in compiled.failure_events]
    points = {}
    for ca in RESERVES:
        cg = 21 - ca
        policy = AdaptivePolicy(cg, ca, 5, best_effort_min=2)
        result = run_policy_workload(policy, compiled.workload,
                                     failures=failures)
        points[ca] = {
            "guaranteed_acceptance":
                round(result.guaranteed_acceptance, 6),
            "violation_time_fraction":
                round(result.violation_time_fraction, 6),
            "revenue": round(result.revenue, 6),
        }
    return points


def test_x7_atlas_reserve_sizing():
    sweeps = {}
    rows = []
    for spec in scenarios():
        points = sweep_scenario(spec)
        sweeps[spec.name] = points
        replay = replay_scenario(spec, seed=DEFAULT_SEED)
        assert check_invariants(replay) == [], \
            f"{spec.name} broke its invariants in the benchmark replay"
        assert replay.report["sessions"] > 0
        if not spec.has_failures:
            # The atlas's core QoS claim: absent injected failures no
            # guaranteed SLA is ever violated, at any reserve split on
            # the full stack's own partition.
            assert replay.report["guaranteed_violations"] == 0
        for ca in RESERVES:
            rows.append([spec.name, 21 - ca, ca,
                         points[ca]["guaranteed_acceptance"],
                         points[ca]["violation_time_fraction"]])

    report("X7 — reserve sizing across the workload atlas "
           "(Cg + Ca = 21 fixed)",
           format_table(["scenario", "Cg", "Ca", "acc(G)", "viol-frac"],
                        rows))

    for points in sweeps.values():
        for point in points.values():
            assert 0.0 <= point["guaranteed_acceptance"] <= 1.0
            assert 0.0 <= point["violation_time_fraction"] <= 1.0
    # The correlated-failure family must show the X3 trade-off: a
    # bigger reserve strictly helps when the outage exceeds it.
    cascade = sweeps["rack_failure_cascade"]
    assert cascade[0]["violation_time_fraction"] >= \
        cascade[8]["violation_time_fraction"] - 1e-9
    best = max(point["revenue"] for point in sweeps["diurnal_day"].values())
    assert best == DIURNAL_DAY_BEST_REVENUE, best
