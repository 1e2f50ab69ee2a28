#!/bin/sh
# The tier-1 gate: static analysis (strict — warnings and stale
# baseline entries fail) followed by the test suite.  Both run
# offline with no external linter dependency.
set -e
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro.analysis (strict) =="
python -m repro.analysis src --strict

echo "== pytest =="
# Includes the byte-determinism checks: tests/test_cli_pins.py runs the
# telemetry, crash-recovery and flight-recorder reports twice in fresh
# interpreters and compares the bytes.
python -m pytest -x -q "$@"

echo "== paper-artifact smoke (figures, tables, scenarios) =="
# The benches that reproduce the paper's Figures 1-5, Tables 1-4, the
# Section 5.6 timeline and Scenarios 1-3, with their own assertions
# about each artifact; timing is off, so this takes well under a
# second. Pinning the rendered reports is still open (ROADMAP item 17).
python -m pytest -q --benchmark-disable \
    benchmarks/bench_fig1_architecture.py \
    benchmarks/bench_fig2_sequence.py \
    benchmarks/bench_fig3_lifecycle.py \
    benchmarks/bench_fig4_adaptation_loop.py \
    benchmarks/bench_fig5_testbed.py \
    benchmarks/bench_table1_sla_encoding.py \
    benchmarks/bench_table2_gara_api.py \
    benchmarks/bench_table3_conformance.py \
    benchmarks/bench_table4_negotiation.py \
    benchmarks/bench_example56_timeline.py \
    benchmarks/bench_scenario1_new_request.py \
    benchmarks/bench_scenario2_termination.py \
    benchmarks/bench_scenario3_degradation.py > /dev/null
echo "paper-artifact smoke OK"

echo "== chaos smoke (fixed seed) =="
# One seeded chaos run of the quickstart flow: exercises fault
# injection, retries, dedup and dead-lettering end to end; the fixed
# seed keeps it deterministic run-to-run.
python -m repro quickstart --chaos 7 > /dev/null
echo "chaos smoke OK (seed 7)"

echo "== throughput smoke (sequential vs batched admission) =="
# Reduced-n run of the admission-throughput benchmark: asserts the
# BENCH_throughput.json schema and that plain sequential admission
# runs at no less than half the batch=64 rate. The full run at n=10k
# stays manual:
#   python -m pytest benchmarks/bench_throughput.py -s
BENCH_THROUGHPUT_SMOKE=1 python -m pytest \
    benchmarks/bench_throughput.py -q > /dev/null
echo "throughput smoke OK (sequential >= 1/2 batch=64)"

echo "== workload-atlas smoke (reduced sweep) =="
# Two-scenario, two-reserve-point pass over the atlas benchmark:
# asserts the BENCH_workload_atlas.json schema and that no guaranteed
# SLA violates absent injected failures. The full five-point sweep
# over all six families stays manual:
#   python -m pytest benchmarks/bench_workload_atlas.py -s
BENCH_ATLAS_SMOKE=1 python -m pytest \
    benchmarks/bench_workload_atlas.py -q > /dev/null
echo "workload-atlas smoke OK (invariants hold)"

echo "== obs-overhead smoke (guard discipline) =="
# Reduced-n run of the provenance-overhead benchmark: asserts the
# BENCH_obs.json schema and that the disabled path leaves the decision
# log uninstalled. The full 5% gate at n=10k stays manual:
#   python -m pytest benchmarks/bench_obs_overhead.py -s
BENCH_OBS_SMOKE=1 python -m pytest \
    benchmarks/bench_obs_overhead.py -q > /dev/null
echo "obs-overhead smoke OK (guards free when disabled)"

echo "== federation smoke (reduced scaling run) =="
# Reduced-n run of the federation benchmark: asserts the
# BENCH_federation.json schema and exercises the crashed-home reroute
# path at N=2 and N=4. The full run at n=2048 stays manual:
#   python -m pytest benchmarks/bench_federation.py -s
BENCH_FEDERATION_SMOKE=1 python -m pytest \
    benchmarks/bench_federation.py -q > /dev/null
echo "federation smoke OK (reroute path at N=2/4)"

echo "== layer-ledger smoke (BENCHMARK.json contract) =="
# Every ledger workload at a tenth of its size (~10 s): each op is
# checked against its expected outcome, the invariants are audited,
# and the traced entry points must still resolve. Prints to stdout
# only, so the tree stays clean. Full runs and --compare:
#   python3 benchmarks/ledger/run.py --help
python3 benchmarks/ledger/run.py --smoke > /dev/null
echo "layer-ledger smoke OK (all workloads correct)"

echo "== contended smoke (adaptation under churn) =="
# The one ledger workload that keeps a pool boundary inside a tier:
# failures, repairs, departures and admissions near full load, every
# cycle checked (no holding below its commitment while failed, all
# demand served again after the repair). The result line must say so.
python3 benchmarks/ledger/run.py --smoke --workload adapt_churn_2k \
    | tail -n 1 | grep -q '"correct": true' || {
    echo "adapt_churn_2k did not report correct: true" >&2; exit 1; }
echo "contended smoke OK (adapt_churn_2k correct)"

echo "== bench trend (headline regression gate) =="
# Every BENCH_*.json headline metric vs the recorded baseline in
# benchmarks/BENCH_trend.json; >20% regression in the bad direction
# fails. Refresh after intentional regeneration with:
#   python scripts/bench_trend.py --update
python scripts/bench_trend.py --check
echo "bench trend OK (within tolerance)"
