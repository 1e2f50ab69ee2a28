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

echo "== benches (every bound, on this tree) =="
# Every bench under benchmarks/ at its one size, timing off, each
# asserting its own bound on this tree: the paper artifacts (Figures
# 1-5, Tables 1-4, the Section 5.6 timeline, Scenarios 1-3), the X1-X5
# ablations, the X6 chaos drop sweep, the X7 atlas sweep, and the
# throughput, slot-table, telemetry, observability, journal-overhead
# and federation benches (~20 s). Left out, for the reason the MANUAL
# table in tests/test_hygiene.py gives: the ledger (run below).
python -m pytest -q --benchmark-disable benchmarks \
    --ignore=benchmarks/ledger
echo "benches OK"

echo "== chaos smoke (fixed seed) =="
# One seeded chaos run of the quickstart flow: exercises fault
# injection, retries, dedup and dead-lettering end to end; the fixed
# seed keeps it deterministic run-to-run.
python -m repro quickstart --chaos 7 > /dev/null
echo "chaos smoke OK (seed 7)"

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
