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
python -m pytest -x -q "$@"

echo "== chaos smoke (fixed seed) =="
# One seeded chaos run of the quickstart flow: exercises fault
# injection, retries, dedup and dead-lettering end to end; the fixed
# seed keeps it deterministic run-to-run.
python -m repro quickstart --chaos 7 > /dev/null
echo "chaos smoke OK (seed 7)"

echo "== telemetry smoke (byte-determinism) =="
# Two fixed-seed telemetry runs must print byte-identical reports:
# span ids, JSONL event stream and metrics snapshot are all functions
# of the seeds alone.
tel_a="$(mktemp)"; tel_b="$(mktemp)"
python -m repro quickstart --telemetry > "$tel_a"
python -m repro quickstart --telemetry > "$tel_b"
diff "$tel_a" "$tel_b" > /dev/null || {
    echo "telemetry report is not deterministic" >&2; exit 1; }
rm -f "$tel_a" "$tel_b"
echo "telemetry smoke OK (deterministic)"

echo "== throughput smoke (sequential vs batched admission) =="
# Reduced-n run of the admission-throughput benchmark: asserts the
# BENCH_throughput.json schema and that plain sequential admission
# runs at no less than half the batch=64 rate. The full run at n=10k
# stays manual:
#   python -m pytest benchmarks/bench_throughput.py -s
BENCH_THROUGHPUT_SMOKE=1 python -m pytest \
    benchmarks/bench_throughput.py -q > /dev/null
echo "throughput smoke OK (sequential >= 1/2 batch=64)"

echo "== crash-recovery smoke (byte-determinism) =="
# Two fixed-seed crash episodes must print byte-identical reports:
# the crash point, the journal replay and the reconciliation counters
# are all functions of the seed alone.
cr_a="$(mktemp)"; cr_b="$(mktemp)"
python -m repro quickstart --crash 7 > "$cr_a"
python -m repro quickstart --crash 7 > "$cr_b"
diff "$cr_a" "$cr_b" > /dev/null || {
    echo "crash-recovery report is not deterministic" >&2; exit 1; }
rm -f "$cr_a" "$cr_b"
echo "crash-recovery smoke OK (deterministic)"

echo "== workload-atlas smoke (reduced sweep) =="
# Two-scenario, two-reserve-point pass over the atlas benchmark:
# asserts the BENCH_workload_atlas.json schema and that no guaranteed
# SLA violates absent injected failures. The full five-point sweep
# over all six families stays manual:
#   python -m pytest benchmarks/bench_workload_atlas.py -s
BENCH_ATLAS_SMOKE=1 python -m pytest \
    benchmarks/bench_workload_atlas.py -q > /dev/null
echo "workload-atlas smoke OK (invariants hold)"

echo "== obs smoke (flight-recorder byte-determinism) =="
# Two fixed-seed replays of the same atlas scenario must explain every
# admission verdict byte-identically: decision ids, span stamps and
# journal LSNs are all functions of the seed alone.
obs_a="$(mktemp)"; obs_b="$(mktemp)"
python -m repro obs why all > "$obs_a"
python -m repro obs why all > "$obs_b"
diff "$obs_a" "$obs_b" > /dev/null || {
    echo "flight-recorder report is not deterministic" >&2; exit 1; }
rm -f "$obs_a" "$obs_b"
echo "obs smoke OK (deterministic)"

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
