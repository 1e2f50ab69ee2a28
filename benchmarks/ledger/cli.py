"""Command line of the layer ledger: one workload, the suite, compare."""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).resolve().parent / "run.py"


def load_contract() -> "Dict[str, object]":
    """``BENCHMARK.json``: the one statement of names, units, bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _parser(contract) -> argparse.ArgumentParser:
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(
        prog="benchmarks.ledger",
        description="End-to-end numbers and their per-layer split.")
    parser.add_argument("--workload", choices=names,
                        help="run this workload in this process "
                             "(default: all, one interpreter each)")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="length of the timed section the workload "
                             "is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: report the per-layer metrics of a "
                             "traced run instead of the end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes and run length divided by ten")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite only: repeat every run this often")
    parser.add_argument("--out", metavar="FILE",
                        help="suite only: write every value as JSON")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="with --workload and --trace 1: dump the "
                             "raw spans as JSON lines")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files, A as the base")
    return parser


def _units(contract, kind: str) -> "Dict[str, str]":
    return {entry["name"]: entry["unit"] for entry in contract[kind]}


def _run_one(args, contract, started: float) -> int:
    # Imported here: this import loads the program, and how long that
    # takes is part of `setup_s`; --compare does not need it at all.
    from . import harness
    import_seconds = time.perf_counter() - started
    result = harness.run_workload(
        args.workload, seed=args.seed,
        seconds=args.seconds / (10.0 if args.smoke else 1.0),
        tracing=bool(args.trace), smoke=args.smoke,
        import_seconds=import_seconds, trace_out=args.trace_out)
    units = _units(contract, "per_layer" if args.trace else "end_to_end")
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics emitted and BENCHMARK.json disagree: "
            f"{sorted(set(metrics) ^ set(units))}")
    info = result["info"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{info['replicates']} x {info['calls']} timed calls "
          f"({info['timed_s']:.2f} s), {info['samples']} untraced "
          f"samples, {result['attempted']} ops, "
          f"failed_fraction={info['failed_fraction']:g}")
    print("# info " + json.dumps(info, sort_keys=True))
    for name in units:
        print(f"{name:32s} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0 if result["correct"] else 1


def _child(args, workload: str, tracing: int) -> "Optional[Dict]":
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(tracing)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def _run_suite(args, contract) -> int:
    """Every workload, one fresh interpreter per run, one at a time."""
    values: "Dict[str, Dict[str, List[float]]]" = {}
    ok = True
    for entry in contract["workloads"]:
        workload = entry["name"]
        collected = values.setdefault(workload, {})
        for tracing in ((0, 1) if args.trace else (0,)):
            for _ in range(args.runs):
                result = _child(args, workload, tracing)
                if result is None or not result["correct"]:
                    ok = False
                    continue
                for name, metric in result["metrics"].items():
                    collected.setdefault(name, []).append(metric["value"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "smoke": args.smoke, "workloads": values},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("# suite " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def _spread(values: "List[float]") -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def compare(path_a: str, path_b: str, contract) -> int:
    """One row per workload and end-to-end metric; A is the base."""
    with open(path_a, encoding="utf-8") as handle:
        base = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        other = json.load(handle)["workloads"]
    worse = 0
    print(f"{'workload':18s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s} {'spread A':>8s}  status")
    for entry in contract["workloads"]:
        workload = entry["name"]
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a_values = base.get(workload, {}).get(name)
            b_values = other.get(workload, {}).get(name)
            if not a_values or not b_values:
                print(f"{workload:18s} {name:18s} missing")
                worse += 1
                continue
            a = statistics.median(a_values)
            b = statistics.median(b_values)
            lower = metric["better"] == "lower"
            loss = (b - a) / abs(a) if lower else (a - b) / abs(a)
            spread = _spread(a_values)
            all_better = (max(b_values) < min(a_values) if lower
                          else min(b_values) > max(a_values))
            if loss > metric["bound"]:
                status = "worse"
                worse += 1
            elif spread > metric["bound"] and not all_better:
                status = "unresolved"
            else:
                status = "ok"
            print(f"{workload:18s} {name:18s} {a:12.6g} {b:12.6g} "
                  f"{b / a:7.3f} {metric['bound']:6.2f} {spread:8.3f}  "
                  f"{status}")
    return 1 if worse else 0


def main(argv=None, *, started: Optional[float] = None) -> int:
    contract = load_contract()
    args = _parser(contract).parse_args(argv)
    if args.compare:
        return compare(args.compare[0], args.compare[1], contract)
    if args.workload:
        return _run_one(args, contract,
                        started if started is not None
                        else time.perf_counter())
    return _run_suite(args, contract)
