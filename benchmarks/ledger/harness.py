"""One measurement method for every workload.

A closed loop with one client in one process and one thread: the next
call starts when the previous one has returned. A run is a few
replicates (``Workload.replicates``) of *set up, collect garbage,
switch the collector off, make every call*; each replicate builds the
same state from the same inputs and makes the same calls, so call ``i``
is the same work every time. ``time.perf_counter`` is read around the regions
the workload marks and nowhere else.

What a run reports is the **best of the replicates, call by call**: the
time of call ``i`` is the smallest of its timings. This machine is
shared, and a neighbour slows everything by up to 2x for seconds at a
time; the timings of one call are spread over the whole run, so one of
them usually falls in a quiet stretch (the `timeit` argument for
best-of, and the "interleaved best-of" ROADMAP asks for). The
statistics over calls are then a median (``op_p50_ms``) and a total
(``ops_per_s``). ``setup_s`` is the median of the set-ups plus the
one-off import time.

With tracing on, the wrappers of :mod:`.trace` are installed before
set-up and calls alternate, group by group, between traced and
untraced. The traced calls give the per-layer split; the untraced
calls next to them, on the same state, give the base the tracing
overhead is measured against.
"""

from __future__ import annotations

import gc
import resource
import statistics
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from . import trace
from .workloads import BASE_SECONDS, WORKLOADS, Workload

#: Region labels reported as metrics of their own, ``<label>_p50_ms``
#: (0 on the workloads that have no such region).
PHASES = ("churn.fail", "churn.repair", "churn.terminate", "churn.admit")


class _Region:
    """``with timed(label):`` — one timed, optionally traced, region."""

    __slots__ = ("timer", "label", "started")

    def __init__(self, timer: "Timer", label: str) -> None:
        self.timer = timer
        self.label = label

    def __enter__(self) -> None:
        timer = self.timer
        timer.recorder.on = timer.tracing
        self.started = perf_counter()

    def __exit__(self, *exc) -> bool:
        elapsed = perf_counter() - self.started
        timer = self.timer
        timer.recorder.on = False
        timer.elapsed += elapsed
        timer.regions.append((self.label, elapsed))
        return False


class Timer:
    """Collects the timed regions of the call in progress."""

    def __init__(self, recorder: trace.Recorder) -> None:
        self.recorder = recorder
        self.tracing = False
        self.elapsed = 0.0
        self.regions: "List[Tuple[str, float]]" = []

    def begin(self, call_index: int, tracing: bool) -> None:
        self.tracing = tracing
        self.elapsed = 0.0
        self.regions = []
        self.recorder.op = call_index

    def timed(self, label: str) -> _Region:
        return _Region(self, label)


def _percentile(values: "List[float]", fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def run_workload(name: str, *, seed: int, seconds: float, tracing: bool,
                 smoke: bool = False, import_seconds: float = 0.0,
                 trace_out: Optional[str] = None) -> "Dict[str, object]":
    """Run one workload; returns the result object the CLI prints.

    ``metrics`` holds the end-to-end metrics of an untraced run or the
    per-layer metrics of a traced one, as ``name -> value``; ``info``
    holds what a reader wants next to them (sample counts, the
    end-to-end values of a traced run's untraced calls, and the counts
    that say which decisions the program took).
    """
    workload: Workload = WORKLOADS[name](
        seed, seconds / BASE_SECONDS, smoke)
    workload.count_bytes = tracing
    recorder = trace.Recorder()
    interposition = trace.Interposition(recorder)
    timer = Timer(recorder)
    traced_call = [tracing and (index // workload.period) % 2 == 1
                   for index in range(workload.calls)]
    setups: "List[float]" = []
    # Per call: its ops, and one timing per replicate.
    ops_of = [0] * workload.calls
    timings: "List[List[float]]" = [[] for _ in range(workload.calls)]
    phases: "Dict[str, List[List[float]]]" = {}
    totals: "Dict[str, float]" = {}
    problems: "List[str]" = []
    attempted = accepted = failed = 0
    if tracing:
        interposition.install()
    try:
        for _ in range(workload.replicates):
            gc.collect()
            started = perf_counter()
            workload.setup()
            setups.append(perf_counter() - started)
            workload.mark_start()
            gc.collect()
            gc.disable()
            try:
                for index in range(workload.calls):
                    timer.begin(index, traced_call[index])
                    ops, taken, wrong = workload.call(index, timer.timed)
                    attempted += ops
                    accepted += taken
                    failed += wrong
                    ops_of[index] = ops
                    timings[index].append(timer.elapsed)
                    if not traced_call[index]:
                        for label, elapsed in timer.regions:
                            phases.setdefault(
                                label, [[] for _ in range(workload.calls)]
                            )[index].append(elapsed)
            finally:
                gc.enable()
            problems.extend(workload.audit())
            counts = workload.counts()
            for key, value in counts.items():
                totals[key] = totals.get(key, 0.0) + value
    finally:
        interposition.remove()

    def best(indices) -> "List[Tuple[float, int]]":
        return [(min(timings[index]), ops_of[index]) for index in indices]

    plain = best(index for index in range(workload.calls)
                 if not traced_call[index])
    per_op = [elapsed / ops for elapsed, ops in plain]
    end_to_end = {
        "setup_s": import_seconds + statistics.median(setups),
        "ops_per_s": (sum(ops for _, ops in plain)
                      / sum(elapsed for elapsed, _ in plain)),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "accepted_fraction": accepted / attempted,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info: "Dict[str, object]" = {
        "calls": workload.calls, "replicates": workload.replicates,
        "samples": len(plain),
        "timed_s": sum(sum(row) for row in timings),
        "failed_fraction": (failed + len(problems)) / attempted,
        "problems": problems,
        "decisions": {"accepted": accepted,
                      "journal_records": totals["journal.records"],
                      "revenue": totals["revenue"]},
    }
    if not tracing:
        metrics = end_to_end
    else:
        info["end_to_end"] = end_to_end
        traced_indices = [index for index in range(workload.calls)
                          if traced_call[index]]
        traced_ops = workload.replicates * sum(
            ops_of[index] for index in traced_indices)
        metrics = trace.fold(
            recorder, sum(sum(timings[index]) for index in traced_indices),
            traced_ops)
        metrics["trace.overhead_fraction"] = (
            statistics.median(elapsed / ops
                              for elapsed, ops in best(traced_indices))
            / statistics.median(per_op) - 1.0)
        metrics["trace.entry_points"] = float(interposition.entry_points)
        metrics["broker.op_p95_ms"] = _percentile(per_op, 0.95) * 1e3
        for label in PHASES:
            samples = [min(row) for row in phases.get(label, []) if row]
            metrics[f"{label}_p50_ms"] = (
                statistics.median(samples) * 1e3 if samples else 0.0)
        # State sizes are those the last replicate ended with.
        for key in ("capacity.holdings", "slot_table.entries",
                    "repository.slas"):
            metrics[key] = counts[key]
        metrics["journal.records_per_op"] = (
            totals["journal.records"] / attempted)
        metrics["journal.bytes_per_op"] = totals["journal.bytes"] / attempted
        metrics["broker.revenue_per_op"] = totals["revenue"] / attempted
        for key in ("plane.delegated", "plane.rerouted"):
            metrics[f"{key}_per_op"] = totals.get(key, 0.0) / attempted
        if trace_out is not None:
            trace.dump_spans(recorder, trace_out)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed + len(problems),
        "metrics": metrics,
        "info": info,
    }
