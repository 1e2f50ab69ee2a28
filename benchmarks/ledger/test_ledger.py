"""Tests of the layer ledger itself.

Collected by ``PYTHONPATH=src python -m pytest benchmarks/ledger -q``,
not by the tier-1 run (``testpaths`` is ``tests``). The smoke runs go
through the command line in fresh interpreters, exactly as the driver
runs the benchmark; only the tracer's own arithmetic is tested
in-process.
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import trace

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Per-layer metrics that are counts made by the program: they repeat
#: exactly for a seed. Times and shares do not.
EXACT_SUFFIXES = ("_per_op", ".holdings", ".entries", ".slas")


def _exact(metrics):
    return {name: metric["value"] for name, metric in metrics.items()
            if name.endswith(EXACT_SUFFIXES)
            and not name.endswith(".self_us_per_op")}


@functools.lru_cache(maxsize=None)
def smoke(workload: str, tracing: int, seed: int, repeat: int = 0):
    """One smoke run through the command line: ``(result, info)``."""
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", str(CONTRACT["run_seconds"]),
         "--trace", str(tracing), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    info = [json.loads(line[len("# info "):]) for line in lines
            if line.startswith("# info ")]
    return json.loads(lines[-1]), info[0]


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------

def test_contract_schema():
    assert set(CONTRACT) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert isinstance(CONTRACT["run_seconds"], int)
    assert 1 <= CONTRACT["run_seconds"] <= 60
    names = []
    for entry in CONTRACT["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    for entry in CONTRACT["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in CONTRACT["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [entry for entry in CONTRACT["end_to_end"]
             if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(entry["bound"]
                                    for entry in CONTRACT["end_to_end"])
    assert len(json.dumps(CONTRACT)) <= 64 * 1024


def test_every_layer_has_its_three_metrics():
    declared = {entry["name"] for entry in CONTRACT["per_layer"]}
    for layer in trace.LAYERS:
        for suffix in ("calls_per_op", "self_us_per_op", "share"):
            assert f"{layer}.{suffix}" in declared


# ----------------------------------------------------------------------
# Smoke runs: schema, correctness, determinism
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_exactly_the_declared_metrics(workload):
    for tracing, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, _info = smoke(workload, tracing, 2003)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {entry["name"]: entry["unit"]
                    for entry in CONTRACT[kind]}
        assert {name: metric["unit"] for name, metric
                in result["metrics"].items()} == declared
    for metric in smoke(workload, 0, 2003)[0]["metrics"].values():
        assert metric["value"] > 0  # end-to-end metrics are never 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed_and_move_with_it(workload):
    first, first_info = smoke(workload, 1, 2003)
    again, again_info = smoke(workload, 1, 2003, repeat=1)
    other, other_info = smoke(workload, 1, 7)
    assert _exact(first["metrics"]) == _exact(again["metrics"])
    assert first_info["decisions"] == again_info["decisions"]
    # Another seed gives other inputs: the journal holds the clients'
    # names and requests, so its bytes cannot repeat.
    assert (_exact(first["metrics"])["journal.bytes_per_op"]
            != _exact(other["metrics"])["journal.bytes_per_op"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_does_not_perturb_decisions(workload):
    plain, plain_info = smoke(workload, 0, 2003)
    traced, traced_info = smoke(workload, 1, 2003)
    assert plain["attempted"] == traced["attempted"]
    assert plain_info["decisions"] == traced_info["decisions"]


def test_layers_the_bare_broker_does_not_have_stay_silent():
    for workload in ("admit_seq_5k", "admit_batch64_5k"):
        metrics = smoke(workload, 1, 2003)[0]["metrics"]
        for layer in ("codec", "bus", "telemetry", "decisions", "slo"):
            assert metrics[f"{layer}.calls_per_op"]["value"] == 0
        assert metrics["harness.share"]["value"] <= 0.1


def test_trace_out_dumps_the_raw_spans(tmp_path):
    spans = tmp_path / "spans.jsonl"
    subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload",
         "fed_delegate", "--trace", "1", "--smoke", "--trace-out",
         str(spans)], cwd=ROOT, stdout=subprocess.PIPE, check=True)
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    assert rows and all(
        set(row) == {"span", "layer", "name", "start", "end", "parent",
                     "op"} for row in rows)
    assert all(row["end"] >= row["start"] for row in rows)
    assert all(row["parent"] < row["span"] for row in rows)
    assert {"plane", "protocol", "codec", "bus"} <= {
        row["layer"] for row in rows}


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "ledger",
                    tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload",
         "admit_seq_5k", "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------

def test_wrappers_are_installed_and_fully_removed():
    from repro.core import broker as broker_module
    from repro.core.capacity import CapacityPartition
    from repro.xmlmsg import codec
    from repro.xmlmsg.envelope import Envelope

    rebalance = vars(CapacityPartition)["rebalance"]
    from_xml = vars(Envelope)["from_xml"]
    render = codec.render_service_sla
    assert broker_module.render_service_sla is render

    interposition = trace.Interposition(trace.Recorder())
    interposition.install()
    try:
        assert vars(CapacityPartition)["rebalance"] is not rebalance
        assert isinstance(vars(Envelope)["from_xml"], classmethod)
        # `from codec import render_service_sla` holders are covered.
        assert broker_module.render_service_sla is not render
        assert broker_module.render_service_sla is codec.render_service_sla
        assert interposition.entry_points > 100
    finally:
        interposition.remove()
    assert vars(CapacityPartition)["rebalance"] is rebalance
    assert vars(Envelope)["from_xml"] is from_xml
    assert codec.render_service_sla is render
    assert broker_module.render_service_sla is render


def test_wrappers_record_nothing_until_switched_on():
    from repro.core.capacity import CapacityPartition

    recorder = trace.Recorder()
    interposition = trace.Interposition(recorder)
    interposition.install()
    try:
        partition = CapacityPartition(10, 4, 2)
        assert recorder.spans == []
        recorder.on = True
        partition.apply_failure(1)
        recorder.on = False
    finally:
        interposition.remove()
    names = [recorder.names[span[0]] for span in recorder.spans]
    assert names == ["CapacityPartition.apply_failure",
                     "CapacityPartition.rebalance"]
    assert recorder.spans[1][1] == 0  # rebalance's parent is the failure


def _recorder(spans):
    recorder = trace.Recorder()
    recorder.name_id("capacity", "CapacityPartition.rebalance")
    recorder.name_id("broker", "AQoSBroker.request_service")
    recorder.spans.extend(spans)
    return recorder


def test_fold_gives_self_time_and_harness_share():
    # request_service [0, 10] holds two rebalances, [1, 4] and [5, 7];
    # the traced wall is 12: 2 of it are outside every span.
    recorder = _recorder([[1, -1, 0, 0.0, 10.0], [0, 0, 0, 1.0, 4.0],
                          [0, 0, 0, 5.0, 7.0]])
    metrics = trace.fold(recorder, 12.0, 2)
    assert metrics["capacity.share"] == pytest.approx(5 / 12)
    assert metrics["broker.share"] == pytest.approx(5 / 12)
    assert metrics["harness.share"] == pytest.approx(2 / 12)
    assert metrics["capacity.calls_per_op"] == 1.0
    assert metrics["capacity.rebalances_per_op"] == 1.0
    assert metrics["broker.self_us_per_op"] == pytest.approx(2.5e6)
    shares = sum(value for name, value in metrics.items()
                 if name.endswith(".share"))
    assert shares == pytest.approx(1.0)


@pytest.mark.parametrize("spans, wall", [
    ([[1, -1, 0, 5.0, 0.0]], 1.0),  # never closed: end is still 0
    ([[1, -1, 0, 0.0, 1.0], [0, 0, 0, 0.5, 3.0]], 4.0),  # child outlasts
    ([[1, -1, 0, 0.0, 2.0]], 1.0),  # more span time than traced wall
])
def test_fold_refuses_spans_that_cannot_be_split(spans, wall):
    with pytest.raises(RuntimeError):
        trace.fold(_recorder(spans), wall, 1)


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------

def test_compare_rows_and_statuses(tmp_path):
    def suite(op_p50, ops_per_s):
        values = {
            "setup_s": [1.0], "ops_per_s": ops_per_s, "op_p50_ms": op_p50,
            "accepted_fraction": [1.0], "peak_rss_mb": [50.0]}
        return {"seed": 1, "seconds": 5, "smoke": False,
                "workloads": {name: values for name in WORKLOADS}}

    base = tmp_path / "a.json"
    same = tmp_path / "b.json"
    slow = tmp_path / "c.json"
    # A's op_p50_ms is spread wider than any bound: unresolved.
    base.write_text(json.dumps(suite([1.0, 2.0, 3.0, 4.0], [100.0])))
    same.write_text(json.dumps(suite([2.4, 2.6], [101.0])))
    slow.write_text(json.dumps(suite([2.5], [50.0])))

    def compare(other):
        return subprocess.run(
            [sys.executable, *CONTRACT["command"][1:], "--compare",
             str(base), str(other)], cwd=ROOT, stdout=subprocess.PIPE,
            text=True, check=False)

    ok = compare(same)
    rows = [line.split() for line in ok.stdout.splitlines()[1:]]
    assert len(rows) == len(WORKLOADS) * len(CONTRACT["end_to_end"])
    assert ok.returncode == 0
    assert {row[-1] for row in rows if row[1] == "op_p50_ms"} == {
        "unresolved"}
    assert {row[-1] for row in rows if row[1] == "ops_per_s"} == {"ok"}
    worse = compare(slow)
    assert worse.returncode == 1
    assert {row[-1] for row in
            (line.split() for line in worse.stdout.splitlines()[1:])
            if row[1] == "ops_per_s"} == {"worse"}
