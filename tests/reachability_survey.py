"""Which ``src/`` functions does no program run enter?

``tests/test_hygiene.py::test_src_holds_only_what_the_program_reaches``
keeps ``src/`` free of definitions that no program root *names*. A
name can be reached without being run: an action string dispatches a
handler, or a deleted caller's name collides with a live one. This
survey runs the program instead and records, under
:func:`sys.setprofile`, every code object entered:

* every ``python -m repro`` command (the pinned reports, plus
  ``recover`` over the journal ``quickstart --crash`` writes, and
  ``obs timeline``/``obs slo``), and ``python -m repro.analysis src
  --strict``;
* every ``examples/*.py``;
* the paper-artifact benches ``scripts/check.sh`` runs, with
  ``--benchmark-disable``;
* every layer-ledger workload at ``--smoke`` size, in process (the
  ledger's own suite runs each one in a child interpreter, which a
  profile hook cannot see).

It prints the functions and methods of ``src/repro`` that none of them
entered, one per line, tagged ``raises`` when the body only raises and
``stub`` when it is empty (``...``/``pass``). It is a report for
reviewers, not a gate; EXPERIMENTS.md keeps its latest output with a
verdict per entry. It needs only what the ``dev`` extras install::

    PYTHONPATH=src python tests/reachability_survey.py

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import pathlib
import runpy
import sys
import tempfile
import threading
from typing import Callable, Dict, Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: The paper-artifact benches, as ``scripts/check.sh`` lists them.
ARTIFACT_BENCHES = (
    "bench_fig1_architecture", "bench_fig2_sequence",
    "bench_fig3_lifecycle", "bench_fig4_adaptation_loop",
    "bench_fig5_testbed", "bench_table1_sla_encoding",
    "bench_table2_gara_api", "bench_table3_conformance",
    "bench_table4_negotiation", "bench_example56_timeline",
    "bench_scenario1_new_request", "bench_scenario2_termination",
    "bench_scenario3_degradation",
)

#: A function, as ``(path relative to src/repro, qualname, first line)``;
#: the first line is the first decorator's, as in ``co_firstlineno``.
Key = Tuple[str, str, int]


def _tag(node: ast.AST) -> str:
    body = list(node.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]  # the docstring
    if len(body) == 1 and isinstance(body[0], ast.Raise):
        return "raises"
    if all(isinstance(statement, ast.Pass)
           or (isinstance(statement, ast.Expr)
               and isinstance(statement.value, ast.Constant)
               and statement.value.value is Ellipsis)
           for statement in body):
        return "stub"
    return ""


def definitions() -> "Dict[Key, str]":
    """Every ``def`` under ``src/repro``, with its tag."""
    found: "Dict[Key, str]" = {}

    def walk(relative: str, nodes, prefix: str) -> None:
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                walk(relative, node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                first = min([node.lineno] + [decorator.lineno for decorator
                                             in node.decorator_list])
                found[(relative, qualname, first)] = _tag(node)
                walk(relative, node.body, f"{qualname}.<locals>.")
            else:  # a def under an if, try, with or loop keeps the prefix
                walk(relative, ast.iter_child_nodes(node), prefix)

    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        walk(relative, ast.parse(path.read_text()).body, "")
    return found


@contextlib.contextmanager
def profiled(entered: "Set[object]") -> Iterator[None]:
    """Record every code object entered, on this thread and any other."""
    def hook(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)  # type: ignore[arg-type]


def _quiet(run: "Callable[[], object]") -> object:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return run()


def runs(scratch: pathlib.Path) -> "List[Tuple[str, Callable[[], object]]]":
    """Every program run the survey makes, as ``(label, thunk)``."""
    from repro import cli
    from repro.analysis import cli as analysis_cli

    journal = str(scratch / "journal.bin")
    commands = [
        ["quickstart"], ["quickstart", "--chaos", "7"],
        ["quickstart", "--telemetry"],
        ["quickstart", "--crash", "7", "--journal", journal],
        ["recover", journal],
        ["telemetry", "--seed", "5"], ["telemetry", "--chaos", "3"],
        ["example56"], ["diagram"], ["sweep"], ["reserve"],
        ["obs", "why", "all"], ["obs", "timeline", "1"], ["obs", "slo"],
        ["federate", "--domains", "3", "--crash", "7"],
    ]
    plan: "List[Tuple[str, Callable[[], object]]]" = [
        ("repro " + " ".join(argv).replace(journal, "JOURNAL"),
         lambda argv=argv: cli.main(argv))
        for argv in commands]
    plan.append(("repro.analysis src --strict",
                 lambda: analysis_cli.main([str(ROOT / "src"), "--strict"])))
    for example in sorted((ROOT / "examples").glob("*.py")):
        plan.append((f"examples/{example.name}",
                     lambda path=str(example): runpy.run_path(
                         path, run_name="__main__")))

    def benches() -> int:
        import pytest
        return int(pytest.main(
            ["-q", "-p", "no:cacheprovider", "--benchmark-disable",
             "--capture=sys"]
            + [str(ROOT / "benchmarks" / f"{name}.py")
               for name in ARTIFACT_BENCHES]))
    plan.append((f"{len(ARTIFACT_BENCHES)} paper-artifact benches", benches))

    from benchmarks.ledger import cli as ledger
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in contract["workloads"]:
        name = workload["name"]
        plan.append((f"ledger --smoke --workload {name}",
                     lambda name=name: ledger.main(
                         ["--workload", name, "--smoke"], started=0.0)))
    return plan


def survey() -> str:
    entered: "Set[object]" = set()
    lines: "List[str]" = []
    with tempfile.TemporaryDirectory() as scratch:
        previous = os.getcwd()
        os.chdir(scratch)  # a run that writes a file writes it here
        try:
            # Imports run under the hook too: a function called at
            # import time is entered.
            with profiled(entered):
                for label, thunk in runs(pathlib.Path(scratch)):
                    try:
                        code = _quiet(thunk)
                    except SystemExit as stop:
                        code = stop.code
                    if not isinstance(code, int):
                        code = 0  # an example's namespace, or exit(None)
                    lines.append(f"ran: {label} (exit {code})")
        finally:
            os.chdir(previous)
    reached = set()
    for code in entered:
        path = pathlib.Path(code.co_filename)
        if path.is_absolute() and path.is_relative_to(SRC):
            reached.add((path.relative_to(SRC).as_posix(),
                         code.co_qualname, code.co_firstlineno))
    found = definitions()
    missed = sorted(key for key in found if key not in reached)
    lines.append(f"{len(missed)} of {len(found)} src/repro functions "
                 f"never entered:")
    for relative, qualname, first in missed:
        tag = found[(relative, qualname, first)]
        lines.append(f"  {relative}:{first} {qualname}"
                     + (f"  [{tag}]" if tag else ""))
    return "\n".join(lines)


if __name__ == "__main__":
    # Run as a script, tests/ leads sys.path and its packages would
    # shadow top-level names.
    here = pathlib.Path(__file__).resolve().parent
    sys.path[:] = [entry for entry in sys.path
                   if entry and pathlib.Path(entry).resolve() != here]
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    print(survey())
