"""The self-hosted analyzer gates the library's source hygiene.

This file used to carry three coarse AST checks (unused imports, debug
prints, mutable defaults).  Those checks — and eight more (determinism,
units discipline, tolerance comparison, exception contract, ``__all__``
drift, state-machine transitions, ordering hazards) — now live in
:mod:`repro.analysis`; the hygiene gate is simply "the analyzer runs
clean over ``src/`` with zero unbaselined findings", so a regression in
any invariant fails the suite offline with no external linter.

See ``tests/analysis/`` for the engine's own test suite.

The file also holds the dependency contract: the runtime is the
standard library alone, and ``pyproject.toml``'s ``dev`` extras declare
every package the tests and benchmarks import.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.analysis import Baseline, analyze_paths, load_baseline, \
    render_text

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BASELINE = ROOT / "analysis-baseline.json"


def _run():
    baseline = load_baseline(BASELINE) if BASELINE.exists() \
        else Baseline.empty()
    return analyze_paths([SRC], baseline=baseline, root=ROOT)


def test_every_module_parses():
    result = _run()
    assert not result.parse_errors, result.parse_errors
    assert result.module_count > 90  # the whole library was analysed


def test_every_module_parses_under_the_oldest_supported_grammar():
    """``pyproject.toml`` declares Python >= 3.9, and the suite runs on
    a newer interpreter: a ``match`` statement or an ``except*`` would
    pass every other test and then fail to import on 3.9. The check is
    the parser's own, so it is grammar only (and best effort: newer
    runtime features such as ``X | Y`` outside annotations pass)."""
    too_new = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, 9))
        except SyntaxError as error:
            too_new.append(f"{path.relative_to(ROOT)}:{error.lineno}: "
                           f"{error.msg}")
    assert not too_new, too_new


def test_analyzer_runs_clean_on_src():
    """Zero new findings — errors *and* warnings — over the library."""
    result = _run()
    assert not result.new_findings, "\n" + render_text(result,
                                                       verbose=True)


def test_baseline_carries_no_stale_entries():
    """Fixed findings must leave the baseline, not linger."""
    result = _run()
    assert result.stale_baseline == []


# ----------------------------------------------------------------------
# The dependency contract: a stdlib-only runtime, declared dev extras
# ----------------------------------------------------------------------

#: Every entry point a user or the CLI starts from.
_ENTRY_POINTS = ("repro", "repro.cli", "repro.federation",
                 "repro.experiments.quickstart")


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names is 3.10+")
def test_the_runtime_imports_nothing_outside_the_standard_library():
    """A fresh interpreter imports every entry point; each module that
    arrives must be the standard library's or the package's own."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"for name in {_ENTRY_POINTS!r}:\n"
        "    __import__(name)\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = {name.split(".")[0] for name in result.stdout.split()}
    assert "repro" in loaded
    foreign = sorted(loaded - set(sys.stdlib_module_names) - {"repro"})
    assert foreign == []


def _requirement_name(requirement: str) -> str:
    name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
    return name.lower().replace("-", "_").replace(".", "_")


def _third_party_imports(root: pathlib.Path) -> "dict[str, str]":
    """Top-level absolute imports under ``root`` that are neither the
    standard library nor this checkout's own code -> one file using
    each."""
    local = {"repro", "tests", "benchmarks"}
    local.update(path.stem for path in root.rglob("*.py"))
    found = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, str(path.relative_to(ROOT)))
    return found


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
def test_pyproject_declares_no_runtime_dependency_and_every_dev_import():
    import tomllib

    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    dev = {_requirement_name(requirement)
           for requirement in project["optional-dependencies"]["dev"]}
    imported = {}
    for root in (ROOT / "tests", ROOT / "benchmarks"):
        imported.update(_third_party_imports(root))
    undeclared = {name: where for name, where in imported.items()
                  if name.lower() not in dev}
    assert undeclared == {}
    assert {"hypothesis", "networkx", "pytest"} <= set(imported)
