"""The self-hosted analyzer gates the library's source hygiene.

This file used to carry three coarse AST checks (unused imports, debug
prints, mutable defaults).  Those checks — and eight more (determinism,
units discipline, tolerance comparison, exception contract, ``__all__``
drift, state-machine transitions, ordering hazards) — now live in
:mod:`repro.analysis`; the hygiene gate is simply "the analyzer runs
clean over ``src/`` with zero unbaselined findings", so a regression in
any invariant fails the suite offline with no external linter.

See ``tests/analysis/`` for the engine's own test suite.
"""

from __future__ import annotations

import ast
import pathlib

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
