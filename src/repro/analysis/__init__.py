"""Self-hosted static analysis for the reproduction.

The engine enforces, at review time, the invariants the test suite can
only spot-check at runtime: discrete-event determinism (QLNT101,
QLNT109), units and tolerance discipline on QoS quantities (QLNT102,
QLNT103), the error-handling contract (QLNT104, QLNT105), the
published API surface (QLNT106), the closed SLA/reservation state
machines (QLNT107), and general source hygiene (QLNT108, QLNT110,
QLNT111).

Run it with ``python -m repro.analysis [paths]`` (or the ``qlint``
console script); see :mod:`repro.analysis.cli` for flags, and
:mod:`repro.analysis.rules` for the catalogue.
"""

from __future__ import annotations

from .baseline import Baseline, fingerprint_findings, load_baseline, \
    save_baseline
from .core import Finding, ModuleContext, Rule, Severity, all_rules, \
    register
from .engine import AnalysisResult, analyze_paths, analyze_source, \
    iter_python_files
from .reporters import JSON_SCHEMA_VERSION, render_json, render_text

__all__ = [
    "AnalysisResult",
    "Baseline",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "ModuleContext",
    "Rule",
    "Severity",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "fingerprint_findings",
    "iter_python_files",
    "load_baseline",
    "register",
    "render_json",
    "render_text",
    "save_baseline",
]
