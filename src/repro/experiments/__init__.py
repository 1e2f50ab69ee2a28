"""Experiment harness: policy runner, the Section 5.6 replay.

* :mod:`repro.experiments.harness` — drive a workload through an
  allocation policy (fast path) or a full broker testbed.
* :mod:`repro.experiments.example56` — the paper's worked example.
* :mod:`repro.experiments.reporting` — plain-text result tables.
* :mod:`repro.experiments.chaos_demo` /
  :mod:`repro.experiments.telemetry_demo` — the quickstart session
  under fault injection / with the telemetry hub installed.
"""

from ..telemetry.timeweighted import TimeWeightedMetrics
from .chaos_demo import run_chaos_quickstart
from .example56 import Example56Result, TimelineRow, run_example56
from .harness import PolicyRunResult, run_broker_workload, run_policy_workload
from .reporting import format_table
from .sequence import figure2_diagram
from .telemetry_demo import run_telemetry_quickstart

__all__ = [
    "Example56Result",
    "PolicyRunResult",
    "TimeWeightedMetrics",
    "TimelineRow",
    "figure2_diagram",
    "format_table",
    "run_broker_workload",
    "run_chaos_quickstart",
    "run_example56",
    "run_policy_workload",
    "run_telemetry_quickstart",
]
