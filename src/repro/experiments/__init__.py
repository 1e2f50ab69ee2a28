"""Experiment harness: policy runner, the Section 5.6 replay.

* :mod:`repro.experiments.harness` — drive a workload through an
  allocation policy (fast path) or a full broker testbed.
* :mod:`repro.experiments.example56` — the paper's worked example.
* :mod:`repro.experiments.reporting` — plain-text result tables.
* :mod:`repro.experiments.quickstart` — the quickstart episode, plain,
  under fault injection, with the telemetry hub, or with a crash.
"""

from .example56 import Example56Result, TimelineRow, run_example56
from .harness import PolicyRunResult, run_broker_workload, run_policy_workload
from .quickstart import run_quickstart
from .reporting import format_table
from .sequence import figure2_diagram

__all__ = [
    "Example56Result",
    "PolicyRunResult",
    "TimelineRow",
    "figure2_diagram",
    "format_table",
    "run_broker_workload",
    "run_example56",
    "run_policy_workload",
    "run_quickstart",
]
