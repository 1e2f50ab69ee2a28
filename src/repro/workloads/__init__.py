"""Synthetic workloads for the deferred quantitative evaluation.

The paper evaluates qualitatively and "as a future topic ... planned to
evaluate this adaptation technique"; the reproduction performs that
evaluation with synthetic session workloads, grown here into a
**workload atlas** of named scenario families:

* :mod:`repro.workloads.sessions` — session descriptions.
* :mod:`repro.workloads.generators` — the seed Poisson generator with
  a configurable class mix and load scaling.
* :mod:`repro.workloads.arrivals` — time-varying arrival processes
  (diurnal sinusoids, flash-crowd bursts) sampled by thinning.
* :mod:`repro.workloads.durations` — exponential, lognormal and
  capped-Pareto session-duration models.
* :mod:`repro.workloads.scenarios` — declarative
  :class:`~repro.workloads.scenarios.ScenarioSpec` (tenant profiles +
  failure tracks) compiling to a workload plus an event timeline.
* :mod:`repro.workloads.atlas` — the registry of scenario families
  and the six built-in scenarios.
* :mod:`repro.workloads.replay` — the full-testbed replay harness
  (batched admission, telemetry collection, invariant audits).
"""

from .arrivals import ConstantRate, DiurnalRate, FlashCrowdRate, \
    sample_arrivals
from .atlas import (DEFAULT_SEED, get_scenario, register_scenario,
                    scenarios)
from .durations import (ExponentialDuration, LognormalDuration,
                        ParetoDuration)
from .generators import WorkloadConfig, arrival_rate_for_load, \
    generate_workload
from .replay import ReplayResult, check_invariants, replay_scenario
from .scenarios import (FAMILIES, CompiledScenario, FailureTrack,
                        ScenarioSpec, TenantProfile)
from .sessions import SessionSpec, Workload

__all__ = [
    "CompiledScenario",
    "ConstantRate",
    "DEFAULT_SEED",
    "DiurnalRate",
    "ExponentialDuration",
    "FAMILIES",
    "FailureTrack",
    "FlashCrowdRate",
    "LognormalDuration",
    "ParetoDuration",
    "ReplayResult",
    "ScenarioSpec",
    "SessionSpec",
    "TenantProfile",
    "Workload",
    "WorkloadConfig",
    "arrival_rate_for_load",
    "check_invariants",
    "generate_workload",
    "get_scenario",
    "register_scenario",
    "replay_scenario",
    "sample_arrivals",
    "scenarios",
]
