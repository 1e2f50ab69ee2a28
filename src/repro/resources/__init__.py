"""Computation resources: machines, the DSRT scheduler, the compute RM.

The paper's compute substrate is Globus GRAM over the DSRT soft
real-time CPU scheduler, with GARA as the reservation interface. Here:

* :mod:`repro.resources.machine` — a multiprocessor machine whose nodes
  can fail and recover (the SGI machine of Section 5.6).
* :mod:`repro.resources.dsrt` — the Dynamic Soft Real-Time scheduler:
  per-process CPU contracts.
* :mod:`repro.resources.compute` — the GRAM-like resource manager tying
  machine, slot table, GARA and DSRT together.
* :mod:`repro.resources.failures` — stochastic failure/repair injection.
"""

from .compute import ComputeResourceManager, Job, JobState
from .dsrt import DsrtContract, DsrtScheduler
from .failures import FailureInjector, FailureSchedule
from .machine import Machine

__all__ = [
    "ComputeResourceManager",
    "DsrtContract",
    "DsrtScheduler",
    "FailureInjector",
    "FailureSchedule",
    "Job",
    "JobState",
    "Machine",
]
