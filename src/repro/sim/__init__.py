"""Discrete-event simulation substrate.

The paper's testbed was a live Globus deployment; the reproduction
replays the same component interactions inside a deterministic
discrete-event simulator so experiments are repeatable. The engine is
deliberately small: a time-ordered event queue (:mod:`repro.sim.events`),
a simulator driving it (:mod:`repro.sim.engine`), seeded workload
distributions (:mod:`repro.sim.random`), and a structured trace recorder
(:mod:`repro.sim.trace`).
"""

from .engine import Simulator
from .events import Event, EventQueue
from .random import RandomSource
from .trace import TraceEntry, TraceRecorder

__all__ = [
    "Event",
    "EventQueue",
    "RandomSource",
    "Simulator",
    "TraceEntry",
    "TraceRecorder",
]
