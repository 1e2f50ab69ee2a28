"""The sensor interface.

Foster et al.'s adaptive architecture (which the paper builds on) uses
"sensors that permit monitoring of resource allocation". A sensor here
is a named probe that, when sampled, returns a
:class:`SensorReading` — a bag of per-dimension values.
The sensors the SLA-Verif samples measure the running session, as
Al-Hawari & Manolakos's runtime QoS service does: the broker attaches
one per session for its CPU share and one for its network booking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..qos.parameters import Dimension
from ..sim.engine import Simulator


@dataclass(frozen=True)
class SensorReading:
    """One sample from a sensor.

    Attributes:
        sensor: Name of the producing sensor.
        time: Sample time.
        values: Per-dimension measurements.
    """

    sensor: str
    time: float
    values: "Dict[Dimension, float]"


class Sensor:
    """Base sensor: named, sampled on demand."""

    def __init__(self, name: str, sim: Simulator) -> None:
        self.name = name
        self._sim = sim

    def sample(self) -> SensorReading:
        """Take one sample. Subclasses must override."""
        raise NotImplementedError
