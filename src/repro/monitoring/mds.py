"""The MDS-like information service.

"The SLA-Verif obtains QoS levels from both the NRM, for network
resources, and the Globus information service (MDS) for CPU QoS"
(Section 3.2). :class:`InformationService` is that directory: sensors
register under hierarchical names, queries return the latest (cached)
or a fresh reading, and readings are retained for history-style
queries the experiment harness uses.
"""

from __future__ import annotations

import fnmatch
from typing import Dict, List, Optional

from ..errors import MonitoringError
from ..sim.engine import Simulator
from .sensors import Sensor, SensorReading


class InformationService:
    """A queryable directory of sensors (the MDS analogue).

    Args:
        sim: Simulation engine (timestamps cached readings).
        history_limit: How many readings are retained per sensor.
    """

    def __init__(self, sim: Simulator, *, history_limit: int = 64) -> None:
        self._sim = sim
        self.history_limit = history_limit
        self._sensors: Dict[str, Sensor] = {}
        self._history: Dict[str, List[SensorReading]] = {}

    def register(self, sensor: Sensor) -> Sensor:
        """Add a sensor under its name.

        Raises:
            MonitoringError: On duplicate names.
        """
        if sensor.name in self._sensors:
            raise MonitoringError(f"sensor {sensor.name!r} already registered")
        self._sensors[sensor.name] = sensor
        self._history[sensor.name] = []
        return sensor

    def unregister(self, name: str) -> None:
        """Remove a sensor (history is kept)."""
        self._sensors.pop(name, None)

    def has_sensor(self, name: str) -> bool:
        """Whether a sensor is registered under ``name``.

        The O(1) membership probe: session attach runs once per
        admission, so globbing every registered name there would put
        an O(total sensors) scan on the admission hot path.
        """
        return name in self._sensors

    def sensor_names(self, pattern: str = "*") -> List[str]:
        """Registered sensor names matching a glob pattern."""
        return sorted(name for name in self._sensors
                      if fnmatch.fnmatchcase(name, pattern))

    def query(self, name: str) -> SensorReading:
        """Take (and retain) a fresh reading from one sensor.

        Raises:
            MonitoringError: When the sensor is unknown.
        """
        sensor = self._sensors.get(name)
        if sensor is None:
            raise MonitoringError(f"unknown sensor {name!r}")
        reading = sensor.sample()
        history = self._history.setdefault(name, [])
        history.append(reading)
        del history[:-self.history_limit]
        return reading

    def latest(self, name: str) -> Optional[SensorReading]:
        """The most recent retained reading, or ``None``."""
        history = self._history.get(name)
        if not history:
            return None
        return history[-1]

    def history(self, name: str) -> List[SensorReading]:
        """Retained readings for a sensor, oldest first (a copy)."""
        return list(self._history.get(name, []))
