"""The MDS-like information service.

"The SLA-Verif obtains QoS levels from both the NRM, for network
resources, and the Globus information service (MDS) for CPU QoS"
(Section 3.2). :class:`InformationService` is that directory: sensors
register under hierarchical names, and a query takes a fresh reading.
"""

from __future__ import annotations

from typing import Dict

from ..errors import MonitoringError
from .sensors import Sensor, SensorReading


class InformationService:
    """A queryable directory of sensors (the MDS analogue)."""

    def __init__(self) -> None:
        self._sensors: Dict[str, Sensor] = {}

    def register(self, sensor: Sensor) -> Sensor:
        """Add a sensor under its name.

        Raises:
            MonitoringError: On duplicate names.
        """
        if sensor.name in self._sensors:
            raise MonitoringError(f"sensor {sensor.name!r} already registered")
        self._sensors[sensor.name] = sensor
        return sensor

    def unregister(self, name: str) -> None:
        """Remove a sensor."""
        self._sensors.pop(name, None)

    def has_sensor(self, name: str) -> bool:
        """Whether a sensor is registered under ``name``.

        The O(1) membership probe: session attach runs once per
        admission, so globbing every registered name there would put
        an O(total sensors) scan on the admission hot path.
        """
        return name in self._sensors

    def query(self, name: str) -> SensorReading:
        """Take a fresh reading from one sensor.

        Raises:
            MonitoringError: When the sensor is unknown.
        """
        sensor = self._sensors.get(name)
        if sensor is None:
            raise MonitoringError(f"unknown sensor {name!r}")
        return sensor.sample()
