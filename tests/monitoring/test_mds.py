"""Tests for the information service (repro.monitoring.mds)."""

from __future__ import annotations

import pytest

from repro.errors import MonitoringError
from repro.monitoring.mds import InformationService
from repro.monitoring.sensors import Sensor, SensorReading
from repro.qos.parameters import Dimension


class CountingSensor(Sensor):
    """Test double: returns an incrementing CPU value."""

    def __init__(self, name, sim):
        super().__init__(name, sim)
        self.samples = 0

    def sample(self):
        self.samples += 1
        return SensorReading(sensor=self.name, time=self._sim.now,
                             values={Dimension.CPU: float(self.samples)})


@pytest.fixture
def mds(sim):
    return InformationService(sim, history_limit=3)


class TestRegistry:
    def test_register_and_query(self, sim, mds):
        mds.register(CountingSensor("cluster/cpu", sim))
        reading = mds.query("cluster/cpu")
        assert reading.values[Dimension.CPU] == 1.0

    def test_duplicate_name_rejected(self, sim, mds):
        mds.register(CountingSensor("s", sim))
        with pytest.raises(MonitoringError):
            mds.register(CountingSensor("s", sim))

    def test_unknown_sensor_rejected(self, mds):
        with pytest.raises(MonitoringError):
            mds.query("ghost")

    def test_name_patterns(self, sim, mds):
        for name in ("cluster/cpu", "cluster/memory", "net/flow1"):
            mds.register(CountingSensor(name, sim))
        # Hierarchical names are exact keys; a glob names no sensor.
        assert mds.has_sensor("cluster/cpu")
        assert mds.has_sensor("net/flow1")
        assert not mds.has_sensor("cluster/*")
        assert not mds.has_sensor("cluster")

    def test_unregister_keeps_history(self, sim, mds):
        mds.register(CountingSensor("s", sim))
        mds.query("s")
        mds.unregister("s")
        assert mds.latest("s") is not None
        with pytest.raises(MonitoringError):
            mds.query("s")


class TestHistory:
    def test_latest_and_history(self, sim, mds):
        mds.register(CountingSensor("s", sim))
        for _ in range(2):
            mds.query("s")
        assert mds.latest("s").values[Dimension.CPU] == 2.0
        assert [r.values[Dimension.CPU] for r in mds.history("s")] == \
            [1.0, 2.0]

    def test_history_limit(self, sim, mds):
        mds.register(CountingSensor("s", sim))
        for _ in range(10):
            mds.query("s")
        assert len(mds.history("s")) == 3
        assert mds.history("s")[-1].values[Dimension.CPU] == 10.0

    def test_latest_none_before_first_query(self, sim, mds):
        mds.register(CountingSensor("s", sim))
        assert mds.latest("s") is None
