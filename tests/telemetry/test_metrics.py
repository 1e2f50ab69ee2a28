"""Tests for the metrics registry (repro.telemetry.metrics)."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.telemetry.metrics import MetricsRegistry


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestInstruments:
    def test_counter_is_keyed_by_name_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("repro_ops_total", op="create").inc()
        registry.counter("repro_ops_total", op="create").inc()
        registry.counter("repro_ops_total", op="cancel").inc()
        assert registry.counter_value("repro_ops_total", op="create") == 2
        assert registry.counter_value("repro_ops_total", op="cancel") == 1
        assert registry.counter_value("repro_ops_total", op="other") == 0

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", a="1", b="2").inc()
        assert registry.counter_value("repro_x_total", b="2", a="1") == 1

    def test_negative_counter_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.counter("repro_x_total").inc(-1.0)

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_active", pool="g")
        gauge.set(4.0)
        gauge.add(-1.0)
        assert gauge.value == 3.0
        assert registry.gauge("repro_active", pool="g") is gauge

    def test_kind_reuse_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_thing_total").inc()
        with pytest.raises(ValidationError):
            registry.gauge("repro_thing_total")

    def test_invalid_names_and_labels_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.counter("bad name")
        with pytest.raises(ValidationError):
            registry.counter("repro_ok_total", **{"bad-label": "x"})


class TestTimeWeightedGauge:
    def test_mean_is_exact_time_weighted(self):
        clock = FakeClock()
        registry = MetricsRegistry(now=clock)
        gauge = registry.time_gauge("repro_capacity_effective", pool="g")
        gauge.set(15.0)
        clock.now = 30.0
        gauge.set(12.0)
        clock.now = 60.0
        # 15 over [0,30) + 12 over [30,60) -> mean 13.5.
        assert gauge.value == 12.0
        assert gauge.mean() == pytest.approx(13.5)

    def test_window_opens_at_first_set(self):
        clock = FakeClock()
        registry = MetricsRegistry(now=clock)
        clock.now = 50.0
        gauge = registry.time_gauge("repro_late")
        gauge.set(10.0)
        clock.now = 60.0
        # No zero-filled lead-in over [0, 50).
        assert gauge.mean() == pytest.approx(10.0)

    def test_unset_gauge_means_zero(self):
        registry = MetricsRegistry()
        assert registry.time_gauge("repro_never").mean() == 0.0


class TestRendering:
    def test_prometheus_snapshot_groups_families(self):
        clock = FakeClock()
        registry = MetricsRegistry(now=clock)
        registry.counter("repro_ops_total", op="b").inc(2)
        registry.counter("repro_ops_total", op="a").inc()
        registry.gauge("repro_active").set(3)
        registry.time_gauge("repro_cap", pool="g").set(15.0)
        clock.now = 10.0
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# TYPE repro_ops_total counter" in lines
        assert lines.count("# TYPE repro_ops_total counter") == 1
        # Sorted label values within the family.
        assert lines.index('repro_ops_total{op="a"} 1') \
            < lines.index('repro_ops_total{op="b"} 2')
        assert 'repro_cap{pool="g"} 15' in lines
        assert 'repro_cap_timeweighted_mean{pool="g"} 15' in lines

    def test_snapshot_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("repro_z_total").inc()
            registry.counter("repro_a_total", op="x").inc()
            registry.gauge("repro_m", pool="b").set(2)
            return registry.render_prometheus()

        assert build() == build()

    def test_as_dict_flattens_keys(self):
        registry = MetricsRegistry()
        registry.counter("repro_ops_total", op="create").inc()
        registry.gauge("repro_active").set(2)
        data = registry.as_dict()
        assert data["repro_ops_total{op=create}"] == 1
        assert data["repro_active"] == 2
