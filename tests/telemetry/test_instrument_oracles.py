"""The emit-path instruments against their earlier implementations.

Differential (bit for bit, oracles in ``tests/telemetry/reference.py``):

* :class:`~repro.telemetry.metrics.TimeWeightedGauge` against the
  ``TimeWeightedMetrics``-backed gauge — values, means and the error on
  a backwards clock;
* the decision payload normaliser ``_jsonify`` against its ABC-checked
  version.

Counted: the registry validates each call signature once per process,
so a second replay of a scenario performs no name/label validation.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.obs.decisions import _jsonify
from repro.telemetry import metrics as metrics_module
from repro.telemetry.metrics import MetricsRegistry, TimeWeightedGauge
from repro.workloads import replay

from .reference import ReferenceTimeWeightedGauge, reference_jsonify


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _bits(value: float) -> str:
    return float(value).hex()


# ----------------------------------------------------------------------
# TimeWeightedGauge
# ----------------------------------------------------------------------

_VALUES = st.one_of(
    st.sampled_from((0.0, -0.0, -1.5, 1.0 / 3.0, 1e-300, -7.0)),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    st.integers(min_value=-5, max_value=5))
_DELAYS = st.one_of(
    st.sampled_from((0.0, 0.0, 0.1, 1.0 / 3.0, 1e-9)),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
_OPS = st.lists(st.tuples(st.sampled_from(("set", "set_at", "mean")),
                          _DELAYS, _VALUES), max_size=40)


class TestTimeWeightedGauge:
    @settings(max_examples=300, deadline=None)
    @given(_OPS, st.sampled_from((0.0, 5.0, 1.0 / 3.0)))
    def test_bit_equal_to_the_window_oracle(self, ops, start):
        clock = _Clock()
        clock.now = start
        gauge = TimeWeightedGauge(clock)
        oracle = ReferenceTimeWeightedGauge(clock)
        for op, delay, value in ops:
            clock.now += delay
            if op == "mean":
                assert _bits(gauge.mean()) == _bits(oracle.mean())
                continue
            if op == "set":
                gauge.set(value)
            else:  # a caller that read the same clock itself
                gauge.set_at(clock(), value)
            oracle.set(value)
            assert _bits(gauge.value) == _bits(oracle.value)
        assert _bits(gauge.mean()) == _bits(oracle.mean())

    def test_backwards_clock_is_rejected_like_the_oracle(self):
        for make in (TimeWeightedGauge, ReferenceTimeWeightedGauge):
            clock = _Clock()
            gauge = make(clock)
            clock.now = 10.0
            gauge.set(1.0)
            clock.now = 9.0
            with pytest.raises(ValidationError, match="precedes"):
                gauge.set(2.0)
            with pytest.raises(ValidationError, match="precedes"):
                gauge.mean()

    def test_registry_gauges_share_the_registry_clock(self):
        clock = _Clock()
        registry = MetricsRegistry(now=clock)
        assert registry.now is clock
        gauge = registry.time_gauge("repro_x")
        gauge.set(4.0)
        clock.now = 2.0
        gauge.set_at(registry.now(), 8.0)
        clock.now = 4.0
        assert gauge.mean() == 6.0


# ----------------------------------------------------------------------
# _jsonify
# ----------------------------------------------------------------------

class _Color(enum.Enum):
    RED = "red"
    BLUE = 2


class _Level(enum.IntEnum):
    LOW = 1


class _Unit(str, enum.Enum):
    CPU = "cpu"


class _Tag(str):
    pass


class _Opaque:
    def __str__(self) -> str:
        return "<opaque>"


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(allow_nan=False),
    st.sampled_from((_Color.RED, _Color.BLUE, _Level.LOW, _Unit.CPU,
                     _Tag("tag"), _Opaque())))
_KEYS = st.one_of(st.text(max_size=3), st.integers(-3, 3),
                  st.sampled_from((_Color.RED, _Color.BLUE, _Level.LOW,
                                   _Unit.CPU, _Tag("k"), True, None,
                                   1.5)))


def _containers(children):
    mappings = st.dictionaries(_KEYS, children, max_size=4)
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        mappings,
        mappings.map(MappingProxyType),
        mappings.map(OrderedDict))


_PAYLOADS = st.recursive(_LEAVES, _containers, max_leaves=25)


def _outcome(function, value):
    try:
        return "ok", repr(function(value))
    except Exception as error:  # both must fail alike, if at all
        return "raised", type(error).__name__


class TestJsonify:
    @settings(max_examples=300, deadline=None)
    @given(_PAYLOADS)
    def test_equal_to_the_abc_checked_oracle(self, payload):
        assert _outcome(_jsonify, payload) \
            == _outcome(reference_jsonify, payload)

    def test_candidate_shaped_payload(self):
        payload = {"point": {_Unit.CPU: 4.0, "memory_mb": 256},
                   "levels": (1, 2.5, None, True),
                   "view": MappingProxyType({_Color.RED: [_Level.LOW]}),
                   "note": _Opaque()}
        assert repr(_jsonify(payload)) == repr(reference_jsonify(payload))


# ----------------------------------------------------------------------
# Registry: one validation per call signature, the same series
# ----------------------------------------------------------------------

class TestSeriesKeys:
    def test_a_call_reaches_the_series_a_fresh_validation_names(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", b=2, a="1").inc()
        registry.counter("repro_x_total", a=1, b="2").inc()
        registry.counter("repro_x_total", a=True, b=2).inc()
        registry.counter("repro_x_total", a=1.0, b=2).inc()
        assert [registry.counter_value("repro_x_total", a=a, b=2)
                for a in (1, True, 1.0)] == [2.0, 1.0, 1.0]
        assert registry.render_prometheus().count("repro_x_total{") == 3

    def test_a_repeated_call_does_no_key_work(self, monkeypatch):
        keyed = []
        series = MetricsRegistry._series

        def counting(registry, name, kind, labels):
            keyed.append((name, kind))
            return series(registry, name, kind, labels)

        monkeypatch.setattr(MetricsRegistry, "_series", counting)
        registry = MetricsRegistry()
        for _ in range(3):
            registry.counter("repro_ops_total", op="create", domain="d1")
            registry.counter("repro_ops_total", op="cancel", domain="d1")
            registry.gauge("repro_flows", domain="d1")
            registry.gauge("repro_idle")
        assert sorted(keyed) == [("repro_flows", "gauge"),
                                 ("repro_idle", "gauge"),
                                 ("repro_ops_total", "counter"),
                                 ("repro_ops_total", "counter")]

    def test_validation_errors_repeat_on_every_call(self):
        registry = MetricsRegistry()
        for _ in range(2):
            with pytest.raises(ValidationError):
                registry.counter("bad name")
            with pytest.raises(ValidationError):
                registry.gauge("repro_ok", **{"bad-label": "x"})
        registry.counter("repro_kind_total").inc()
        for _ in range(2):
            with pytest.raises(ValidationError, match="already registered"):
                registry.gauge("repro_kind_total")

    def test_a_second_replay_validates_nothing(self, monkeypatch):
        validations = []
        validate = metrics_module._key

        def counting(signature, labels):
            validations.append(signature)
            return validate(signature, labels)

        monkeypatch.setattr(metrics_module, "_key", counting)
        monkeypatch.setattr(metrics_module, "_SERIES", {})  # a cold process
        replay.replay_scenario("rack_failure_cascade", seed=5,
                               with_journal=True)
        first = len(validations)
        assert first == len(set(validations)) > 0
        replay.replay_scenario("rack_failure_cascade", seed=5,
                               with_journal=True)
        assert len(validations) == first
