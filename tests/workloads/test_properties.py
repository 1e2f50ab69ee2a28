"""Property tests for the atlas generators (hypothesis).

The generators' contracts, checked over randomly drawn parameters and
seeds rather than a handful of fixtures:

* arrival realisations are sorted, strictly inside ``[0, horizon)``;
* thinning never exceeds the peak-rate envelope — the accepted set is
  a *subset* of the same-seed homogeneous peak-rate realisation;
* empirical rates and class mixes land near their analytic targets;
* compilation is a pure function of the seed, byte-identical across
  processes (the fingerprint subprocess test).
"""

import math
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.random import RandomSource
from repro.workloads.arrivals import (ConstantRate, DiurnalRate,
                                      FlashCrowdRate, sample_arrivals)
from repro.workloads.durations import (MIN_DURATION, ExponentialDuration,
                                       LognormalDuration, ParetoDuration)
from repro.workloads.scenarios import ScenarioSpec, TenantProfile

seeds = st.integers(min_value=0, max_value=2**31 - 1)

processes = st.one_of(
    st.builds(ConstantRate,
              rate=st.floats(min_value=0.05, max_value=2.0)),
    st.builds(DiurnalRate,
              base_rate=st.floats(min_value=0.05, max_value=2.0),
              amplitude=st.floats(min_value=0.0, max_value=0.95),
              period=st.floats(min_value=20.0, max_value=400.0),
              phase=st.floats(min_value=-100.0, max_value=100.0)),
    st.builds(FlashCrowdRate,
              base_rate=st.floats(min_value=0.05, max_value=1.0),
              bursts=st.tuples(st.tuples(
                  st.floats(min_value=0.0, max_value=100.0),
                  st.floats(min_value=101.0, max_value=200.0),
                  st.floats(min_value=1.0, max_value=10.0)))),
)

durations = st.one_of(
    st.builds(ExponentialDuration,
              mean_duration=st.floats(min_value=0.5, max_value=100.0)),
    st.builds(LognormalDuration,
              median=st.floats(min_value=0.5, max_value=50.0),
              sigma=st.floats(min_value=0.1, max_value=2.0)),
    st.builds(ParetoDuration,
              shape=st.floats(min_value=1.1, max_value=4.0),
              scale=st.floats(min_value=0.5, max_value=20.0),
              cap=st.floats(min_value=50.0, max_value=500.0)),
)


@given(process=processes, seed=seeds,
       horizon=st.floats(min_value=10.0, max_value=500.0))
def test_arrivals_sorted_and_within_horizon(process, seed, horizon):
    arrivals = sample_arrivals(process, horizon, RandomSource(seed))
    assert arrivals == sorted(arrivals)
    assert all(0.0 < t < horizon for t in arrivals)


@given(process=processes, seed=seeds)
def test_thinning_never_exceeds_peak_envelope(process, seed):
    """The accepted arrivals are a subset of the same-seed candidate
    stream: thinning can only remove candidates, so the realisation
    is dominated pointwise by the homogeneous peak-rate process."""
    horizon = 200.0
    thinned = sample_arrivals(process, horizon, RandomSource(seed))
    envelope = sample_arrivals(ConstantRate(process.peak_rate), horizon,
                               RandomSource(seed))
    assert set(thinned) <= set(envelope)
    assert len(thinned) <= len(envelope)


@given(seed=seeds)
@settings(max_examples=30)
def test_constant_rate_empirical_mean(seed):
    """Homogeneous arrivals land near the analytic mean (expected
    count 400; the 35% tolerance is ~7 sigma, so seeds never flake)."""
    rate, horizon = 2.0, 200.0
    arrivals = sample_arrivals(ConstantRate(rate), horizon,
                               RandomSource(seed))
    assert abs(len(arrivals) - rate * horizon) <= 0.35 * rate * horizon


@given(seed=seeds)
@settings(max_examples=30)
def test_diurnal_empirical_mean_matches_base_rate(seed):
    """Over whole cycles the sinusoid integrates to base_rate."""
    process = DiurnalRate(base_rate=1.0, amplitude=0.8, period=100.0)
    arrivals = sample_arrivals(process, 400.0, RandomSource(seed))
    assert abs(len(arrivals) - 400.0) <= 0.35 * 400.0


@given(model=durations, seed=seeds)
def test_durations_respect_floor_and_cap(model, seed):
    rng = RandomSource(seed)
    for _ in range(50):
        draw = model.sample(rng)
        assert draw >= MIN_DURATION
        if isinstance(model, ParetoDuration) and model.cap is not None:
            assert draw <= model.cap


@given(seed=seeds)
@settings(max_examples=20)
def test_lognormal_empirical_median(seed):
    model = LognormalDuration(median=20.0, sigma=1.0)
    rng = RandomSource(seed)
    draws = sorted(model.sample(rng) for _ in range(400))
    empirical = draws[len(draws) // 2]
    # Median of 400 lognormal draws: generous 2x band either side.
    assert 10.0 <= empirical <= 40.0


def _mix_scenario():
    return ScenarioSpec(
        name="mix_probe", family="multi_tenant",
        description="class-mix tolerance probe", horizon=3000.0,
        tenants=(TenantProfile(
            name="probe", arrivals=ConstantRate(rate=0.5),
            durations=ExponentialDuration(mean_duration=10.0),
            class_mix=(0.5, 0.3, 0.2)),))


@given(seed=seeds)
@settings(max_examples=10, deadline=None)
def test_class_mix_within_tolerance(seed):
    from repro.qos.classes import ServiceClass
    compiled = _mix_scenario().compile(seed)
    total = len(compiled.workload)
    assert total > 500  # expected ~1500
    for weight, cls in zip((0.5, 0.3, 0.2),
                           (ServiceClass.GUARANTEED,
                            ServiceClass.CONTROLLED_LOAD,
                            ServiceClass.BEST_EFFORT)):
        share = sum(s.service_class is cls
                    for s in compiled.workload.sessions) / total
        assert abs(share - weight) <= 6.0 * math.sqrt(
            weight * (1.0 - weight) / total)


@given(seed=seeds)
@settings(max_examples=10, deadline=None)
def test_same_seed_compiles_byte_identical(seed):
    spec = _mix_scenario()
    first = spec.compile(seed).workload.fingerprint()
    second = spec.compile(seed).workload.fingerprint()
    assert first == second


def test_compilation_is_byte_identical_across_processes():
    """The fingerprint of a built-in scenario matches one computed by
    a fresh interpreter: no process-global state leaks into draws."""
    program = ("from repro.workloads import get_scenario\n"
               "print(get_scenario('multi_tenant_mix')"
               ".compile(2003).workload.fingerprint())\n")
    out = subprocess.run([sys.executable, "-c", program],
                         capture_output=True, text=True, check=True)
    from repro.workloads import get_scenario
    local = get_scenario("multi_tenant_mix").compile(2003)
    assert out.stdout.strip() == local.workload.fingerprint()
