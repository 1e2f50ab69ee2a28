"""``SloEngine.snapshot`` against the O(n) oracle, under generated feeds.

The engine keeps the sums of its leading closed tracks and reads only
what can overlap a window; the oracle re-sums every interval of every
session ever started. Both must produce equal snapshots (``==`` on the
whole dict) after any sequence of starts (restarts and class changes
included), violations, restorations, ends and evaluations — at the
current instant and at earlier ones, with feeds that report ends and
restorations out of time order too.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.obs import SloEngine, SloSpec

from .slo_reference import ReferenceSloEngine

SPECS = (
    SloSpec(service_class="Guaranteed", availability=0.999,
            windows=(3.0, 20.0)),
    SloSpec(service_class="Controlled-load", availability=0.9,
            windows=(0.5, 7.0, 50.0)),
)
CLASSES = ("Guaranteed", "Controlled-load", "Best-effort")
#: Steps of 0 repeat an instant; thirds and tenths do not add exactly.
DELAYS = st.sampled_from((0.0, 0.0, 0.1, 0.3, 1.0 / 3.0, 1.0, 2.5, 7.0))

_step = st.tuples(
    DELAYS,
    st.sampled_from(("start", "start", "violate", "restore", "end",
                     "evaluate", "past", "end_late", "restore_late")),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(CLASSES),
    st.sampled_from((0.0, 0.2, 1.0, 4.0, 30.0)),
)


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _drive(steps) -> None:
    clock = _Clock()
    engine = SloEngine(now=clock, specs=SPECS)
    oracle = ReferenceSloEngine(now=clock, specs=SPECS)
    for delay, action, sla_id, service_class, back in steps:
        clock.now += delay
        now = clock.now
        if action == "start":
            engine.session_started(sla_id, service_class, now)
            oracle.session_started(sla_id, service_class, now)
        elif action == "violate":
            engine.on_violation(sla_id, now)
            oracle.on_violation(sla_id, now)
        elif action == "restore":
            engine.on_restoration(sla_id, now)
            oracle.on_restoration(sla_id, now)
        elif action == "end":
            engine.session_ended(sla_id, now)
            oracle.session_ended(sla_id, now)
        elif action == "end_late":  # a feed reporting an earlier instant
            engine.session_ended(sla_id, now - back)
            oracle.session_ended(sla_id, now - back)
        elif action == "restore_late":
            engine.on_restoration(sla_id, now - back)
            oracle.on_restoration(sla_id, now - back)
        elif action == "evaluate":
            assert engine.snapshot() == oracle.snapshot()
            engine.evaluate(now)
        else:
            past = now - back
            assert engine.snapshot(past) == oracle.snapshot(past)
    assert engine.snapshot() == oracle.snapshot()


@settings(max_examples=300, deadline=None)
@given(st.lists(_step, max_size=60))
def test_snapshot_matches_the_oracle(steps):
    _drive(steps)


def test_long_feed_with_restarts_matches_the_oracle():
    # A fixed, longer schedule: many sessions, staggered ends, a
    # restart that moves an SLA between classes, and evaluations on
    # every step so the kept sums are extended and dropped repeatedly.
    steps = []
    for index in range(200):
        sla_id = 1 + index % 37
        cls = CLASSES[index % 3]
        steps.append((0.1 * (index % 7), "start", sla_id, cls, 0.0))
        steps.append((1.0 / 3.0, "violate", 1 + index % 11, cls, 0.0))
        steps.append((0.0, "evaluate", sla_id, cls, 0.0))
        steps.append((0.7, "restore", 1 + index % 13, cls, 0.0))
        steps.append((0.2, "end", 1 + (index * 7) % 37, cls, 0.0))
        steps.append((0.0, "past", sla_id, cls, 4.0))
    _drive(steps)
