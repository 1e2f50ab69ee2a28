"""The RSL text GARA receives, pinned across commits.

The CLI pins (``tests/test_cli_pins.py``) never print a reservation's
RSL, so a renderer change that still parses to the same values would
pass them unnoticed. This test replays the atlas's ``diurnal_day`` at
seed 2003 and pins the sha256 of every ``Reservation.rsl`` its GARA
gatekeepers were handed, in creation order. A mismatch means the bytes
on the Reservation System → GARA leg moved; it is reviewed and
re-pinned deliberately, never absorbed.
"""

from __future__ import annotations

import hashlib

from repro.workloads import replay_scenario

#: Golden values: reservations created, and the sha256 of their RSL
#: strings joined by newlines in creation order.
RESERVATIONS = 45
RSL_SHA256 = "84d67e38f74ff920d3b1ce094653e12a04713517a31105bf57949e4ac8bfed9e"


def test_reservation_rsl_matches_its_pin():
    testbed = replay_scenario("diurnal_day", seed=2003).testbed
    # The single-domain testbed has one gatekeeper, which keeps every
    # reservation it created (cancelled and expired ones too) by handle.
    gara = testbed.compute_rm.gara
    rsl = [reservation.rsl for reservation in gara._reservations.values()]
    assert len(rsl) == RESERVATIONS
    assert hashlib.sha256("\n".join(rsl).encode()).hexdigest() == RSL_SHA256
