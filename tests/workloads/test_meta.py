"""Meta-test: the atlas registry cannot outgrow its coverage.

Adding a scenario to the atlas without regression coverage or an
EXPERIMENTS.md row must fail CI — this module iterates the registry
and checks each obligation, so the failure message names exactly what
the new scenario still owes.
"""

import pathlib

from repro.workloads import FAMILIES, scenarios

from .test_atlas_regression import REGRESSION_PROFILES

REPO = pathlib.Path(__file__).resolve().parents[2]
NAMES = [spec.name for spec in scenarios()]


def test_every_scenario_has_a_regression_profile():
    missing = [name for name in NAMES
               if name not in REGRESSION_PROFILES]
    assert not missing, (
        f"scenario(s) registered without a pinned regression profile "
        f"in test_atlas_regression.REGRESSION_PROFILES: {missing}")


def test_no_orphan_regression_profiles():
    orphans = [name for name in REGRESSION_PROFILES
               if name not in NAMES]
    assert not orphans, (
        f"regression profiles pinned for unregistered scenario(s): "
        f"{orphans}")


def test_every_family_is_registered():
    covered = {spec.family for spec in scenarios()}
    missing = [family for family in FAMILIES if family not in covered]
    assert not missing, f"family(ies) with no scenario: {missing}"


def test_every_scenario_has_an_experiments_row():
    text = (REPO / "EXPERIMENTS.md").read_text()
    missing = [name for name in NAMES if name not in text]
    assert not missing, (
        f"scenario(s) missing from the EXPERIMENTS.md atlas section: "
        f"{missing}")
