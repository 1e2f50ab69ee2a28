"""``repro federate`` as a test: every atlas scenario, one crash.

Each scenario is replayed across three domains at seed 7 with the
seed-drawn broker crashed at 30% of the horizon and rejoined at 60%.
The run must end with zero guaranteed-SLA violations in the surviving
domains, every rerouted admission explained by decision provenance
(the ``repro obs why`` join), and the federation invariants intact;
the CLI exits non-zero when any of the three fails. (Run-twice byte
determinism of the command lives in ``tests/test_cli_pins.py``.)
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import FederationError
from repro.federation import replay
from repro.federation.replay import (FederatedVerdict, federate,
                                     federated_verdict)
from repro.qos.classes import ServiceClass
from repro.workloads import get_scenario, scenario_names


@pytest.fixture(scope="module", params=scenario_names())
def federated(request):
    result, verdict = federate(request.param, domains=3, seed=7)
    return request.param, result, verdict


class TestAcceptance:
    def test_crash_and_rejoin_are_on_schedule(self, federated):
        name, result, _ = federated
        horizon = get_scenario(name).horizon
        crash = result.report["crash"]
        assert [(time, domain) for time, domain, _ in result.plane.crashes] \
            == [(round(0.3 * horizon, 6), crash["domain"])]
        assert result.plane.recoveries \
            == [(round(0.6 * horizon, 6), crash["domain"])]

    def test_zero_guaranteed_violations_in_surviving_domains(self,
                                                             federated):
        _, _, verdict = federated
        assert verdict.surviving_guaranteed_violations == 0

    def test_every_reroute_is_explained(self, federated):
        _, result, verdict = federated
        rerouted = [o for o in result.outcomes if o.rerouted]
        assert rerouted, "the crash must force rerouting"
        assert verdict.unexplained_reroutes == ()
        for outcome in rerouted:
            assert outcome.request.client in verdict.text

    def test_federation_invariants_hold(self, federated):
        _, _, verdict = federated
        assert verdict.problems == ()
        assert verdict.ok


class TestViolationCount:
    def test_a_guaranteed_violation_counts_only_in_a_surviving_domain(
            self):
        result, _ = federate("diurnal_day", domains=3, seed=7)
        crashed = result.report["crash"]["domain"]
        for name in result.plane.names:
            testbed = result.plane.domains[name].testbed
            sla = next(sla for sla in testbed.repository.all()
                       if sla.service_class is ServiceClass.GUARANTEED)
            testbed.decisions.decide("violation", "detected",
                                     sla_id=sla.sla_id)
        verdict = federated_verdict(result)
        assert verdict.surviving_guaranteed_violations \
            == len(result.plane.names) - 1
        assert not verdict.ok
        line = next(line for line in verdict.text.splitlines()
                    if line.startswith(f"{crashed} (crashed"))
        assert "guaranteed_violations=1" in line


class TestFederateCli:
    def test_exit_zero_and_report(self, capsys):
        assert main(["federate", "--domains", "3", "--crash", "7"]) == 0
        output = capsys.readouterr().out
        _, verdict = federate("diurnal_day", domains=3, seed=7)
        assert output == verdict.text
        assert output.startswith(
            "# repro federate — diurnal_day seed 7, 3 domains")
        assert "## verdict" in output
        assert "federation invariants: OK" in output
        assert "guaranteed violations in surviving domains: 0" in output

    def test_scenario_replaces_horizon(self, capsys):
        assert main(["federate", "--scenario", "rack_failure_cascade"]) == 0
        assert "rack_failure_cascade seed 7" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["federate", "--horizon", "120"])

    def test_no_domains_is_a_federation_error(self):
        with pytest.raises(FederationError, match="at least one domain"):
            main(["federate", "--domains", "0"])

    @pytest.mark.parametrize("failed", [
        {"surviving_guaranteed_violations": 1},
        {"unexplained_reroutes": ("tenant-1",)},
        {"problems": ("capacity not conserved",)},
    ], ids=["violation", "unexplained", "invariant"])
    def test_any_failed_check_exits_one(self, monkeypatch, capsys, failed):
        checks = {"problems": (), "surviving_guaranteed_violations": 0,
                  "unexplained_reroutes": ()}
        checks.update(failed)
        monkeypatch.setattr(replay, "federate",
                            lambda *args, **kwargs: (None, FederatedVerdict(
                                text="stub\n", **checks)))
        assert main(["federate", "--crash", "7"]) == 1
        assert capsys.readouterr().out == "stub\n"
