"""CLI contract: exit codes, formats, baseline flags, fixture tree.

The fixture tree written here contains exactly one violation per
shipped rule; the analyzer must exit nonzero on it and name every
rule id in the report (the acceptance criterion for the engine).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import all_rules
from repro.analysis.cli import main

#: One minimal violation per rule id.
VIOLATIONS = {
    "QLNT101": ("clock.py", "import time\n\nSTAMP = time.time()\n"),
    "QLNT102": ("compare.py",
                "def same(start, end):\n    return start == end\n"),
    "QLNT103": ("quantity.py", "LIMIT = '64MB'\n"),
    "QLNT104": ("swallow.py",
                "def f():\n    try:\n        work()\n"
                "    except Exception:\n        pass\n"),
    "QLNT105": ("foreign.py",
                "def f():\n    raise ValueError('nope')\n"),
    "QLNT106": ("pkg/__init__.py", "CONSTANT = 1\n"),
    "QLNT107": ("machine.py",
                "class Reservation:\n"
                "    def commit(self):\n"
                "        self.state = ReservationState.BOUND\n"),
    "QLNT108": ("defaults.py", "def f(x=[]):\n    return x\n"),
    "QLNT109": ("ordering.py",
                "RESULT = [x for x in {'a', 'b'}]\n"),
    "QLNT110": ("unused.py", "import itertools\n\nVALUE = 1\n"),
    "QLNT111": ("printer.py", "def f():\n    print('debug')\n"),
    "QLNT112": ("repro/core/client.py",
                "def f(bus, envelope):\n    return bus.request(envelope)\n"),
    "QLNT113": ("repro/core/stats_counter.py",
                "class Cache:\n"
                "    def hit(self):\n"
                "        self.stale_hits += 1\n"),
    "QLNT114": ("repro/core/leg_swap.py",
                "class Helper:\n"
                "    def tidy(self, composite, handle):\n"
                "        composite.compute_handle = handle\n"),
    "QLNT117": ("repro/federation/raw_send.py",
                "def f(bus, envelope):\n"
                "    return bus.send_async(envelope)\n"),
    "QLNT118": ("repro/core/side_channel.py",
                "class Component:\n"
                "    def emit(self):\n"
                "        if self.journal is not None:\n"
                "            self.journal.append('confirm')\n"),
}


@pytest.fixture
def fixture_tree(tmp_path):
    """A tree with one violation per shipped rule."""
    for _rule, (name, source) in sorted(VIOLATIONS.items()):
        target = tmp_path / "tree" / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path / "tree"


@pytest.fixture
def clean_tree(tmp_path):
    target = tmp_path / "clean" / "module.py"
    target.parent.mkdir(parents=True)
    target.write_text("def double(x):\n    return 2 * x\n")
    return tmp_path / "clean"


def test_fixture_tree_fails_with_every_rule(fixture_tree, capsys):
    assert main([str(fixture_tree), "--no-baseline"]) == 1
    output = capsys.readouterr().out
    for rule_id in VIOLATIONS:
        assert rule_id in output, rule_id


def test_fixture_tree_fails_via_python_dash_m(fixture_tree):
    """The documented invocation: ``python -m repro.analysis``."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(fixture_tree),
         "--no-baseline"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 1
    for rule_id in VIOLATIONS:
        assert rule_id in proc.stdout, rule_id


def test_clean_tree_exits_zero(clean_tree, capsys):
    assert main([str(clean_tree), "--no-baseline"]) == 0
    assert "0 new finding(s)" in capsys.readouterr().out


def test_each_violation_trips_only_expected_rules(tmp_path):
    """Each bad fixture must trip its own rule — and the good/clean
    fixtures never produce spurious extra rule ids."""
    from repro.analysis import analyze_paths
    for rule_id, (name, source) in sorted(VIOLATIONS.items()):
        target = tmp_path / rule_id / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        result = analyze_paths([tmp_path / rule_id], root=tmp_path)
        assert rule_id in {f.rule_id for f in result.new_findings}, rule_id


def test_json_format(fixture_tree, capsys):
    assert main([str(fixture_tree), "--no-baseline",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    reported = {f["rule"] for f in payload["findings"]}
    assert set(VIOLATIONS) <= reported


def test_write_baseline_then_clean(fixture_tree, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main([str(fixture_tree), "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    assert baseline.exists()
    assert main([str(fixture_tree), "--baseline", str(baseline)]) == 0
    assert main([str(fixture_tree), "--no-baseline"]) == 1
    capsys.readouterr()


def test_warning_only_tree_needs_strict(tmp_path, capsys):
    """QLNT103 is the advisory tier: nonzero only under --strict."""
    target = tmp_path / "warn" / "quantity.py"
    target.parent.mkdir(parents=True)
    target.write_text("LIMIT = '64MB'\n")
    assert main([str(target.parent), "--no-baseline"]) == 0
    assert main([str(target.parent), "--no-baseline", "--strict"]) == 1
    capsys.readouterr()


def test_stale_baseline_fails_only_under_strict(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text("def f():\n    print('x')\n")
    baseline = tmp_path / "baseline.json"
    assert main([str(bad), "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    bad.write_text("def f():\n    return 1\n")
    assert main([str(bad), "--baseline", str(baseline)]) == 0
    assert main([str(bad), "--baseline", str(baseline), "--strict"]) == 1
    capsys.readouterr()


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    output = capsys.readouterr().out
    for rule in all_rules():
        assert rule.rule_id in output


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "missing"), "--no-baseline"]) == 2
    assert "error" in capsys.readouterr().err


def test_syntax_error_exits_two(tmp_path, capsys):
    (tmp_path / "broken.py").write_text("def f(:\n")
    assert main([str(tmp_path), "--no-baseline"]) == 2
    assert "PARSE" in capsys.readouterr().out
