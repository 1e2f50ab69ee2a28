"""The CLI reports, pinned across commits.

:func:`test_report_is_byte_identical_across_runs` proves that two runs
of the *same* code print the same bytes. The digests prove more: that
the code prints the bytes it printed when they were recorded. Each
command runs in a fresh interpreter (the process-global message, record
and span counters start where a user's run starts them) and the sha256
of its stdout is compared with the golden value. A mismatch means a
report moved; it is reviewed and re-pinned deliberately, never
absorbed.

These are CPython 3.11 pins. Several reports print float sums, and
CPython 3.12 changed builtin ``sum`` over floats to compensated
summation, so another interpreter could render a different last digit
for the same seed. :func:`test_pins_hold_under_the_312_sum` keeps that
from happening unseen: it runs every report with the 3.12 ``sum``
swapped in (``tests/sum312/sitecustomize.py``) and asks for the same
digests.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
#: A ``sitecustomize`` that installs CPython 3.12's builtin ``sum``.
SUM312 = REPO / "tests" / "sum312"

#: ``repro`` arguments -> sha256 of stdout. Golden values, reviewed.
REPORT_SHA256 = {
    "quickstart":
        "33ab76983072053baa28ea62549515356ee5be8b98c343d1620bc5a6fdec6f2a",
    "quickstart --telemetry":
        "01a8719dfb3678c25c448d11502073070e990781faf9c2600a2b3b06ad210d48",
    "quickstart --chaos 7":
        "ff0e572a383540db91ab12b19de1d7eb3155113108adb266fb186aadcd95f87b",
    "quickstart --crash 7":
        "a71cb1c7553497fffe6f320d6b6ca5dcb1da3641997be6722fb24b8d6225a8dc",
    "telemetry --chaos 3":
        "a877cfa6f937f096b8102e8f45a38ee50c3e7ef39dae4edd675a85449976ebf7",
    "telemetry --seed 5":
        "ec5c4dea1376defdd211b53e502f607c0f221a1326169dad596d4dd8af505763",
    "federate --domains 3 --crash 7":
        "423e8ed946ffbaa13a0799406dd047a38fdfd0a54bdf017af645b9c42b609e76",
    "example56":
        "6af1a9a58257c5016cc37e892fd15b4f80314bc7ff87ae3077924fc30626596f",
    "sweep":
        "15a8b7df45fe0dfe77b1ae54d0a823b31e57fba714a4162fb2943e83db083832",
    "reserve":
        "e0c31bcd7364f63c9037b826b273c68fe8756be061c1c3b889a82a85e58d6676",
    "diagram":
        "5486ddcef86ecf38e9a53de5a4d8146f9d46f1f008f556b75f0627401b06f223",
    "obs why all":
        "921be6a3b69b9f30d92b0df2ae6d51c5288b32280ecf3f47871080b4d5f76a3f",
}


#: The digests hold on this interpreter only.
PINNED = ((sys.implementation.name, sys.version_info[:2])
          == ("cpython", (3, 11)))


def _run(command: str, *, cwd: Path = REPO, path: str = str(SRC)
         ) -> "subprocess.CompletedProcess[bytes]":
    return subprocess.run(
        [sys.executable, "-m", "repro", *command.split()],
        cwd=cwd, env={"PYTHONPATH": path, "PATH": ""},
        capture_output=True, timeout=120)


def _report_sha256(command: str, path: str = str(SRC)) -> str:
    result = _run(command, path=path)
    assert result.returncode == 0, result.stderr.decode()
    return hashlib.sha256(result.stdout).hexdigest()


@pytest.mark.skipif(not PINNED, reason="the digests are CPython 3.11 pins")
def test_cli_reports_match_their_pins():
    digests = {command: _report_sha256(command)
               for command in REPORT_SHA256}
    moved = sorted(command for command in REPORT_SHA256
                   if digests[command] != REPORT_SHA256[command])
    assert not moved, f"reports moved: {moved}"


@pytest.mark.skipif(not PINNED, reason="the digests are CPython 3.11 pins")
def test_pins_hold_under_the_312_sum():
    path = os.pathsep.join((str(SRC), str(SUM312)))
    swapped = subprocess.run(
        [sys.executable, "-c", "print(repr(sum([0.1] * 10)))"],
        env={"PYTHONPATH": path, "PATH": ""}, capture_output=True,
        timeout=60)
    assert swapped.stdout == b"1.0\n", "the 3.12 sum is not installed"
    moved = sorted(command for command in REPORT_SHA256
                   if _report_sha256(command, path)
                   != REPORT_SHA256[command])
    assert not moved, f"reports moved under the 3.12 sum: {moved}"


#: Reports whose every id, stamp and counter is a function of the seed
#: alone: two fresh interpreters must print the same bytes, on any
#: interpreter (the digests above add "the same bytes as recorded" on
#: CPython 3.11 only).
DETERMINISTIC = ("quickstart --telemetry", "quickstart --crash 7",
                 "obs why all", "federate --domains 3 --crash 7")


@pytest.mark.parametrize("command", DETERMINISTIC)
def test_report_is_byte_identical_across_runs(command):
    first, second = _run(command), _run(command)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout, f"{command!r} is not deterministic"


def test_quickstart_runs_outside_the_source_tree(tmp_path):
    # An installed package has no ``examples/`` beside it: the episode
    # must come from the package itself.
    shutil.copytree(SRC / "repro", tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = _run("quickstart", cwd=tmp_path, path=str(tmp_path))
    assert result.returncode == 0, result.stderr.decode()
    if PINNED:
        assert hashlib.sha256(result.stdout).hexdigest() \
            == REPORT_SHA256["quickstart"]
