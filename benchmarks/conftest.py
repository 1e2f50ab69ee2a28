"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables/figures (see
DESIGN.md's experiment index). The regenerated artifact is printed
through :func:`report` so that ``pytest benchmarks/ --benchmark-only -s``
shows the artifacts alongside pytest-benchmark's timing table.
"""

from __future__ import annotations

import sys

import pytest


def report(title: str, body: str) -> None:
    """Print a regenerated artifact block (visible with ``-s``)."""
    bar = "=" * 72
    sys.stdout.write(f"\n{bar}\n{title}\n{bar}\n{body}\n")


@pytest.fixture
def fresh_testbed():
    """A fresh single-domain testbed per benchmark round."""
    from repro.core.testbed import build_testbed
    return build_testbed()
