#!/usr/bin/env python
"""Quickstart: one QoS session end to end.

Builds the paper's Figure 5 testbed (26 grid nodes partitioned
Cg=15 / Ca=6 / Cb=5), submits a guaranteed service request with a
network demand, accepts the SLA offer, runs an explicit SLA
conformance test (the Table 3 reply), and prints the broker activity
log — the reproduction of the Figure 6 screenshot. The walkthrough
itself is :mod:`repro.experiments.quickstart`, the same episode
``python -m repro quickstart`` prints.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.experiments.quickstart import run_quickstart


def main() -> None:
    print(run_quickstart())


if __name__ == "__main__":
    main()
