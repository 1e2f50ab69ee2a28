"""The layer ledger: the end-to-end numbers and their per-layer split.

See ``README.md`` in this directory; ``BENCHMARK.json`` at the repo
root names the command, the workloads and every metric.
"""
