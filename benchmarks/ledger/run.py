"""Entry point of the layer ledger.

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
--trace 0|1`` is the form ``BENCHMARK.json`` names; ``PYTHONPATH=src
python -m benchmarks.ledger`` is the same program. Without
``--workload`` it runs every workload, each in a fresh interpreter.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    here = str(Path(__file__).resolve().parent)
    # Run as a script, this directory leads sys.path and its module
    # names (trace, ...) would shadow the standard library's.
    sys.path[:] = [entry for entry in sys.path
                   if entry and str(Path(entry).resolve()) != here]
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.ledger import cli
    return cli.main(argv, started=_STARTED)


if __name__ == "__main__":
    sys.exit(main())
