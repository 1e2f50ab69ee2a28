"""``python -m benchmarks.ledger`` — the same program as ``run.py``."""

import sys

from .run import main

sys.exit(main())
