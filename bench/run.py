#!/usr/bin/env python3
"""Benchmark entry point; see harness.py. Run from the repository root:

    python3 bench/run.py --workload paper_train --seed 1 --seconds 45 --trace 0
"""

import sys

from harness import main

if __name__ == "__main__":
    sys.exit(main())
