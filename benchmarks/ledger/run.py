#!/usr/bin/env python3
"""Entry point of the SPATE performance ledger.

    python3 benchmarks/ledger/run.py                       # the suite: 5 workloads, untraced + traced
    python3 benchmarks/ledger/run.py --repeat 5 --out A.json
    python3 benchmarks/ledger/run.py compare OLD.json NEW.json
    python3 benchmarks/ledger/run.py --workload query_cold --seed 7 --seconds 15 --trace 0

The last form is the driver contract of ``BENCHMARK.json``: its last
line of output is one JSON object.  See README.md beside this file.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(
            f"ledger: no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
            "is missing (run from a checkout of the repository)\n"
        )
        sys.exit(2)
    # Import ``ledger`` as a package (its trace.py must not shadow the
    # stdlib module of that name) and ``repro`` from the source tree.
    sys.path[0:1] = [os.path.dirname(HERE), os.path.join(ROOT, "src")]
    from ledger.cli import main

    sys.exit(main())
