"""One cold start of a workload in a fresh interpreter (its set-up cost).

Usage: ``python3 perfbench/coldstart.py WORKLOAD WORKDIR``

The parent times the whole process: interpreter start, imports, and the
workload's ``cold_start`` (market build, oracle build and cache fill).
"""

from __future__ import annotations

import importlib
import os
import sys

sys.path[:0] = [
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), p)
    for p in ("src", "")
]


def main() -> int:
    workload, workdir = sys.argv[1], sys.argv[2]
    module = importlib.import_module("perfbench." + workload.replace("-", "_"))
    module.cold_start(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
