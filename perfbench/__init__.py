"""Layer-by-layer benchmark of the bargaining marketplace.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one pinned workload against the sources under ``src/`` and prints
one JSON result line last.  See ``perfbench/README.md`` for the
workloads, the metrics and the layer -> end-to-end metric map.
"""
