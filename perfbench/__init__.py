"""Seeded end-to-end benchmark of flagtor, with a traced per-layer run.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/README.md``.
"""
