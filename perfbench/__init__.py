"""Seeded end-to-end benchmark of the ccsynth command line.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
