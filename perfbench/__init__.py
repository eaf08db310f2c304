"""Benchmark harness for the bosegas package.

Run it from the repository root:

    python3 perfbench/run.py --workload aux_field --seed 1 --seconds 50 --trace 0

See perfbench/README.md for the workloads, the metrics and their predictions.
"""
