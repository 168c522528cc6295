"""Repository benchmark: four workloads timed end to end and per layer.

Run one workload with ``python3 bench/run.py --workload NAME`` (see
``bench/README.md``); ``BENCHMARK.json`` at the repository root
declares the workloads and every metric.
"""
