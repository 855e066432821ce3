"""The repository benchmark: four workloads, end-to-end metrics, and a
per-layer ledger timed from outside the program.

``BENCHMARK.json`` at the checkout root names the workloads and metrics;
``README.md`` in this directory explains them.
"""
