"""End-to-end benchmark: four workloads with a traced per-layer breakdown.

Run ``python3 -m benchmarks.e2e --help`` from the repository root; the
README next to this file describes the workloads and metrics.
"""
