"""Smoke test: the whole benchmark at ``--tiny`` scale, untraced and traced.

Not collected by tier-1 (``bench_*`` files are opt-in); run with
``PYTHONPATH=src python -m pytest benchmarks/e2e/bench_e2e_smoke.py``
(about a minute on two cores).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--tiny", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric_correctly(trace):
    result = _run("--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    names = {m["name"] for m in CATALOG[kind]}
    workloads = {w["name"] for w in CATALOG["workloads"]}
    assert set(result["metrics"]) == {f"{w}/{m}" for w in workloads for m in names}
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_single_workload_line_matches_the_contract():
    result = _run("--workload", "select-sparse-celf", "--seed", "5")
    names = {m["name"] for m in CATALOG["end_to_end"]}
    assert set(result["metrics"]) == names
    values = [entry["value"] for entry in result["metrics"].values()]
    assert all(isinstance(value, float) for value in values)
