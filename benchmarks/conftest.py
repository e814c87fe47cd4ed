"""Shared benchmark fixtures: session-cached datasets and result recording.

Each benchmark regenerates one table/figure of the paper at laptop scale and
writes the paper-shaped rows/series to ``benchmarks/results/<name>.txt`` (and
stdout) so EXPERIMENTS.md can cite them.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import pytest

from repro.datasets.dblp import dblp_like
from repro.datasets.twitter import (
    twitter_mask,
    twitter_social_distancing,
    twitter_us_election,
)
from repro.datasets.yelp import yelp_like

RESULTS_DIR = Path(__file__).parent / "results"

#: Scaled-down defaults: the paper's graphs have 64K-3.2M nodes and k up to
#: 2000; we keep the same relative sweeps at n in the hundreds-to-thousands.
BENCH_SEED = 2023


@pytest.fixture(scope="session")
def yelp_ds():
    return yelp_like(n=600, r=6, rng=BENCH_SEED, horizon=10)


@pytest.fixture(scope="session")
def election_ds():
    return twitter_us_election(n=600, rng=BENCH_SEED, horizon=10)


@pytest.fixture(scope="session")
def mask_ds():
    return twitter_mask(n=600, rng=BENCH_SEED, horizon=10)


@pytest.fixture(scope="session")
def distancing_ds():
    return twitter_social_distancing(n=800, rng=BENCH_SEED, horizon=10)


@pytest.fixture(scope="session")
def sparse_distancing_ds():
    """Extra-sparse variant matching Table III's retweet-graph density
    (~1.3-1.9 edges/node), used by the sandwich-ratio experiment where
    small reachable sets keep UB tight."""
    from repro.datasets.twitter import _twitter_base
    import numpy as np

    return _twitter_base(
        "twitter-social-distancing-sparse",
        ("For Social Distancing", "Against Social Distancing"),
        np.array([0.42, 0.60]),
        800,
        10.0,
        2.5,
        20,
        BENCH_SEED,
        min_degree=1,
        exponent=2.6,
    )


@pytest.fixture(scope="session")
def dblp_ds():
    return dblp_like(n=1200, rng=BENCH_SEED, horizon=10)


#: Shared CI-smoke switch: tiny sizes, and counter JSON lands in the
#: ``.tiny`` files the perf-trajectory gate compares against
#: ``benchmarks/baselines/``.
BENCH_TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")


@pytest.fixture(scope="session")
def save_result():
    """Write a named result block to benchmarks/results/ and stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}")

    return write


@pytest.fixture(scope="session")
def save_bench_json():
    """Write deterministic counter metrics to ``BENCH_<name>[.tiny].json``.

    Metrics must be timer-free work counters (walk steps, column-steps,
    speedup ratios derived from them) so the same commit always produces
    the same file; ``scripts/check_bench_regression.py`` fails CI when a
    metric regresses more than 10% against the committed baseline in
    ``benchmarks/baselines/``.  Each metric is
    ``{"value": number, "higher_is_better": bool}``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, metrics: dict) -> None:
        suffix = ".tiny" if BENCH_TINY else ""
        payload = {"name": name, "tiny": BENCH_TINY, "metrics": metrics}
        path = RESULTS_DIR / f"BENCH_{name}{suffix}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\n===== BENCH_{name}{suffix}.json =====\n{path.read_text()}")

    return write


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def start_net_worker(connections: int = 1) -> tuple[str, threading.Thread]:
    """One loopback ``net-worker`` host in a thread serving ``connections``
    coordinators; returns its ``host:port`` and the thread."""
    from repro.core.engine_net import run_net_worker

    ready = threading.Event()
    address: list[str] = []

    def on_ready(host, port):
        address.append(f"{host}:{port}")
        ready.set()

    thread = threading.Thread(
        target=run_net_worker,
        kwargs=dict(port=0, connections=connections, on_ready=on_ready),
        daemon=True,
    )
    thread.start()
    assert ready.wait(30), "net worker never became ready"
    return address[0], thread
