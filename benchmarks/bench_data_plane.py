"""Data plane benchmark: warm walk-store re-open.

A ``k``-round rw-store greedy run cold (fresh ``--store-dir``: every
block generated and persisted) and then again through a *re-opened* store
over the same directory — the restart / second-process case the
persisted blocks exist for.  The warm run must
regenerate **zero** blocks (``StoreStats.blocks_generated == 0``, every
block served by ``blocks_loaded`` loads: each file read once,
crc32-verified and served from those bytes) while selecting
byte-identical seeds.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_data_plane.py``.
Set ``REPRO_BENCH_TINY=1`` for the CI smoke variant: tiny sizes, same
assertions, counters land in ``BENCH_data_plane.tiny.json`` for the
perf-trajectory gate.
"""

import numpy as np

from benchmarks.conftest import BENCH_SEED, BENCH_TINY, run_once
from repro.core.engine import make_engine
from repro.core.greedy import greedy_engine
from repro.core.walk_store import WalkStore
from repro.datasets.twitter import twitter_social_distancing
from repro.eval.reporting import format_series
from repro.utils.timing import Timer
from repro.voting.scores import PluralityScore

TINY = BENCH_TINY
HORIZON = 20
STORE_SIZE = 150 if TINY else 600
STORE_K = 3 if TINY else 8
WALKS_PER_NODE = 8 if TINY else 16


def _store_greedy(problem, store: WalkStore):
    engine = make_engine(
        "rw-store",
        problem,
        store=store,
        walks_per_node=WALKS_PER_NODE,
        adaptive=False,
        epsilon=None,
    )
    return greedy_engine(engine, STORE_K, lazy=False)


def _warm_store_rounds(n: int, store_dir) -> dict[str, float]:
    dataset = twitter_social_distancing(n=n, rng=BENCH_SEED, horizon=HORIZON)
    problem = dataset.problem(PluralityScore())
    problem.others_by_user()
    cold_store = WalkStore(
        problem.state, problem.horizon, seed=BENCH_SEED, store_dir=store_dir
    )
    with Timer() as cold_timer:
        cold = _store_greedy(problem, cold_store)
    assert cold_store.stats.blocks_generated > 0
    # A re-opened store over the same directory: the restart case.
    warm_store = WalkStore(
        problem.state, problem.horizon, seed=BENCH_SEED, store_dir=store_dir
    )
    with Timer() as warm_timer:
        warm = _store_greedy(problem, warm_store)
    assert warm.seeds.tolist() == cold.seeds.tolist(), "warm selection diverged"
    np.testing.assert_array_equal(warm.gains, cold.gains)
    return {
        "cold_blocks": float(cold_store.stats.blocks_generated),
        "cold_walk_steps": float(cold_store.stats.walk_steps_generated),
        "warm_blocks_regenerated": float(warm_store.stats.blocks_generated),
        "warm_blocks_loaded": float(warm_store.stats.blocks_loaded),
        "cold_s": cold_timer.elapsed,
        "warm_s": warm_timer.elapsed,
    }


def test_data_plane_warm_store(benchmark, tmp_path, save_result, save_bench_json):
    rows = run_once(
        benchmark, lambda: _warm_store_rounds(STORE_SIZE, tmp_path / "walk-store")
    )
    series = {
        "cold blocks generated": [rows["cold_blocks"]],
        "warm blocks regenerated": [rows["warm_blocks_regenerated"]],
        "warm blocks mmap-loaded": [rows["warm_blocks_loaded"]],
        "cold greedy (s)": [rows["cold_s"]],
        "warm greedy (s)": [rows["warm_s"]],
    }
    if not TINY:
        save_result(
            "data_plane",
            "warm mmap store re-open (rw-store greedy, plurality, n=%d, "
            "t=%d, k=%d, λ=%d/node):\n%s"
            % (
                STORE_SIZE,
                HORIZON,
                STORE_K,
                WALKS_PER_NODE,
                format_series("part", ["warm"], series),
            ),
        )
    save_bench_json(
        "data_plane",
        {
            "warm_blocks_regenerated": {
                "value": rows["warm_blocks_regenerated"],
                "higher_is_better": False,
            },
            "cold_blocks_generated": {
                "value": rows["cold_blocks"],
                "higher_is_better": False,
            },
        },
    )
    assert rows["warm_blocks_regenerated"] == 0, (
        f"warm store re-open regenerated "
        f"{rows['warm_blocks_regenerated']:.0f} blocks (must be 0)"
    )
    assert rows["warm_blocks_loaded"] >= rows["cold_blocks"]
