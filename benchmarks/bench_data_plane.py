"""Zero-copy data plane benchmark: shm fan-out bytes + warm walk stores.

Part 1 — dm-mp serialization tax.  One warm-started exhaustive greedy
round (all ``n`` candidate extensions through a selection session, one
commit) through :class:`~repro.core.engine_mp.MultiprocessDMEngine` at 2
workers, over the pickle-per-message pipe transport and over the
shared-memory transport (``dm-mp:2:shm``).  Gains must match to the 1e-10
parity contract with the same arg-max seed.  The metric is the exact
:attr:`~repro.core.engine.EngineStats.ipc_bytes` counter — the engine
frames its own messages, so the number is deterministic, not sampled —
and the shm transport must cut the per-round pipe traffic by >= 5x at
n=2000 (measured: the shm round's bytes no longer scale with ``n``, so
the observed reduction is far larger).  Wall times are recorded for
honesty; on this repo's single-core CI box IPC buys nothing either way.

Part 2 — warm walk-store re-open.  A ``k``-round rw-store greedy run cold
(fresh ``--store-dir``: every block generated and persisted) and then
again through a *re-opened* store over the same directory — the restart /
second-process case the persisted blocks exist for.  The warm run must
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
from repro.core.engine import BatchedDMEngine, make_engine
from repro.core.engine_mp import MultiprocessDMEngine
from repro.core.greedy import greedy_engine
from repro.core.walk_store import WalkStore
from repro.datasets.twitter import twitter_social_distancing
from repro.eval.reporting import format_series
from repro.utils.timing import Timer
from repro.voting.scores import PluralityScore

TINY = BENCH_TINY
IPC_SIZE = 200 if TINY else 2000
WORKERS = 2
HORIZON = 20
STORE_SIZE = 150 if TINY else 600
STORE_K = 3 if TINY else 8
WALKS_PER_NODE = 8 if TINY else 16
#: Acceptance floor: the shm transport must cut per-round pipe bytes at
#: least this much (issue criterion; headroom is order-of-magnitude).
MIN_IPC_REDUCTION = 5.0


def _dense_problem(n: int):
    dataset = twitter_social_distancing(n=n, rng=BENCH_SEED, horizon=HORIZON)
    problem = dataset.problem(PluralityScore())
    problem.others_by_user()  # shared inputs, warmed outside the timers
    problem.target_trajectory()
    return problem


# ----------------------------------------------------------------------
# Part 1: per-round pipe traffic, pipe vs shm transport
# ----------------------------------------------------------------------
def _one_transport_round(problem, transport: str) -> dict[str, float]:
    """One session greedy round + commit; returns its exact pipe bytes."""
    n = problem.n
    candidates = np.arange(n)
    with MultiprocessDMEngine(
        problem, workers=WORKERS, min_fanout=1, transport=transport
    ) as engine:
        engine.ping()  # pool start + problem shipping, outside the round
        session = engine.open_session()
        before = engine.stats.ipc_bytes
        with Timer() as timer:
            gains = session.marginal_gains(candidates)
            session.commit(int(np.argmax(gains)))
        return {
            "gains": gains,
            "round_bytes": float(engine.stats.ipc_bytes - before),
            "round_s": timer.elapsed,
        }


def _ipc_rounds(n: int) -> dict[str, float]:
    problem = _dense_problem(n)
    reference = BatchedDMEngine(problem)
    ref_session = reference.open_session()
    expected = ref_session.marginal_gains(np.arange(n))
    pipe = _one_transport_round(problem, "pipe")
    shm = _one_transport_round(problem, "shm")
    for row in (pipe, shm):
        np.testing.assert_allclose(row["gains"], expected, atol=1e-10, rtol=0)
        assert int(np.argmax(row["gains"])) == int(np.argmax(expected))
    return {
        "pipe_bytes": pipe["round_bytes"],
        "shm_bytes": shm["round_bytes"],
        "ipc_reduction_x": pipe["round_bytes"] / max(shm["round_bytes"], 1.0),
        "pipe_s": pipe["round_s"],
        "shm_s": shm["round_s"],
    }


# ----------------------------------------------------------------------
# Part 2: cold vs warm persisted walk store
# ----------------------------------------------------------------------
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


def test_data_plane_ipc_and_warm_store(
    benchmark, tmp_path, save_result, save_bench_json
):
    rows = run_once(
        benchmark,
        lambda: {
            **_ipc_rounds(IPC_SIZE),
            **_warm_store_rounds(STORE_SIZE, tmp_path / "walk-store"),
        },
    )
    series = {
        "pipe bytes/round": [rows["pipe_bytes"]],
        "shm bytes/round": [rows["shm_bytes"]],
        "ipc reduction (x)": [rows["ipc_reduction_x"]],
        "pipe round (s)": [rows["pipe_s"]],
        "shm round (s)": [rows["shm_s"]],
        "cold blocks generated": [rows["cold_blocks"]],
        "warm blocks regenerated": [rows["warm_blocks_regenerated"]],
        "warm blocks mmap-loaded": [rows["warm_blocks_loaded"]],
        "cold greedy (s)": [rows["cold_s"]],
        "warm greedy (s)": [rows["warm_s"]],
    }
    if not TINY:
        save_result(
            "data_plane",
            "dm-mp round ipc (plurality, n=%d, t=%d, %d workers) and warm "
            "mmap store re-open (rw-store greedy, n=%d, k=%d, λ=%d/node):\n%s"
            % (
                IPC_SIZE,
                HORIZON,
                WORKERS,
                STORE_SIZE,
                STORE_K,
                WALKS_PER_NODE,
                format_series("part", ["ipc/warm"], series),
            ),
        )
    save_bench_json(
        "data_plane",
        {
            "ipc_reduction_x": {
                "value": rows["ipc_reduction_x"],
                "higher_is_better": True,
            },
            "shm_bytes_per_round": {
                "value": rows["shm_bytes"],
                "higher_is_better": False,
            },
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
    assert rows["ipc_reduction_x"] >= MIN_IPC_REDUCTION, (
        f"shm transport only cut per-round ipc by "
        f"{rows['ipc_reduction_x']:.2f}x at n={IPC_SIZE} "
        f"(floor {MIN_IPC_REDUCTION}x)"
    )
    assert rows["warm_blocks_regenerated"] == 0, (
        f"warm store re-open regenerated "
        f"{rows['warm_blocks_regenerated']:.0f} blocks (must be 0)"
    )
    assert rows["warm_blocks_loaded"] >= rows["cold_blocks"]
