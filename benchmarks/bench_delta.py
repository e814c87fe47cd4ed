"""Incremental re-solve benchmark: delta-aware invalidation vs from-scratch.

One warm serving stack — problem caches, a committed
:class:`~repro.core.engine.BatchedDMSession`, a live ``dm-mp:tcp``
:class:`~repro.core.engine_mp.HostPool` over two loopback ``net-worker``
hosts and a persisted rw-store — absorbs ~1% edge churn on the
target graph (mixed weight updates, edge insertions and removals, plus an
opinion flip) through ``FJVoteProblem.apply_delta`` and the per-layer
``apply_delta`` forwards.  The from-scratch reference rebuilds every layer
cold over the *same* post-delta state: a fresh problem (all caches
recomputed), a fresh engine, and a cold walk store in a second directory.

Acceptance (the issue's floors, asserted here):

* ``problem.evolution_steps`` spent bringing caches current after the
  delta must be >= 5x below the from-scratch recompute (with ``r`` = 6
  per-candidate graphs and target-only churn the ratio is exactly ``r``).
* The delta path regenerates **zero** whole walk blocks
  (``StoreStats.blocks_generated`` stays flat; invalid walks are patched
  individually inside their blocks), so blocks-regenerated drops >= 5x
  versus the cold store.  The per-walk ratio (walks generated from
  scratch / walks patched) must also clear 5x.
* The tcp delta broadcast ships >= 5x fewer bytes than the initial full
  problem ship (only the churned columns and opinion values travel).
* Post-delta selections are byte-identical to the from-scratch reference
  on every engine: ``dm-batched`` and ``dm-mp:tcp`` (exact engines agree
  with each other), and ``rw-store:mmap`` (patched blocks are
  bitwise equal to cold-regenerated ones, so the stochastic greedy
  reproduces exactly).
* The pre-delta committed session survives via the sparse trajectory
  correction (``EngineStats.trajectories_patched`` >= 1) and its gains
  match a fresh session replaying the same commit.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_delta.py``.
Set ``REPRO_BENCH_TINY=1`` for the CI smoke variant: tiny sizes, same
assertions, counters land in ``BENCH_delta.tiny.json``.
"""

import pickle

import numpy as np

from benchmarks.conftest import BENCH_SEED, BENCH_TINY, run_once, start_net_worker
from repro.core.engine import BatchedDMEngine, make_engine
from repro.core.engine_mp import HostPool
from repro.core.greedy import greedy_engine
from repro.core.problem import FJVoteProblem
from repro.core.walk_store import WalkStore
from repro.datasets.yelp import yelp_like
from repro.eval.reporting import format_series
from repro.utils.timing import Timer
from repro.voting.scores import CumulativeScore

TINY = BENCH_TINY
N = 160 if TINY else 2000
HORIZON = 8 if TINY else 20
R = 6
K = 2 if TINY else 3
HOSTS = 2
WALKS_PER_NODE = 8
#: Fraction of the target graph's columns churned by the delta.
CHURN_FRACTION = 0.01
#: Acceptance floor: every reduction counter must clear this (issue
#: criterion; measured headroom is order-of-magnitude on most of them).
MIN_DELTA_REDUCTION = 5.0


def _build_problem() -> FJVoteProblem:
    dataset = yelp_like(
        n=N,
        r=R,
        per_candidate_weights=True,  # competitor caches must be churn-proof
        rng=BENCH_SEED,
        horizon=HORIZON,
    )
    return dataset.problem(CumulativeScore())


def _make_churn(problem: FJVoteProblem):
    """~1% of the target graph's columns churned, deterministically.

    A third of the touched columns get an existing in-edge reweighted
    (data-only surgery), a third a brand-new in-edge, a third an in-edge
    removed (both structural), plus one opinion flip on the target row.
    Columns are the highest out-degree nodes: a reverse walk lands on a
    node with probability proportional to its out-weight, so these are
    the columns stored walks actually cross and the store patch path has
    real work to do.
    """
    graph = problem.state.graph(problem.target)
    n = problem.n
    src, dst, weight = graph.edges()
    out_deg = np.bincount(src, minlength=n)
    in_deg = np.bincount(dst, minlength=n)
    count = max(3, round(CHURN_FRACTION * n))
    eligible = np.flatnonzero(in_deg >= 2)  # removals must not empty a column
    cols = eligible[np.argsort(out_deg[eligible])[::-1][:count]]
    added, removed = [], []
    for i, col in enumerate(sorted(int(c) for c in cols)):
        edges_in = np.flatnonzero(dst == col)
        first = int(edges_in[0])
        if i % 3 == 0:
            added.append((int(src[first]), col, float(weight[first]) * 1.5))
        elif i % 3 == 1:
            incoming = {int(s) for s in src[edges_in]}
            new_src = next(
                u for u in range(n) if u != col and u not in incoming
            )
            added.append((new_src, col, 0.5))
        else:
            removed.append((int(src[first]), col))
    opinions = [(problem.target, int(cols[0]), 0.9)]
    return added, removed, opinions


def _store_greedy(problem: FJVoteProblem, store: WalkStore):
    engine = make_engine(
        "rw-store",
        problem,
        store=store,
        walks_per_node=WALKS_PER_NODE,
        adaptive=False,
        epsilon=None,
    )
    return greedy_engine(engine, K, lazy=False)


def _delta_vs_scratch(store_dir_delta, store_dir_scratch) -> dict[str, float]:
    problem = _build_problem()
    problem.others_by_user()  # warm the shared caches pre-delta
    problem.target_trajectory()
    added, removed, opinions = _make_churn(problem)

    # Warm every serving layer before the churn arrives.
    dm_engine = BatchedDMEngine(problem)
    warm_session = dm_engine.open_session()
    probe = np.arange(min(problem.n, 48))
    warm_session.commit(int(np.argmax(warm_session.marginal_gains(probe))))
    committed_seed = warm_session.seeds[0]
    store = WalkStore(
        problem.state, problem.horizon, seed=BENCH_SEED,
        store_dir=store_dir_delta,
    )
    _store_greedy(problem, store)
    assert store.stats.blocks_generated > 0

    started = [start_net_worker() for _ in range(HOSTS)]
    host_pool = HostPool(problem, hosts=[a for a, _ in started], min_fanout=1)
    try:
        host_pool.ping()  # connect + the full problem ship
        # Each handshake ships the whole pickled problem to its host: the
        # cost a re-ship after every delta would pay.
        full_ship_bytes = float(
            HOSTS * len(pickle.dumps(problem, pickle.HIGHEST_PROTOCOL))
        )

        # --- the delta: problem surgery, then per-layer forwards -------
        evolution_before = problem.evolution_steps
        patched_before = dm_engine.stats.trajectories_patched
        blocks_before = store.stats.blocks_generated
        with Timer() as delta_timer:
            report = problem.apply_delta(
                edges_added=added,
                edges_removed=removed,
                opinions_changed=opinions,
            )
            problem.others_by_user()  # competitors untouched: no-op
            problem.target_trajectory()  # the one dirty trajectory
            delta_steps = float(problem.evolution_steps - evolution_before)
            dm_engine.apply_delta(report)
            ipc_before = host_pool.stats.ipc_bytes
            host_pool.apply_delta(report)
            delta_ship_bytes = float(host_pool.stats.ipc_bytes - ipc_before)
            store.apply_delta(report)
        delta_blocks = float(store.stats.blocks_generated - blocks_before)
        trajectories_patched = float(
            dm_engine.stats.trajectories_patched - patched_before
        )

        # --- post-delta selections on the warm stack -------------------
        delta_dm = greedy_engine(dm_engine, K, lazy=False)
        delta_tcp = greedy_engine(host_pool, K, lazy=False)
        assert host_pool.stats.hosts_lost == 0
        delta_store = _store_greedy(problem, store)
        delta_blocks = float(store.stats.blocks_generated - blocks_before)
    finally:
        host_pool.close()
    for _, thread in started:
        thread.join(30)

    # --- the from-scratch reference over the same post-delta state -----
    with Timer() as scratch_timer:
        scratch_problem = FJVoteProblem(
            problem.state, problem.target, problem.horizon, problem.score
        )
        scratch_problem.others_by_user()
        scratch_problem.target_trajectory()
    scratch_steps = float(scratch_problem.evolution_steps)
    scratch_engine = BatchedDMEngine(scratch_problem)
    scratch_dm = greedy_engine(scratch_engine, K, lazy=False)
    scratch_store_handle = WalkStore(
        problem.state, problem.horizon, seed=BENCH_SEED,
        store_dir=store_dir_scratch,
    )
    scratch_store = _store_greedy(scratch_problem, scratch_store_handle)
    scratch_blocks = float(scratch_store_handle.stats.blocks_generated)
    scratch_walks = float(scratch_store_handle.stats.walks_generated)

    # Byte-identical selections: every engine's delta path must reproduce
    # its from-scratch run exactly (the exact engines also agree with
    # each other, so one reference covers dm-batched and dm-mp:tcp).
    for name, result in (("dm-batched", delta_dm), ("dm-mp:tcp", delta_tcp)):
        assert result.seeds.tolist() == scratch_dm.seeds.tolist(), (
            f"{name} delta-path seeds diverged from the from-scratch run"
        )
        np.testing.assert_array_equal(result.gains, scratch_dm.gains)
    assert delta_store.seeds.tolist() == scratch_store.seeds.tolist(), (
        "rw-store:mmap delta-path seeds diverged from the cold store"
    )
    np.testing.assert_array_equal(delta_store.gains, scratch_store.gains)

    # The pre-delta committed session survived by trajectory patching and
    # matches a fresh session replaying the same commit.
    assert trajectories_patched >= 1
    reference_session = scratch_engine.open_session()
    reference_session.commit(committed_seed)
    np.testing.assert_allclose(
        warm_session.marginal_gains(probe),
        reference_session.marginal_gains(probe),
        atol=1e-8,
        rtol=0,
    )

    walks_patched = float(store.stats.walks_patched)
    return {
        "delta_steps": delta_steps,
        "scratch_steps": scratch_steps,
        "evolution_reduction_x": scratch_steps / max(delta_steps, 1.0),
        "delta_blocks": delta_blocks,
        "scratch_blocks": scratch_blocks,
        "block_reduction_x": scratch_blocks / max(delta_blocks, 1.0),
        "blocks_patched": float(store.stats.blocks_invalidated),
        "walks_patched": walks_patched,
        "scratch_walks": scratch_walks,
        "walk_reduction_x": scratch_walks / max(walks_patched, 1.0),
        "full_ship_bytes": full_ship_bytes,
        "delta_ship_bytes": delta_ship_bytes,
        "ship_reduction_x": full_ship_bytes / max(delta_ship_bytes, 1.0),
        "trajectories_patched": trajectories_patched,
        "delta_s": delta_timer.elapsed,
        "scratch_s": scratch_timer.elapsed,
    }


def test_delta_vs_from_scratch(benchmark, tmp_path, save_result, save_bench_json):
    rows = run_once(
        benchmark,
        lambda: _delta_vs_scratch(
            tmp_path / "delta-store", tmp_path / "scratch-store"
        ),
    )
    series = {
        "delta evolution steps": [rows["delta_steps"]],
        "scratch evolution steps": [rows["scratch_steps"]],
        "evolution reduction (x)": [rows["evolution_reduction_x"]],
        "delta blocks regenerated": [rows["delta_blocks"]],
        "scratch blocks generated": [rows["scratch_blocks"]],
        "blocks patched in place": [rows["blocks_patched"]],
        "walks patched": [rows["walks_patched"]],
        "walk reduction (x)": [rows["walk_reduction_x"]],
        "delta broadcast bytes": [rows["delta_ship_bytes"]],
        "full problem ship bytes": [rows["full_ship_bytes"]],
        "ship reduction (x)": [rows["ship_reduction_x"]],
        "delta refresh (s)": [rows["delta_s"]],
        "scratch refresh (s)": [rows["scratch_s"]],
    }
    if not TINY:
        save_result(
            "delta",
            "incremental re-solve under %.0f%% edge churn (yelp-like, n=%d, "
            "r=%d per-candidate graphs, t=%d, k=%d, λ=%d/node):\n%s"
            % (
                100 * CHURN_FRACTION,
                N,
                R,
                HORIZON,
                K,
                WALKS_PER_NODE,
                format_series("counter", ["delta"], series),
            ),
        )
    save_bench_json(
        "delta",
        {
            "evolution_reduction_x": {
                "value": rows["evolution_reduction_x"],
                "higher_is_better": True,
            },
            "delta_evolution_steps": {
                "value": rows["delta_steps"],
                "higher_is_better": False,
            },
            "block_reduction_x": {
                "value": rows["block_reduction_x"],
                "higher_is_better": True,
            },
            "delta_blocks_regenerated": {
                "value": rows["delta_blocks"],
                "higher_is_better": False,
            },
            "walk_reduction_x": {
                "value": rows["walk_reduction_x"],
                "higher_is_better": True,
            },
            "delta_ship_bytes": {
                "value": rows["delta_ship_bytes"],
                "higher_is_better": False,
            },
            "ship_reduction_x": {
                "value": rows["ship_reduction_x"],
                "higher_is_better": True,
            },
        },
    )
    floors = (
        ("evolution_reduction_x", "evolution work"),
        ("block_reduction_x", "walk blocks regenerated"),
        ("walk_reduction_x", "walks regenerated"),
        ("ship_reduction_x", "dm-mp tcp bytes shipped"),
    )
    for key, label in floors:
        assert rows[key] >= MIN_DELTA_REDUCTION, (
            f"delta path only cut {label} by {rows[key]:.2f}x at n={N} "
            f"(floor {MIN_DELTA_REDUCTION}x)"
        )
    assert rows["delta_blocks"] == 0, (
        f"delta path regenerated {rows['delta_blocks']:.0f} whole blocks "
        "(must patch walks in place)"
    )
    assert rows["walks_patched"] > 0, (
        "churn on the hottest columns invalidated no stored walks — the "
        "delta path was never exercised"
    )
