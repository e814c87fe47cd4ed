"""Walk-store benchmark: shared persistent walks vs regenerate-per-round.

Part 1 — greedy walk reuse.  A ``k``-round exhaustive greedy on
walk-estimated scores run twice: once through an ``rw-store`` engine whose
:class:`~repro.core.walk_store.WalkStore` generates the per-node pool
*once* and serves every round by post-generation truncation of a
copy-on-write view, and once as a regenerate-per-round baseline that draws
a fresh (but identically seeded) pool before every round — the behaviour
of a storeless estimator that cannot keep walks across calls.  Both paths
must select byte-identical seeds (same seeded walks ⇒ same estimates);
the win is measured with the deterministic
:class:`~repro.core.walk_store.StoreStats` generation counters (reverse
walk steps actually sampled), immune to timer noise, and must be ≥ 3x at
``k = 16`` (it is ~``k``x by construction: one generation instead of one
per round).

Part 2 — sweep reuse.  An RS budget sweep (``sketch_select`` at several
``k``) with one shared store vs a private store per budget, the θ ladder
of each call extending the same uniform pool.  Counter-based as well;
recorded for the results archive and the perf-trajectory JSON.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_walk_store.py``;
set ``REPRO_BENCH_TINY=1`` for the CI smoke variant (small graph, k=4 —
the ≥ 3x assertion and the JSON counters still run).
"""

import numpy as np

from benchmarks.conftest import BENCH_SEED, BENCH_TINY, run_once
from repro.core.engine import make_engine
from repro.core.greedy import greedy_engine
from repro.core.sketch import sketch_select
from repro.core.walk_store import WalkStore
from repro.datasets.twitter import _twitter_base
from repro.eval.reporting import format_series
from repro.utils.timing import Timer
from repro.voting.scores import CumulativeScore, PluralityScore

TINY = BENCH_TINY
N = 200 if TINY else 800
K = 4 if TINY else 16
WALKS_PER_NODE = 16 if TINY else 32
HORIZON = 20
SWEEP_KS = [2, 4] if TINY else [2, 4, 8, 16]
SWEEP_THETA_CAP = 2_000 if TINY else 8_000
#: Acceptance floor: generating once must beat regenerating per round by
#: at least this factor across the k-round greedy (issue criterion).
MIN_GENERATION_REDUCTION = 3.0


def _sparse_problem(n: int, score):
    dataset = _twitter_base(
        "twitter-social-distancing-sparse",
        ("For Social Distancing", "Against Social Distancing"),
        np.array([0.42, 0.60]),
        n,
        10.0,
        2.5,
        HORIZON,
        BENCH_SEED,
        min_degree=1,
        exponent=2.6,
    )
    problem = dataset.problem(score)
    problem.others_by_user()  # shared input, warmed outside the timers
    return problem


def _store_engine(problem, store=None):
    return make_engine(
        "rw-store",
        problem,
        rng=BENCH_SEED,
        store=store,
        walks_per_node=WALKS_PER_NODE,
        epsilon=None,
    )


def _regenerate_per_round_greedy(problem, k: int):
    """Storeless baseline: a fresh identically-seeded pool every round.

    Each round regenerates the walk collection, replays the committed
    prefix by truncation, and scans all remaining candidates — exactly
    what a one-shot estimator without a persistent store must do.
    Returns ``(seeds, total_generation_steps)``.
    """
    selected: list[int] = []
    remaining = np.arange(problem.n)
    steps = 0
    for _ in range(k):
        store = WalkStore(problem.state, problem.horizon, seed=BENCH_SEED)
        engine = _store_engine(problem, store=store)
        for seed in selected:  # replay the committed prefix
            engine.walks.add_seed(seed)
        gains = engine.optimizer.marginal_gains()[remaining]
        idx = int(np.argmax(gains))
        selected.append(int(remaining[idx]))
        remaining = np.delete(remaining, idx)
        steps += store.stats.generation_work()
    return selected, steps


def _greedy_rounds() -> dict[str, float]:
    problem = _sparse_problem(N, PluralityScore())
    shared = WalkStore(problem.state, problem.horizon, seed=BENCH_SEED)
    with Timer() as store_timer:
        engine = _store_engine(problem, store=shared)
        result = greedy_engine(engine, K, lazy=False)
    store_steps = shared.stats.generation_work()
    with Timer() as regen_timer:
        regen_seeds, regen_steps = _regenerate_per_round_greedy(problem, K)
    assert result.seeds.tolist() == regen_seeds, "selection diverged"
    return {
        "store_steps": float(store_steps),
        "regen_steps": float(regen_steps),
        "reduction_x": regen_steps / max(store_steps, 1),
        "store_s": store_timer.elapsed,
        "regen_s": regen_timer.elapsed,
        "index_builds": float(shared.stats.index_builds),
    }


def _sweep_rounds() -> dict[str, float]:
    problem = _sparse_problem(N, CumulativeScore())
    shared = WalkStore(problem.state, problem.horizon, seed=BENCH_SEED)
    for k in SWEEP_KS:
        sketch_select(
            problem,
            k,
            epsilon=0.3,
            theta_cap=SWEEP_THETA_CAP,
            rng=BENCH_SEED,
            store=shared,
        )
    shared_steps = shared.stats.generation_work()
    private_steps = 0
    for k in SWEEP_KS:
        private = WalkStore(problem.state, problem.horizon, seed=BENCH_SEED)
        sketch_select(
            problem,
            k,
            epsilon=0.3,
            theta_cap=SWEEP_THETA_CAP,
            rng=BENCH_SEED,
            store=private,
        )
        private_steps += private.stats.generation_work()
    return {
        "sweep_shared_steps": float(shared_steps),
        "sweep_private_steps": float(private_steps),
        "sweep_reduction_x": private_steps / max(shared_steps, 1),
    }


def test_walk_store_generation_work_reduction(
    benchmark, save_result, save_bench_json
):
    rows = run_once(benchmark, lambda: {**_greedy_rounds(), **_sweep_rounds()})
    series = {
        "store walk-steps": [rows["store_steps"]],
        "regenerate walk-steps": [rows["regen_steps"]],
        "generation reduction (x)": [rows["reduction_x"]],
        "store wall (s)": [rows["store_s"]],
        "regenerate wall (s)": [rows["regen_s"]],
        "sweep shared steps": [rows["sweep_shared_steps"]],
        "sweep private steps": [rows["sweep_private_steps"]],
        "sweep reduction (x)": [rows["sweep_reduction_x"]],
    }
    if not TINY:  # don't let the CI smoke run clobber the full-size archive
        save_result(
            "walk_store",
            "rw-store greedy (plurality, k=%d, λ=%d/node) and RS sweep "
            "(cumulative, k in %s), sparse retweet graph, t=%d:\n%s"
            % (
                K,
                WALKS_PER_NODE,
                SWEEP_KS,
                HORIZON,
                format_series("n", [N], series),
            ),
        )
    save_bench_json(
        "walk_store",
        {
            "generation_reduction_x": {
                "value": rows["reduction_x"],
                "higher_is_better": True,
            },
            "store_walk_steps": {
                "value": rows["store_steps"],
                "higher_is_better": False,
            },
            "sweep_reduction_x": {
                "value": rows["sweep_reduction_x"],
                "higher_is_better": True,
            },
        },
    )
    assert rows["reduction_x"] >= MIN_GENERATION_REDUCTION, (
        f"walk-store generation reduction only {rows['reduction_x']:.2f}x "
        f"across a k={K} greedy (floor {MIN_GENERATION_REDUCTION}x)"
    )
    assert rows["sweep_reduction_x"] > 1.0
