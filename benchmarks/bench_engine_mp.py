"""Engine benchmark: the multiprocess fan-out and the sparse phase.

Part 1 — dm-mp dense-phase scaling.  One exhaustive greedy round (all ``n``
single-seed extensions, plurality score) through
:class:`~repro.core.engine.BatchedDMEngine` and through
:class:`~repro.core.engine_mp.MultiprocessDMEngine` at 2 and 4 workers.
Gains must match to the 1e-10 parity contract (same arg-max seed).  The
scaling metric is deterministic, not a timer: the *critical path* of the
fanned-out dense phase is the largest per-worker ``dense_column_steps``
share (``engine.worker_stats``), and the speedup is the single-process
dense work divided by it.  This ratio is the wall-clock ceiling of the
pool; the wall times are recorded alongside (median of
``WALL_REPEATS``), not asserted against.  ``dm-batched`` itself evolves
a wide round's dense blocks on one thread per usable core, so its wall
is recorded twice: as built (threaded) and with its thread count forced
to 1, the single-core baseline.  The header names the core count and the
BLAS/OpenMP thread variables.

Part 2 — sparse phase vs dense-only.  Exhaustive session greedy on the
Table-III sparse retweet graph with the default engine (sparse phase with
the sort-free re-pin) vs ``densify_threshold=0.0`` (zero sparse steps:
every column dense from step 1).  Selections must be byte-identical and
gains equal to 1e-10; the sparse engine must actually take sparse steps.
Wall times and the sparse phase's speedup over dense-only are recorded to
``benchmarks/results/``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_engine_mp.py``.
Set ``REPRO_BENCH_TINY=1`` for the CI smoke variant: tiny size, 2 workers,
pool lifecycle + parity + sparse-phase assertions only.
"""

import os

import numpy as np

from benchmarks.conftest import BENCH_SEED, BENCH_TINY, run_once
from repro.core.engine import BatchedDMEngine, _usable_cores
from repro.core.engine_mp import MultiprocessDMEngine
from repro.core.greedy import greedy_engine
from repro.datasets.twitter import _twitter_base, twitter_social_distancing
from repro.eval.reporting import format_series
from repro.utils.timing import Timer
from repro.voting.scores import PluralityScore

TINY = BENCH_TINY
MP_SIZE = 200 if TINY else 2000
WORKER_COUNTS = [2] if TINY else [2, 4]
REPIN_SIZES = [200] if TINY else [500, 2000]
#: Session greedy rounds for the re-pin comparison; the sparse phase is
#: exercised every round (each round's deltas start from fresh seeds).
REPIN_K = 4 if TINY else 16
HORIZON = 20
#: Acceptance floor for the critical-path dense-phase speedup with two
#: workers at n >= 2000 (balanced contiguous chunks make it ~2x minus the
#: per-chunk densify-threshold drift).
MIN_DENSE_SPEEDUP_2W = 1.6
#: Timed repetitions per wall-clock cell (the median is recorded).
WALL_REPEATS = 1 if TINY else 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _dense_problem(n: int):
    dataset = twitter_social_distancing(n=n, rng=BENCH_SEED, horizon=HORIZON)
    problem = dataset.problem(PluralityScore())
    problem.others_by_user()  # shared inputs, warmed outside the timers
    problem.target_trajectory()
    return problem


def _sparse_problem(n: int):
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
    problem = dataset.problem(PluralityScore())
    problem.others_by_user()
    problem.target_trajectory()
    return problem


# ----------------------------------------------------------------------
# Part 1: multiprocess fan-out
# ----------------------------------------------------------------------
def _median_wall(fn) -> tuple[float, object]:
    """Median wall time of ``WALL_REPEATS`` calls, and the last result."""
    walls = []
    for _ in range(WALL_REPEATS):
        with Timer() as timer:
            result = fn()
        walls.append(timer.elapsed)
    return float(np.median(walls)), result


def _mp_rounds(n: int) -> list[dict[str, float]]:
    problem = _dense_problem(n)
    candidates = np.arange(n)
    serial = BatchedDMEngine(problem)
    serial._threads = 1
    serial_s, serial_gains = _median_wall(
        lambda: serial.marginal_gains((), candidates)
    )
    batched = BatchedDMEngine(problem)
    batched_s, reference = _median_wall(
        lambda: batched.marginal_gains((), candidates)
    )
    assert np.asarray(reference).tobytes() == np.asarray(serial_gains).tobytes()
    total_dense = batched.stats.dense_column_steps // WALL_REPEATS
    rows = []
    for workers in WORKER_COUNTS:
        with MultiprocessDMEngine(problem, workers=workers, min_fanout=1) as engine:
            engine.ping()  # start the pool outside the timed region
            mp_s, gains = _median_wall(
                lambda: engine.marginal_gains((), candidates)
            )
            critical = max(w.dense_column_steps for w in engine.worker_stats)
            critical //= WALL_REPEATS
        np.testing.assert_allclose(gains, reference, atol=1e-10, rtol=0)
        assert int(np.argmax(gains)) == int(np.argmax(reference))
        rows.append(
            {
                "workers": workers,
                "total_dense": total_dense,
                "critical_dense": critical,
                "cp_speedup": total_dense / max(critical, 1),
                "serial_s": serial_s,
                "batched_s": batched_s,
                "threads": batched._threads,
                "mp_s": mp_s,
            }
        )
    return rows


def test_mp_fanout_dense_phase_scaling(benchmark, save_result, save_bench_json):
    rows = run_once(benchmark, lambda: _mp_rounds(MP_SIZE))
    series = {
        "batched dense col-steps": [r["total_dense"] for r in rows],
        "critical-path col-steps": [r["critical_dense"] for r in rows],
        "critical-path speedup (x)": [r["cp_speedup"] for r in rows],
        "batched 1-thread wall (s)": [r["serial_s"] for r in rows],
        "batched wall (s)": [r["batched_s"] for r in rows],
        "dm-mp wall (s)": [r["mp_s"] for r in rows],
    }
    if not TINY:
        thread_vars = ", ".join(
            f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARS
        )
        save_result(
            "engine_mp",
            "exhaustive greedy round, plurality, n=%d, t=%d;\n"
            "nproc=%d (usable cores), %s;\n"
            "critical path = max per-worker dense column-steps (deterministic;\n"
            "the pool's wall-clock ceiling).  Walls are medians of %d rounds:\n"
            "'batched wall' is dm-batched as built, its dense blocks on %d\n"
            "thread(s); 'batched 1-thread wall' forces one thread; dm-mp\n"
            "workers run one thread each:\n%s"
            % (
                MP_SIZE,
                HORIZON,
                _usable_cores(),
                thread_vars,
                WALL_REPEATS,
                rows[0]["threads"],
                format_series("workers", WORKER_COUNTS, series),
            ),
        )
    # Perf-trajectory record: 2-worker counters (the smoke configuration).
    two = rows[0]
    save_bench_json(
        "engine_mp",
        {
            "cp_speedup_2w_x": {
                "value": two["cp_speedup"],
                "higher_is_better": True,
            },
            "critical_dense_col_steps_2w": {
                "value": float(two["critical_dense"]),
                "higher_is_better": False,
            },
        },
    )
    for row in rows:
        # Sharding must genuinely split the dense phase for every count.
        assert row["critical_dense"] < row["total_dense"], (
            f"fan-out did not shard the dense phase at {row['workers']} workers"
        )
        if not TINY and MP_SIZE >= 2000 and row["workers"] == 2:
            assert row["cp_speedup"] >= MIN_DENSE_SPEEDUP_2W, (
                f"dense-phase critical-path speedup only "
                f"{row['cp_speedup']:.2f}x with 2 workers at n={MP_SIZE}"
            )


# ----------------------------------------------------------------------
# Part 2: sparse phase vs dense-only
# ----------------------------------------------------------------------
def _repin_one_size(n: int) -> dict[str, float]:
    problem = _sparse_problem(n)
    dense_engine = BatchedDMEngine(problem, densify_threshold=0.0)
    with Timer() as dense_timer:
        dense = greedy_engine(dense_engine, REPIN_K, lazy=False)
    sparse_engine = BatchedDMEngine(problem)
    with Timer() as sparse_timer:
        chosen = greedy_engine(sparse_engine, REPIN_K, lazy=False)
    assert chosen.seeds.tolist() == dense.seeds.tolist(), (
        f"selection diverged at n={n}"
    )
    np.testing.assert_allclose(chosen.gains, dense.gains, atol=1e-10, rtol=0)
    assert sparse_engine.stats.sparse_steps > 0
    assert dense_engine.stats.sparse_steps == 0
    return {
        "sparse_steps": sparse_engine.stats.sparse_steps,
        "inserted": sparse_engine.stats.repin_inserted,
        "dense_s": dense_timer.elapsed,
        "sparse_s": sparse_timer.elapsed,
        "speedup": dense_timer.elapsed / max(sparse_timer.elapsed, 1e-12),
    }


def test_sparse_phase_matches_dense_only(benchmark, save_result):
    rounds = run_once(benchmark, lambda: [_repin_one_size(n) for n in REPIN_SIZES])
    series = {
        "sparse steps": [r["sparse_steps"] for r in rounds],
        "pins spliced in": [r["inserted"] for r in rounds],
        "dense-only (s)": [r["dense_s"] for r in rounds],
        "sparse phase (s)": [r["sparse_s"] for r in rounds],
        "wall speedup (x)": [r["speedup"] for r in rounds],
    }
    if not TINY:
        save_result(
            "repin_sparse_phase",
            "exhaustive session greedy, plurality, sparse retweet graph, "
            "k=%d, t=%d, %d cpu core(s):\n%s"
            % (
                REPIN_K,
                HORIZON,
                os.cpu_count() or 1,
                format_series("n", REPIN_SIZES, series),
            ),
        )
