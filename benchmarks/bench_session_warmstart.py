"""Session benchmark: warm-started greedy rounds vs stateless restarts.

Exhaustive greedy (plurality score, ``K`` rounds) run twice through
:class:`BatchedDMEngine` on a paper-density sparse retweet graph (Table
III: ~1.3-1.9 edges/node): once as PR-1-style *stateless* rounds — every
round replays the full committed set's delta from the unseeded base — and
once through a :class:`~repro.core.engine.SelectionSession`, whose commits
fold the chosen seed into the committed trajectory so each round evolves
only single-candidate deltas — and, through ``greedy_engine``'s round
loop, only the candidates whose certified gain bound can still win the
round, so the reduction counts both savings.  Both paths must select
byte-identical seeds; the win is measured with the deterministic
:class:`~repro.core.engine.EngineStats` evolution counters (dense
column-step equivalents), so the assertion is immune to timer noise:
strictly less work everywhere, and >= 2x less at n >= 2000.  Wall times
are reported alongside for the results archive.

Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_session_warmstart.py``;
set ``REPRO_BENCH_TINY=1`` for the CI smoke variant (one tiny size, work
monotonicity only).
"""

import numpy as np

from benchmarks.conftest import BENCH_SEED, BENCH_TINY, run_once
from repro.core.engine import BatchedDMEngine
from repro.core.greedy import greedy_engine
from repro.datasets.twitter import _twitter_base
from repro.eval.reporting import format_series
from repro.utils.timing import Timer
from repro.voting.scores import PluralityScore

TINY = BENCH_TINY
SIZES = [200] if TINY else [500, 2000]
#: Rounds: the warm-start saving accrues from round 2 on, once the
#: committed set is big enough that replaying it densifies early.
K = 4 if TINY else 24
HORIZON = 20
#: Acceptance floor of the evolution-work ratio at the sizes where
#: warm-starting must pay off.
MIN_WORK_REDUCTION_AT_SCALE = 2.0


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
    problem.others_by_user()  # shared inputs, warmed outside the timers
    problem.target_trajectory()
    return problem


def _stateless_greedy(engine: BatchedDMEngine, k: int):
    """PR-1-style rounds: every round replays the base from scratch."""
    selected: list[int] = []
    gains_trace: list[float] = []
    current = engine.evaluate_one(())
    remaining = np.arange(engine.problem.n)
    for _ in range(k):
        gains = engine.marginal_gains(
            tuple(selected), remaining, base_objective=current
        )
        idx = int(np.argmax(gains))
        selected.append(int(remaining[idx]))
        gains_trace.append(float(gains[idx]))
        current += gains_trace[-1]
        remaining = np.delete(remaining, idx)
    return selected, gains_trace


def _one_size(n: int) -> dict[str, float]:
    problem = _sparse_problem(n)
    cold_engine = BatchedDMEngine(problem)
    with Timer() as cold_timer:
        cold_seeds, cold_gains = _stateless_greedy(cold_engine, K)
    warm_engine = BatchedDMEngine(problem)
    with Timer() as warm_timer:
        warm = greedy_engine(warm_engine, K, lazy=False)
    assert warm.seeds.tolist() == cold_seeds, f"selection diverged at n={n}"
    np.testing.assert_allclose(warm.gains, cold_gains, atol=1e-10, rtol=0)
    cold_work = cold_engine.stats.evolution_work(n)
    warm_work = warm_engine.stats.evolution_work(n)
    return {
        "cold_s": cold_timer.elapsed,
        "warm_s": warm_timer.elapsed,
        "cold_work": cold_work,
        "warm_work": warm_work,
        "work_ratio": cold_work / max(warm_work, 1e-12),
    }


def test_session_warmstart_less_evolution_work(
    benchmark, save_result, save_bench_json
):
    rounds = run_once(benchmark, lambda: [_one_size(n) for n in SIZES])
    series = {
        "stateless (s)": [r["cold_s"] for r in rounds],
        "session (s)": [r["warm_s"] for r in rounds],
        "stateless work (col-steps)": [r["cold_work"] for r in rounds],
        "session work (col-steps)": [r["warm_work"] for r in rounds],
        "work reduction (x)": [r["work_ratio"] for r in rounds],
    }
    if not TINY:  # don't let the CI smoke run clobber the full-size archive
        save_result(
            "session_warmstart",
            "exhaustive greedy, plurality, sparse retweet graph, k=%d, t=%d:\n%s"
            % (K, HORIZON, format_series("n", SIZES, series)),
        )
    # Perf-trajectory record: deterministic counters at the largest size.
    last = rounds[-1]
    save_bench_json(
        "session_warmstart",
        {
            "work_reduction_x": {
                "value": last["work_ratio"],
                "higher_is_better": True,
            },
            "session_work_col_steps": {
                "value": last["warm_work"],
                "higher_is_better": False,
            },
        },
    )
    for n, r in zip(SIZES, rounds):
        assert r["warm_work"] < r["cold_work"], (
            f"warm-start did not reduce evolution work at n={n}"
        )
        if not TINY and n >= 2000:
            assert r["work_ratio"] >= MIN_WORK_REDUCTION_AT_SCALE, (
                f"warm-start work reduction only {r['work_ratio']:.2f}x at n={n}"
            )
