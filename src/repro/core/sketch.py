"""Sketch-based opinion estimation and seed selection (paper §VI, the RS method).

The sketch set is θ reverse walks whose start nodes are sampled uniformly at
random; the estimated score rescales the sample by ``n / θ``.  The walks are
simple paths — simpler and lighter than the RR-set BFS trees of classic IM —
and support the same post-generation truncation as Algorithm 4.

For the cumulative score, θ follows Theorem 13 with an IMM-style hypothesis
test for a lower bound on OPT.  For the plurality variants and Copeland the
paper's theoretical θ has no usable closed form, so §VI-E prescribes a
heuristic: grow θ until the attained score converges.  Both are implemented
here, and they are all this module adds: every phase takes a θ-walk prefix
of one :class:`~repro.core.walk_store.WalkStore` uniform pool and runs the
shared greedy loop, :func:`~repro.core.greedy.greedy_engine` over a
:class:`~repro.core.engine.WalkEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bounds import theta_cumulative, theta_estimate_round
from repro.core.engine import WalkEngine
from repro.core.greedy import GreedyResult, greedy_engine
from repro.core.problem import FJVoteProblem
from repro.core.random_walk import TruncatedWalks
from repro.utils.validation import check_count, check_positive, check_seed_budget
from repro.voting.scores import CumulativeScore

#: Relative score change below which the §VI-E θ doubling stops.
CONVERGENCE_TOLERANCE = 0.02


@dataclass
class SketchSelectResult:
    """Seed set chosen by the RS method plus diagnostics."""

    seeds: np.ndarray
    estimated_objective: float
    exact_objective: float
    theta: int
    opt_lower_bound: float | None
    memory_bytes: int


def _run_sketch_greedy(
    problem: FJVoteProblem, k: int, theta: int, store
) -> tuple[GreedyResult, TruncatedWalks]:
    """One sketch phase: greedy over θ walks of the store's uniform pool.

    Successive phases with growing θ *extend* one sample (the IMM
    martingale reuse) instead of regenerating private walk sets.
    """
    engine = WalkEngine(problem, grouping="walk", theta=theta, store=store)
    return greedy_engine(engine, k), engine.walks


def estimate_opt_cumulative(
    problem: FJVoteProblem,
    k: int,
    *,
    store,
    epsilon: float = 0.1,
    ell: float = 1.0,
    theta_cap: int | None = None,
) -> float:
    """Lower bound on OPT for the cumulative score (adapted IMM Alg. 2 test).

    Tries guesses ``x = n/2, n/4, ..., k``; for each it takes the
    round-specific number of sketches from ``store``'s uniform pool, runs
    greedy, and accepts the guess when the estimated score clears
    ``(1 + ε') x``.  Falls back to ``k`` (a size-``k`` seed set always has
    cumulative score at least ``k``: every seed is fully stubborn at
    opinion 1).
    """
    n = problem.n
    k = check_seed_budget(k, n)
    theta_cap = check_count(theta_cap, "theta_cap")
    eps_prime = float(np.sqrt(2.0) * epsilon)
    floor = max(k, 1)
    x = n / 2.0
    while x > floor:
        theta_i = theta_estimate_round(n, k, x, eps_prime, ell)
        if theta_cap is not None:
            theta_i = min(theta_i, theta_cap)
        result, _ = _run_sketch_greedy(problem, k, max(theta_i, 1), store)
        if result.objective >= (1.0 + eps_prime) * x:
            return float(result.objective / (1.0 + eps_prime))
        x /= 2.0
    return float(floor)


def converge_theta(
    problem: FJVoteProblem,
    k: int,
    *,
    store,
    theta_start: int = 256,
    theta_max: int | None = None,
    tolerance: float = CONVERGENCE_TOLERANCE,
) -> int:
    """Heuristic θ for the plurality variants and Copeland (§VI-E).

    Doubles θ over ``store``'s uniform pool until the exact score of the
    greedy seed set changes by less than ``tolerance`` (relative), or θ
    reaches ``theta_max`` (default: n, beyond which RS loses its
    advantage over RW).  The resulting θ can be reused across k and t on
    the same dataset and score, as the paper notes.
    """
    n = problem.n
    theta = check_count(theta_start, "theta_start")
    theta_max = n if theta_max is None else check_count(theta_max, "theta_max")
    prev_score: float | None = None
    while True:
        result, _ = _run_sketch_greedy(problem, k, theta, store)
        score = problem.objective(result.seeds)
        if prev_score is not None:
            denom = max(abs(prev_score), 1e-12)
            if abs(score - prev_score) / denom <= tolerance:
                return theta
        if theta >= theta_max:
            return theta
        prev_score = score
        theta = min(theta * 2, theta_max)


def sketch_select(
    problem: FJVoteProblem,
    k: int,
    *,
    epsilon: float = 0.1,
    ell: float = 1.0,
    theta: int | None = None,
    theta_cap: int | None = None,
    theta_start: int = 256,
    rng: int | np.random.Generator | None = None,
    store=None,
) -> SketchSelectResult:
    """The RS method (Algorithm 5): greedy on sketch-estimated scores.

    Parameters
    ----------
    epsilon, ell:
        Accuracy parameters of Theorem 13 (cumulative score only); the paper
        defaults are ε = 0.1, ℓ = 1.  ``epsilon`` must be positive.
    theta:
        Explicit positive sketch count, bypassing estimation.
    theta_cap:
        Optional positive hard cap on θ (the theoretical count exceeds n on
        small graphs, where RS degenerates to RW; the paper's datasets have
        n in the millions).
    theta_start:
        First θ of the §VI-E heuristic used by the non-cumulative scores,
        which doubles θ until the score moves by less than
        :data:`CONVERGENCE_TOLERANCE`.
    store:
        Optional :class:`~repro.core.walk_store.WalkStore` (e.g. one the
        evaluation harness shares across methods and budgets); without
        one, a private store is seeded by the first draw from ``rng``, so
        the selection equals the one ``store_for_problem(problem,
        seed=rng)`` gives.  Every phase — the OPT lower-bound rounds, the
        θ convergence ladder, and the final selection — draws from the
        store's one extending uniform pool: a doubled θ reuses every walk
        already generated rather than redrawing from scratch.
    """
    from repro.core.walk_store import WalkStore

    k = check_seed_budget(k, problem.n)
    check_positive(epsilon, "epsilon")
    theta = check_count(theta, "theta")
    theta_cap = check_count(theta_cap, "theta_cap")
    theta_start = check_count(theta_start, "theta_start")
    if store is None:
        store = WalkStore(problem.state, problem.horizon, seed=rng)
    else:
        store.require_problem(problem)
    opt_lb: float | None = None
    if theta is None:
        if isinstance(problem.score, CumulativeScore):
            opt_lb = estimate_opt_cumulative(
                problem,
                k,
                store=store,
                epsilon=epsilon,
                ell=ell,
                theta_cap=theta_cap,
            )
            theta = theta_cumulative(problem.n, k, opt_lb, epsilon, ell)
        else:
            theta = converge_theta(
                problem,
                k,
                store=store,
                theta_start=theta_start,
                theta_max=theta_cap,
            )
    if theta_cap is not None:
        theta = min(theta, theta_cap)
    theta = max(theta, 1)
    result, walks = _run_sketch_greedy(problem, k, theta, store)
    return SketchSelectResult(
        seeds=result.seeds,
        estimated_objective=result.objective,
        exact_objective=problem.objective(result.seeds),
        theta=theta,
        opt_lower_bound=opt_lb,
        memory_bytes=walks.memory_bytes(),
    )
