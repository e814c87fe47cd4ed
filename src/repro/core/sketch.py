"""Sketch-based opinion estimation and seed selection (paper §VI, the RS method).

The sketch set is θ reverse walks whose start nodes are sampled uniformly at
random; the estimated score rescales the sample by ``n / θ``.  The walks are
simple paths — simpler and lighter than the RR-set BFS trees of classic IM —
and support the same post-generation truncation as Algorithm 4.

For the cumulative score, θ follows Theorem 13 with an IMM-style hypothesis
test for a lower bound on OPT.  For the plurality variants and Copeland the
paper's theoretical θ has no usable closed form, so §VI-E prescribes a
heuristic: grow θ until the attained score converges.  Both are implemented
here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bounds import theta_cumulative, theta_estimate_round
from repro.core.greedy import GreedyResult
from repro.core.problem import FJVoteProblem
from repro.core.random_walk import TruncatedWalks, WalkGreedyOptimizer
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive, check_seed_budget
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
    problem: FJVoteProblem,
    k: int,
    theta: int,
    rng: np.random.Generator,
    store=None,
) -> tuple[GreedyResult, TruncatedWalks]:
    """One sketch phase: θ uniform-start walks + greedy selection (Alg. 5).

    With a :class:`~repro.core.walk_store.WalkStore` the phase draws a
    copy-on-write view over the store's shared uniform pool — successive
    phases with growing θ *extend* one sample (the IMM martingale reuse)
    instead of regenerating private walk sets.
    """
    state = problem.state
    q = problem.target
    if store is not None:
        walks = store.uniform_view(q, theta)
    else:
        starts = rng.integers(0, problem.n, size=theta)
        walks = TruncatedWalks.generate(
            state.graph(q),
            state.stubbornness[q],
            state.initial_opinions[q],
            problem.horizon,
            starts,
            rng,
        )
    optimizer = WalkGreedyOptimizer(
        walks,
        problem.score,
        None
        if isinstance(problem.score, CumulativeScore)
        else problem.others_by_user(),
        grouping="walk",
    )
    return optimizer.select(k), walks


def estimate_opt_cumulative(
    problem: FJVoteProblem,
    k: int,
    *,
    epsilon: float = 0.1,
    ell: float = 1.0,
    theta_cap: int | None = None,
    rng: int | np.random.Generator | None = None,
    store=None,
) -> float:
    """Lower bound on OPT for the cumulative score (adapted IMM Alg. 2 test).

    Tries guesses ``x = n/2, n/4, ..., k``; for each it draws the
    round-specific number of sketches, runs greedy, and accepts the guess
    when the estimated score clears ``(1 + ε') x``.  Falls back to ``k``
    (a size-``k`` seed set always has cumulative score at least ``k``:
    every seed is fully stubborn at opinion 1).
    """
    rng = ensure_rng(rng)
    n = problem.n
    k = check_seed_budget(k, n)
    eps_prime = float(np.sqrt(2.0) * epsilon)
    floor = max(k, 1)
    x = n / 2.0
    while x > floor:
        theta_i = theta_estimate_round(n, k, x, eps_prime, ell)
        if theta_cap is not None:
            theta_i = min(theta_i, int(theta_cap))
        result, _ = _run_sketch_greedy(problem, k, max(theta_i, 1), rng, store=store)
        if result.objective >= (1.0 + eps_prime) * x:
            return float(result.objective / (1.0 + eps_prime))
        x /= 2.0
    return float(floor)


def converge_theta(
    problem: FJVoteProblem,
    k: int,
    *,
    theta_start: int = 256,
    theta_max: int | None = None,
    tolerance: float = CONVERGENCE_TOLERANCE,
    rng: int | np.random.Generator | None = None,
    store=None,
) -> int:
    """Heuristic θ for the plurality variants and Copeland (§VI-E).

    Doubles θ until the exact score of the greedy seed set changes by less
    than ``tolerance`` (relative), or θ reaches ``theta_max`` (default: n,
    beyond which RS loses its advantage over RW).  The resulting θ can be
    reused across k and t on the same dataset and score, as the paper notes.
    """
    rng = ensure_rng(rng)
    n = problem.n
    if theta_max is None:
        theta_max = n
    theta = max(int(theta_start), 1)
    prev_score: float | None = None
    while True:
        result, _ = _run_sketch_greedy(problem, k, theta, rng, store=store)
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
        Optional :class:`~repro.core.walk_store.WalkStore`.  When given
        (e.g. by the evaluation harness, shared across methods and
        budgets), every phase — the OPT lower-bound rounds, the θ
        convergence ladder, and the final selection — draws from one
        extending uniform pool: a doubled θ reuses every walk already
        generated rather than redrawing from scratch.
    """
    rng = ensure_rng(rng)
    k = check_seed_budget(k, problem.n)
    check_positive(epsilon, "epsilon")
    check_positive(theta, "theta")
    check_positive(theta_cap, "theta_cap")
    if store is not None:
        store.require_problem(problem)
    opt_lb: float | None = None
    if theta is None:
        if isinstance(problem.score, CumulativeScore):
            opt_lb = estimate_opt_cumulative(
                problem,
                k,
                epsilon=epsilon,
                ell=ell,
                theta_cap=theta_cap,
                rng=rng,
                store=store,
            )
            theta = theta_cumulative(problem.n, k, opt_lb, epsilon, ell)
        else:
            theta = converge_theta(
                problem,
                k,
                theta_start=theta_start,
                theta_max=theta_cap,
                rng=rng,
                store=store,
            )
    if theta_cap is not None:
        theta = min(int(theta), int(theta_cap))
    theta = max(int(theta), 1)
    result, walks = _run_sketch_greedy(problem, k, theta, rng, store=store)
    return SketchSelectResult(
        seeds=result.seeds,
        estimated_objective=result.objective,
        exact_objective=problem.objective(result.seeds),
        theta=theta,
        opt_lower_bound=opt_lb,
        memory_bytes=walks.memory_bytes(),
    )
