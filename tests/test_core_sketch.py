"""Tests for sketch-based (RS) estimation and selection."""

import numpy as np
import pytest

from repro.core.bounds import epsilon_achieved_cumulative
from repro.core.exact import brute_force_optimum
from repro.core.problem import FJVoteProblem
from repro.core.random_walk import WalkGreedyOptimizer
from repro.core.sketch import (
    converge_theta,
    estimate_opt_cumulative,
    sketch_select,
)
from repro.core.walk_store import store_for_problem
from repro.voting.scores import CopelandScore, CumulativeScore, PluralityScore
from tests.conftest import random_instance, walks_from


def test_sketch_estimator_is_unbiased_for_cumulative():
    """n/θ-scaled sketch average approximates the true cumulative score."""
    state = random_instance(n=10, r=2, seed=3)
    problem = FJVoteProblem(state, 0, 3, CumulativeScore())
    rng = np.random.default_rng(4)
    starts = rng.integers(0, 10, size=60_000)
    walks = walks_from(
        state.graph(0), state.stubbornness[0], state.initial_opinions[0], 3, starts, 4
    )
    optimizer = WalkGreedyOptimizer(walks, CumulativeScore(), None, grouping="walk")
    assert optimizer.estimated_score() == pytest.approx(
        problem.objective(()), rel=0.02
    )


def test_estimate_opt_is_a_lower_bound():
    state = random_instance(n=10, r=2, seed=5)
    problem = FJVoteProblem(state, 0, 2, CumulativeScore())
    _, opt = brute_force_optimum(problem, 2)
    store = store_for_problem(problem, seed=6)
    lb = estimate_opt_cumulative(problem, 2, store=store, epsilon=0.3, theta_cap=5000)
    assert lb <= opt + 0.5  # statistical slack
    assert lb >= 2  # k seeds guarantee cumulative >= k


def test_sketch_select_cumulative_end_to_end():
    state = random_instance(n=12, r=2, seed=7)
    problem = FJVoteProblem(state, 0, 3, CumulativeScore())
    result = sketch_select(problem, 2, epsilon=0.3, theta_cap=4000, rng=8)
    assert result.seeds.size == 2
    assert result.opt_lower_bound is not None
    assert result.theta <= 4000
    assert result.exact_objective >= problem.objective(()) - 1e-9
    # Theorem 13's θ over the ladder's OPT lower bound certifies the
    # requested ε; a cap below that θ cannot.
    achieved = epsilon_achieved_cumulative(
        12, 2, result.opt_lower_bound, result.theta, 1.0
    )
    assert achieved <= 0.3
    capped = sketch_select(problem, 2, epsilon=0.3, theta_cap=300, rng=8)
    assert capped.theta == 300 < result.theta
    assert epsilon_achieved_cumulative(
        12, 2, capped.opt_lower_bound, capped.theta, 1.0
    ) > 0.3


def test_sketch_select_explicit_theta_skips_estimation():
    state = random_instance(n=12, r=2, seed=9)
    problem = FJVoteProblem(state, 0, 3, CumulativeScore())
    result = sketch_select(problem, 2, theta=500, rng=10)
    assert result.theta == 500
    assert result.opt_lower_bound is None


@pytest.mark.parametrize("score", [PluralityScore(), CopelandScore()])
def test_sketch_select_rank_scores_use_heuristic_theta(score):
    state = random_instance(n=12, r=3, seed=11)
    problem = FJVoteProblem(state, 0, 3, score)
    result = sketch_select(problem, 2, theta_start=64, theta_cap=512, rng=12)
    assert 64 <= result.theta <= 512
    assert result.seeds.size == 2


def test_converge_theta_stops_at_cap():
    state = random_instance(n=10, r=2, seed=13)
    problem = FJVoteProblem(state, 0, 2, PluralityScore())
    store = store_for_problem(problem, seed=14)
    theta = converge_theta(
        problem, 2, store=store, theta_start=32, theta_max=128, tolerance=0.0
    )
    assert theta <= 128


def test_sketch_estimated_score_close_to_exact_for_selected_seeds():
    state = random_instance(n=10, r=2, seed=15)
    problem = FJVoteProblem(state, 0, 3, CumulativeScore())
    result = sketch_select(problem, 2, theta=20_000, rng=16)
    assert result.estimated_objective == pytest.approx(
        result.exact_objective, rel=0.05
    )


def test_sketch_select_budget_validation():
    state = random_instance(n=6, r=2, seed=17)
    problem = FJVoteProblem(state, 0, 2, CumulativeScore())
    with pytest.raises(ValueError):
        sketch_select(problem, 10, theta=100)
