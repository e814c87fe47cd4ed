"""Tests for sandwich approximation: bound validity and Algorithm 3."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import brute_force_optimum
from repro.core.problem import FJVoteProblem
from repro.core.reachability import ReachabilityIndex
from repro.core.sandwich import (
    favorable_users,
    lower_bound_greedy,
    sandwich_select,
    weakly_favorable_users,
)
from repro.voting.rank import ranks
from repro.voting.scores import (
    CopelandScore,
    CumulativeScore,
    PApprovalScore,
    PluralityScore,
)
from tests.conftest import random_instance


def _ub_positional(problem, seeds):
    """UB(S) of Definition 4 computed directly."""
    score = problem.score
    index = ReachabilityIndex(problem.state.graph(problem.target), problem.horizon)
    base = favorable_users(problem)
    return score.weight_at(1) * float(np.union1d(index.reach_set(seeds), base).size)


def _lb_positional(problem, seeds):
    """LB(S) of Definition 3 computed directly."""
    score = problem.score
    fav = favorable_users(problem)
    vals = problem.target_opinions(np.asarray(seeds, dtype=np.int64))
    return score.weight_at(score.p) * float(vals[fav].sum())


def _ub_copeland(problem, seeds):
    """UB(S) of Definition 6 computed directly."""
    index = ReachabilityIndex(problem.state.graph(problem.target), problem.horizon)
    base = weakly_favorable_users(problem)
    weight = (problem.r - 1) / (problem.n // 2 + 1)
    return weight * float(np.union1d(index.reach_set(seeds), base).size)


def test_favorable_users_definition(random_state):
    problem = FJVoteProblem(random_state, 0, 3, PApprovalScore(2, random_state.r))
    fav = favorable_users(problem)
    beta = ranks(problem.full_opinions(()), 0)
    np.testing.assert_array_equal(fav, np.where(beta <= 2)[0])


def test_favorable_users_requires_positional(random_state):
    problem = FJVoteProblem(random_state, 0, 3, CumulativeScore())
    with pytest.raises(TypeError):
        favorable_users(problem)


def test_weakly_favorable_users_definition(random_state):
    problem = FJVoteProblem(random_state, 0, 3, CopelandScore())
    weak = weakly_favorable_users(problem)
    opinions = problem.full_opinions(())
    others_min = np.delete(opinions, 0, axis=0).min(axis=0)
    np.testing.assert_array_equal(weak, np.where(opinions[0] > others_min)[0])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2000), k=st.integers(0, 3))
def test_property_lb_f_ub_ordering_plurality(seed, k):
    """Theorems 5-6: LB(S) <= F(S) <= UB(S) for random instances and seeds."""
    state = random_instance(n=9, r=3, seed=seed)
    problem = FJVoteProblem(state, 0, 2, PluralityScore())
    rng = np.random.default_rng(seed)
    seeds = rng.choice(9, size=k, replace=False)
    f = problem.objective(seeds)
    assert _lb_positional(problem, seeds) <= f + 1e-9
    assert f <= _ub_positional(problem, seeds) + 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2000), k=st.integers(0, 3))
def test_property_f_ub_ordering_copeland(seed, k):
    """Theorem 7: F(S) <= UB(S) for Copeland (no-ties caveat noted in §IV-C)."""
    state = random_instance(n=9, r=3, seed=seed)
    problem = FJVoteProblem(state, 0, 2, CopelandScore())
    rng = np.random.default_rng(seed)
    seeds = rng.choice(9, size=k, replace=False)
    assert problem.objective(seeds) <= _ub_copeland(problem, seeds) + 1e-9


def test_lower_bound_greedy_is_submodular_cumulative_restriction():
    state = random_instance(n=8, r=2, seed=4)
    problem = FJVoteProblem(state, 0, 2, PluralityScore())
    fav = favorable_users(problem)
    result, weight = lower_bound_greedy(problem, 2, fav)
    assert result.seeds.size == 2
    assert result.objective == pytest.approx(_lb_positional(problem, result.seeds))
    assert weight == 1.0  # plurality: ω[1] = 1


def test_sandwich_select_returns_best_of_candidates():
    state = random_instance(n=10, r=3, seed=6)
    problem = FJVoteProblem(state, 0, 2, PluralityScore())
    result = sandwich_select(problem, 2, method="dm")
    f_feasible = problem.objective(result.seeds_feasible)
    f_upper = problem.objective(result.seeds_upper)
    f_lower = problem.objective(result.seeds_lower)
    assert result.objective == pytest.approx(max(f_feasible, f_upper, f_lower))
    assert result.chosen in ("F", "UB", "LB")


def test_sandwich_ratio_in_unit_interval():
    for seed in range(3):
        state = random_instance(n=10, r=3, seed=seed)
        problem = FJVoteProblem(state, 0, 2, PluralityScore())
        result = sandwich_select(problem, 2, method="dm")
        assert 0.0 <= result.sandwich_ratio <= 1.0 + 1e-9
        assert result.approximation_factor <= 1 - 1 / np.e + 1e-9


def test_sandwich_copeland_has_no_lower_bound_seeds():
    state = random_instance(n=10, r=3, seed=2)
    problem = FJVoteProblem(state, 0, 2, CopelandScore())
    result = sandwich_select(problem, 2, method="dm")
    assert result.seeds_lower is None
    assert result.chosen in ("F", "UB")


def test_sandwich_rejects_cumulative():
    state = random_instance(n=8, r=2, seed=1)
    problem = FJVoteProblem(state, 0, 2, CumulativeScore())
    with pytest.raises(TypeError):
        sandwich_select(problem, 2)


def test_sandwich_with_rw_method():
    state = random_instance(n=10, r=2, seed=9)
    problem = FJVoteProblem(state, 0, 2, PluralityScore())
    result = sandwich_select(problem, 2, method="rw", rng=3, walks_per_node=16)
    assert result.seeds.size == 2


def test_sandwich_with_custom_selector():
    state = random_instance(n=10, r=2, seed=9)
    problem = FJVoteProblem(state, 0, 2, PluralityScore())
    result = sandwich_select(
        problem, 2, feasible_selector=lambda k: np.arange(k)
    )
    np.testing.assert_array_equal(result.seeds_feasible, [0, 1])


def test_sandwich_unknown_method():
    state = random_instance(n=8, r=2, seed=0)
    problem = FJVoteProblem(state, 0, 2, PluralityScore())
    with pytest.raises(ValueError):
        sandwich_select(problem, 2, method="magic")


@pytest.mark.parametrize("method", ["dm", "rw", "rs"])
@pytest.mark.parametrize(
    "score",
    [PluralityScore(), PApprovalScore(2, 3), CopelandScore()],
    ids=["plurality", "2-approval", "copeland"],
)
def test_sandwich_bound_holds_against_brute_force(score, method):
    """The factor Algorithm 3 reports really bounds its result by OPT.

    ``F(S) ≥ F(S_U) = ratio · UB(S_U) ≥ ratio · (1 − 1/e) · OPT``, since
    greedy coverage reaches ``(1 − 1/e)`` of UB's optimum and UB ≥ F
    everywhere.  OPT is the brute-force optimum over every size-k set,
    so the check is independent of the greedy and of the feasible
    method (exact DM, RW or RS).
    """
    for seed in (3, 8):
        state = random_instance(n=11 + seed % 2, r=3, seed=seed)
        problem = FJVoteProblem(state, 0, 3, score)
        for k in (1, 2, 3):
            _, opt = brute_force_optimum(problem, k)
            result = sandwich_select(problem, k, method=method, rng=seed)
            value = problem.objective(result.seeds)
            assert value == pytest.approx(result.objective, abs=1e-9)
            bound = result.approximation_factor * opt - 1e-9
            assert result.f_of_upper_seeds >= bound
            assert value >= bound
            assert value <= opt + 1e-9
