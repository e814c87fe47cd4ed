"""Tests for the greedy engine, CELF equivalence, and the (1-1/e) guarantee."""

import numpy as np
import pytest

from repro.core.exact import brute_force_optimum
from repro.core.greedy import greedy_dm, greedy_select
from repro.core.problem import FJVoteProblem
from repro.opinion.state import CampaignState
from repro.voting.scores import CumulativeScore, PluralityScore
from tests.conftest import random_instance
from tests.oracles import full_scan_rounds


def test_greedy_on_modular_function_is_exact():
    weights = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
    result = greedy_select(lambda s: sum(weights[list(s)]), 5, 3)
    assert sorted(result.seeds.tolist()) == [0, 2, 4]
    assert result.objective == pytest.approx(12.0)
    np.testing.assert_allclose(sorted(result.gains, reverse=True), [5.0, 4.0, 3.0])


def test_celf_matches_exhaustive_on_submodular_coverage():
    sets = [
        {0, 1, 2},
        {2, 3},
        {3, 4, 5, 6},
        {0, 6},
        {7},
    ]

    def coverage(selected):
        return float(len(set().union(*(sets[i] for i in selected)))) if selected else 0.0

    lazy = greedy_select(coverage, len(sets), 3, lazy=True)
    eager = greedy_select(coverage, len(sets), 3, lazy=False)
    assert lazy.objective == pytest.approx(eager.objective)
    assert lazy.seeds.tolist() == eager.seeds.tolist()
    assert lazy.evaluations <= eager.evaluations


def test_candidate_restriction():
    weights = np.array([5.0, 1.0, 3.0])
    result = greedy_select(lambda s: sum(weights[list(s)]), 3, 1, candidates=[1, 2])
    assert result.seeds.tolist() == [2]


def test_budget_validation():
    with pytest.raises(ValueError):
        greedy_select(lambda s: 0.0, 3, 5)
    with pytest.raises(ValueError):
        greedy_select(lambda s: 0.0, 3, 2, candidates=[0])


def test_zero_budget():
    result = greedy_select(lambda s: float(len(s)), 4, 0)
    assert result.seeds.size == 0
    assert result.objective == 0.0


def test_greedy_dm_celf_equals_exhaustive_for_cumulative():
    state = random_instance(n=10, r=2, seed=3)
    problem = FJVoteProblem(state, 0, 3, CumulativeScore())
    lazy = greedy_dm(problem, 3, lazy=True)
    eager = greedy_dm(problem, 3, lazy=False)
    assert lazy.objective == pytest.approx(eager.objective)
    assert lazy.evaluations <= eager.evaluations


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_greedy_dm_cumulative_meets_approximation_guarantee(seed):
    """Theorem 3 + Nemhauser: greedy >= (1 - 1/e) OPT for the cumulative score."""
    state = random_instance(n=9, r=2, seed=seed)
    problem = FJVoteProblem(state, 0, 2, CumulativeScore())
    greedy = greedy_dm(problem, 2)
    _, opt = brute_force_optimum(problem, 2)
    assert greedy.objective >= (1 - 1 / np.e) * opt - 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_dm_plurality_reasonable(seed):
    """No guarantee for plurality, but greedy should not collapse to zero."""
    state = random_instance(n=9, r=3, seed=seed)
    problem = FJVoteProblem(state, 0, 2, PluralityScore())
    greedy = greedy_dm(problem, 2)
    _, opt = brute_force_optimum(problem, 2)
    assert greedy.objective >= 0.5 * opt  # empirically far better; loose floor


def test_exhaustive_ties_break_to_smallest_node():
    """Equal-gain ties resolve to the smallest node id (documented contract).

    The objective is modular with identical weights, so every remaining
    node always has the same gain; the selection must be 0, 1, 2 — not an
    arbitrary hash-order permutation.
    """
    result = greedy_select(lambda s: float(len(s)), 10, 3, lazy=False)
    assert result.seeds.tolist() == [0, 1, 2]


def test_exhaustive_ties_deterministic_across_pool_orderings():
    # Sorted-pool iteration makes the candidate ordering canonical even
    # when the caller passes a shuffled candidate restriction.
    weights = np.array([1.0, 2.0, 2.0, 2.0, 1.0])
    fn = lambda s: sum(weights[list(s)])  # noqa: E731
    a = greedy_select(fn, 5, 2, candidates=[4, 3, 2, 1, 0])
    b = greedy_select(fn, 5, 2, candidates=[0, 1, 2, 3, 4])
    assert a.seeds.tolist() == b.seeds.tolist() == [1, 2]


def test_celf_ties_break_to_smallest_node():
    """CELF heap entries are (-gain, node, stamp): ties pop the smallest id."""
    lazy = greedy_select(lambda s: float(len(s)), 10, 3, lazy=True)
    assert lazy.seeds.tolist() == [0, 1, 2]


def test_celf_and_exhaustive_agree_under_ties():
    sets = [{0, 1}, {2, 3}, {0, 1}, {2, 3}, {4}]

    def coverage(selected):
        return float(len(set().union(*(sets[i] for i in selected)))) if selected else 0.0

    lazy = greedy_select(coverage, len(sets), 3, lazy=True)
    eager = greedy_select(coverage, len(sets), 3, lazy=False)
    # Both must take the tie-champions 0 then 1... i.e. smallest ids first.
    assert lazy.seeds.tolist() == eager.seeds.tolist() == [0, 1, 4]


def test_engine_greedy_ties_break_to_smallest_node(random_state):
    """The engine-driven loops share the tie-break contract."""
    from repro.core.engine import BatchedDMEngine, DMEngine
    from repro.core.greedy import greedy_engine

    # A fully-stubborn instance: seeding any node yields the same gain.
    n = random_state.n
    state = random_instance(n=n, r=2, seed=7)
    flat = CampaignState(
        graphs=state.graphs,
        initial_opinions=np.full((2, n), 0.5),
        stubbornness=np.ones((2, n)),
    )
    problem = FJVoteProblem(flat, 0, 2, CumulativeScore())
    for engine in (DMEngine(problem), BatchedDMEngine(problem)):
        eager = greedy_engine(engine, 3, lazy=False)
        lazy = greedy_engine(engine, 3, lazy=True)
        assert eager.seeds.tolist() == [0, 1, 2]
        assert lazy.seeds.tolist() == [0, 1, 2]


def test_greedy_dm_auto_lazy_only_for_cumulative(random_state, monkeypatch):
    """``lazy="auto"`` hands CELF's stale-gain keys to the round loop only
    for the (submodular) cumulative score; both picks equal the full scan."""
    from repro.core import greedy
    from repro.core.engine import BatchedDMEngine

    received = []
    real = greedy.greedy_engine

    def spy(engine, k, **kwargs):
        received.append(kwargs["lazy"])
        return real(engine, k, **kwargs)

    monkeypatch.setattr(greedy, "greedy_engine", spy)
    for score, lazy in ((CumulativeScore(), True), (PluralityScore(), False)):
        problem = FJVoteProblem(random_state, 0, 2, score)
        result = greedy_dm(problem, 2)
        assert received.pop() is lazy
        seeds, gains, objective = full_scan_rounds(
            BatchedDMEngine(problem).open_session(), 2, np.arange(problem.n)
        )
        assert result.seeds.tolist() == seeds.tolist()
        assert result.gains.tobytes() == gains.tobytes()
        assert result.objective == objective
