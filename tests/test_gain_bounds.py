"""Certified gain bounds and the bound-ordered greedy round loop.

Two contracts.  Every exact session's ``gain_bounds`` is at least the exact
gain of every candidate — for every built-in score, committed prefixes,
fully stubborn users, zero margins and the sandwich's weighted
lower-bound engine.  And the round loop, which evaluates only candidates
whose bound can still win, picks the seeds, gains and objective bits of
the full scan (:func:`tests.oracles.full_scan_rounds`).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import greedy
from repro.core.engine import BatchedDMEngine, DMEngine
from repro.core.greedy import greedy_engine, greedy_select
from repro.core.problem import FJVoteProblem
from repro.opinion.state import CampaignState
from repro.voting.extensions import BordaScore, DowdallScore
from repro.voting.scores import (
    CopelandScore,
    CumulativeScore,
    PApprovalScore,
    PluralityScore,
    PositionalPApprovalScore,
)
from tests.conftest import random_instance
from tests.oracles import (
    celf_rounds,
    dense_trajectory,
    full_scan_rounds,
    matmul_gain_bounds,
)

SCORES = {
    "cumulative": lambda r: CumulativeScore(),
    "plurality": lambda r: PluralityScore(),
    "p-approval": lambda r: PApprovalScore(2, r),
    "positional": lambda r: PositionalPApprovalScore(2, np.array([1.0, 0.5, 0.25])),
    "borda": BordaScore,
    "dowdall": DowdallScore,
    "copeland": lambda r: CopelandScore(),
}


@st.composite
def problems(draw, scores=tuple(SCORES)):
    """Small instances with fully stubborn users and exact ties.

    ``stubborn`` users never move; ``tied`` users of competitor 1 start at
    the target's opinion with the target's stubbornness, so stubborn tied
    users stay at a zero margin until seeded.  ``tie_all`` copies the whole
    target row into competitor 1: every user is tied.
    """
    n = draw(st.integers(4, 12))
    r = 3
    state = random_instance(n=n, r=r, seed=draw(st.integers(0, 10_000)))
    b0 = state.initial_opinions.copy()
    d = state.stubbornness.copy()
    stubborn = draw(st.lists(st.integers(0, n - 1), max_size=n // 2))
    d[:, stubborn] = 1.0
    tied = draw(st.lists(st.integers(0, n - 1), max_size=n // 2))
    if draw(st.booleans()):
        tied = list(range(n))
    b0[1, tied] = b0[0, tied]
    d[1, tied] = d[0, tied]
    state = CampaignState(graphs=state.graphs, initial_opinions=b0, stubbornness=d)
    score = SCORES[draw(st.sampled_from(scores))](r)
    return FJVoteProblem(state, 0, draw(st.integers(0, 5)), score)


def _prefix(draw, n):
    return draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))


def _oracle_gains(problem, seeds, candidates, user_weights=None):
    """Gains from the dense FJ recurrence and the score's own ``evaluate``."""
    state, q, t = problem.state, problem.target, problem.horizon

    def value(seed_set):
        row = dense_trajectory(state, q, seed_set, t)[-1]
        if user_weights is not None:
            return float(row @ user_weights)
        return problem.score.evaluate(problem.full_opinions_from_target(row), q)

    base = value(seeds)
    return np.array([value(list(seeds) + [int(c)]) - base for c in candidates])


@settings(max_examples=80, deadline=None)
@given(problem=problems(), data=st.data())
def test_bound_covers_every_exact_gain(problem, data):
    prefix = _prefix(data.draw, problem.n)
    candidates = np.setdiff1d(np.arange(problem.n), prefix)
    oracle = _oracle_gains(problem, prefix, candidates)
    for engine in (BatchedDMEngine(problem), DMEngine(problem)):
        session = engine.open_session()
        for seed in prefix:
            session.commit(seed)
        bounds = session.gain_bounds(candidates)
        if isinstance(problem.score, CopelandScore):
            assert bounds is None
            continue
        gains = session.marginal_gains(candidates)
        assert not np.isnan(bounds).any()
        assert np.all(gains <= bounds), (gains, bounds)
        assert np.all(oracle <= bounds), (oracle, bounds)


@settings(max_examples=60, deadline=None)
@given(problem=problems(), data=st.data(), weighted=st.booleans())
def test_bound_pass_bytes_equal_the_matmul_pass(problem, data, weighted):
    """The ``csr_matvec`` pass on the sorted explicit transpose gives the
    bytes of ``operator.T @ x`` over whole-trajectory arrays, ``+inf``
    reach included, for every score, prefix and the weighted engine."""
    weights = None
    if weighted and isinstance(problem.score, CumulativeScore):
        weights = np.array(
            data.draw(
                st.lists(
                    st.sampled_from([0.0, 0.5, 1.0]),
                    min_size=problem.n,
                    max_size=problem.n,
                )
            )
        )
    prefix = _prefix(data.draw, problem.n)
    candidates = np.setdiff1d(np.arange(problem.n), prefix)
    engine = BatchedDMEngine(problem, user_weights=weights)
    session = engine.open_session()
    for seed in prefix:
        session.commit(seed)
    bounds = session.gain_bounds(candidates)
    expected = matmul_gain_bounds(
        problem, engine._wt_scaled, session._traj, prefix, candidates, weights
    )
    if expected is None:
        assert bounds is None
        return
    assert bounds.tobytes() == expected.tobytes()
    assert engine._bound_operator.has_sorted_indices


def test_bound_pass_bytes_on_the_sparse_retweet_graph():
    """Twenty chained steps on a 1,500-user retweet graph (the
    ``select-sparse-celf`` shape), with committed seeds."""
    from repro.datasets.twitter import twitter_social_distancing

    problem = twitter_social_distancing(n=1500, horizon=20, rng=5).problem(
        CumulativeScore()
    )
    engine = BatchedDMEngine(problem)
    session = engine.open_session()
    for seed in (3, 140, 977):
        session.commit(seed)
    candidates = np.arange(problem.n)
    expected = matmul_gain_bounds(
        problem, engine._wt_scaled, session._traj, session.seeds, candidates
    )
    assert session.gain_bounds(candidates).tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(problem=problems(scores=("cumulative",)), data=st.data())
def test_bound_covers_weighted_lower_bound_engine(problem, data):
    """The sandwich LB engine: cumulative score with per-user weights,
    some of them zero (users outside the favorable set)."""
    weights = np.array(
        data.draw(
            st.lists(
                st.sampled_from([0.0, 0.5, 1.0]),
                min_size=problem.n,
                max_size=problem.n,
            )
        )
    )
    prefix = _prefix(data.draw, problem.n)
    candidates = np.setdiff1d(np.arange(problem.n), prefix)
    session = BatchedDMEngine(problem, user_weights=weights).open_session()
    for seed in prefix:
        session.commit(seed)
    bounds = session.gain_bounds(candidates)
    gains = session.marginal_gains(candidates)
    assert np.all(gains <= bounds), (gains, bounds)
    assert np.all(_oracle_gains(problem, prefix, candidates, weights) <= bounds)


@settings(max_examples=60, deadline=None)
@given(
    problem=problems(),
    k=st.integers(1, 4),
    chunk=st.sampled_from([1, 2, 3, 32]),
    engine_cls=st.sampled_from([BatchedDMEngine, DMEngine]),
)
def test_round_loop_matches_full_scan_bytes(problem, k, chunk, engine_cls):
    engine = engine_cls(problem)
    seeds, gains, objective = full_scan_rounds(
        engine.open_session(), k, np.arange(problem.n)
    )
    with mock.patch.object(greedy, "BOUND_CHUNK", chunk):
        result = greedy_engine(engine, k)
        lazy = greedy_engine(engine, k, lazy=True)
    assert result.seeds.tolist() == seeds.tolist()
    assert result.gains.tobytes() == gains.tobytes()
    assert result.objective == objective
    assert result.full_scan == sum(problem.n - i for i in range(k))
    assert result.evaluations <= result.full_scan
    if isinstance(problem.score, CumulativeScore):
        # Submodular: stale gains are upper bounds, so CELF keys pick the
        # full scan's seeds too.
        assert lazy.seeds.tolist() == seeds.tolist()
        np.testing.assert_allclose(lazy.gains, gains, rtol=0, atol=1e-12)


def test_bound_prunes_a_yelp_round():
    """On a 120-user yelp plurality instance the bound rules out most
    candidates of every round, and the picks stay the full scan's."""
    from repro.cli import DATASETS

    problem = DATASETS["yelp"](n=120, rng=1, horizon=8).problem(PluralityScore())
    engine = BatchedDMEngine(problem)
    result = greedy_engine(engine, 4)
    seeds, gains, objective = full_scan_rounds(
        engine.open_session(), 4, np.arange(problem.n)
    )
    assert result.seeds.tolist() == seeds.tolist()
    assert result.gains.tobytes() == gains.tobytes()
    assert result.objective == objective
    assert result.evaluations < result.full_scan // 4


def _coverage(sets):
    def value(selected):
        if not selected:
            return 0.0
        return float(len(set().union(*(sets[i] for i in selected))))

    return value


@settings(max_examples=50, deadline=None)
@given(
    sets=st.lists(
        st.sets(st.integers(0, 15), max_size=6), min_size=2, max_size=12
    ),
    data=st.data(),
)
def test_black_box_lazy_rounds_are_celf(sets, data):
    """A black-box function certifies no bound: with ``lazy`` the loop
    re-evaluates one stale candidate at a time, exactly as the CELF heap."""
    k = data.draw(st.integers(1, len(sets)))
    fn = _coverage(sets)
    result = greedy_select(fn, len(sets), k, lazy=True)
    seeds, gains, evaluations = celf_rounds(fn, k, len(sets))
    assert result.seeds.tolist() == seeds.tolist()
    assert result.gains.tobytes() == gains.tobytes()
    assert result.evaluations == evaluations
    eager = greedy_select(fn, len(sets), k)
    assert eager.evaluations == eager.full_scan


def test_sparse_celf_rounds_never_argsort_the_pool(monkeypatch):
    """A CELF run on a sparse retweet graph (the ``select-sparse-celf``
    shape) orders only the keys that can still beat a round's best gain:
    no argsort ever sees an array as long as a round's pool, and the
    picks are the full scan's."""
    from repro.datasets.twitter import twitter_social_distancing

    problem = twitter_social_distancing(n=600, horizon=8, rng=3).problem(
        CumulativeScore()
    )
    k = 10
    seeds, gains, objective = full_scan_rounds(
        BatchedDMEngine(problem).open_session(), k, np.arange(problem.n)
    )
    expected = greedy_engine(BatchedDMEngine(problem), k, lazy=True)
    sizes = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    result = greedy_engine(BatchedDMEngine(problem), k, lazy=True)
    assert sizes and max(sizes) < problem.n - k
    assert result.seeds.tolist() == seeds.tolist() == expected.seeds.tolist()
    assert result.gains.tobytes() == gains.tobytes() == expected.gains.tobytes()
    assert result.objective == objective == expected.objective
    assert result.evaluations == expected.evaluations < result.full_scan // 10


@pytest.mark.parametrize("seed", [1, 7, 9])
@pytest.mark.parametrize("chunk", [1, 2, 32])
def test_floored_plurality_ties_match_full_scan(seed, chunk):
    """Plurality bounds are floored to integers, so keys equal to a
    round's best gain are common: the ones on smaller nodes must be
    evaluated, in ascending node order, and the first maximum wins."""
    state = random_instance(n=30, r=3, seed=seed)
    problem = FJVoteProblem(state, 0, 4, PluralityScore())
    engine = BatchedDMEngine(problem)
    session = engine.open_session()
    first = session.marginal_gains(np.arange(problem.n))
    keys = session.gain_bounds(np.arange(problem.n))
    # The case this test is for: a tied best gain, and keys equal to it.
    assert (first == first.max()).sum() > 1
    assert (keys == first.max()).any()
    seeds, gains, objective = full_scan_rounds(
        engine.open_session(), 4, np.arange(problem.n)
    )
    with mock.patch.object(greedy, "BOUND_CHUNK", chunk):
        result = greedy_engine(engine, 4)
    assert result.seeds.tolist() == seeds.tolist()
    assert result.gains.tobytes() == gains.tobytes()
    assert result.objective == objective
