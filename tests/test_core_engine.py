"""Tests for the ObjectiveEngine backends (repro.core.engine).

The central contract: :class:`BatchedDMEngine` is an *exact* reformulation
of per-set DM evaluation — identical objectives to 1e-10 across scores,
horizons, seed configurations and competitor seeds — verified both with
hand-picked cases and a hypothesis property suite.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.engine import (
    ENGINE_NAMES,
    BatchedDMEngine,
    DMEngine,
    EngineSpec,
    ObjectiveEngine,
    WalkEngine,
    make_engine,
    spec_is_exact_dm,
)
from repro.core.engine_mp import HostPool
from repro.core.greedy import greedy_dm, greedy_engine
from repro.core.problem import FJVoteProblem
from repro.datasets.twitter import twitter_social_distancing
from repro.graph.build import graph_from_edges
from repro.opinion.state import CampaignState
from repro.voting.scores import (
    CopelandScore,
    CumulativeScore,
    PApprovalScore,
    PluralityScore,
    PositionalPApprovalScore,
)
from tests.conftest import TCP_SPEC, random_instance

SCORE_FACTORIES = {
    "cumulative": CumulativeScore,
    "plurality": PluralityScore,
    "copeland": CopelandScore,
    "p-approval": lambda: PApprovalScore(2, 3),
    "positional": lambda: PositionalPApprovalScore(2, np.array([1.0, 0.5, 0.25])),
}


def make_problem(seed, score_name, horizon, *, n=13, r=3, with_competitor_seeds=False):
    state = random_instance(n=n, r=r, seed=seed)
    competitor_seeds = None
    if with_competitor_seeds:
        rng = np.random.default_rng(seed + 100)
        competitor_seeds = {1: rng.choice(n, size=2, replace=False)}
    return FJVoteProblem(
        state,
        0,
        horizon,
        SCORE_FACTORIES[score_name](),
        competitor_seeds=competitor_seeds,
    )


# ----------------------------------------------------------------------
# Property-based parity: batched == per-set to 1e-10
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 50),
    score_name=st.sampled_from(sorted(SCORE_FACTORIES)),
    horizon=st.integers(0, 6),
    with_competitor_seeds=st.booleans(),
    data=st.data(),
)
def test_batched_matches_per_set_objectives(
    seed, score_name, horizon, with_competitor_seeds, data
):
    problem = make_problem(
        seed, score_name, horizon, with_competitor_seeds=with_competitor_seeds
    )
    n = problem.n
    num_sets = data.draw(st.integers(1, 5))
    seed_sets = [
        data.draw(
            st.lists(st.integers(0, n - 1), min_size=0, max_size=4), label="seeds"
        )
        for _ in range(num_sets)
    ]
    per_set = DMEngine(problem).evaluate(seed_sets)
    batched = BatchedDMEngine(
        problem,
        batch_rows=data.draw(st.sampled_from([1, 2, 512])),
        densify_threshold=data.draw(st.sampled_from([0.0, 0.15, 1.0])),
    ).evaluate(seed_sets)
    np.testing.assert_allclose(batched, per_set, atol=1e-10, rtol=0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 30),
    score_name=st.sampled_from(sorted(SCORE_FACTORIES)),
    horizon=st.integers(0, 5),
)
def test_batched_greedy_selects_identical_seeds(seed, score_name, horizon):
    """Batched greedy must pick the same seeds as per-set greedy."""
    problem = make_problem(seed, score_name, horizon, n=11)
    per_set = greedy_dm(problem, 3, engine="dm")
    batched = greedy_dm(problem, 3, engine="dm-batched")
    assert per_set.seeds.tolist() == batched.seeds.tolist()
    assert batched.objective == pytest.approx(per_set.objective, abs=1e-10)
    np.testing.assert_allclose(batched.gains, per_set.gains, atol=1e-10)
    assert batched.evaluations == per_set.evaluations


# ----------------------------------------------------------------------
# Targeted engine behaviour
# ----------------------------------------------------------------------
def test_capability_flags():
    problem = make_problem(0, "plurality", 3)
    assert DMEngine(problem).supports_batch is False
    assert DMEngine(problem).is_estimate is False
    assert BatchedDMEngine(problem).supports_batch is True
    assert BatchedDMEngine(problem).is_estimate is False
    walk = make_engine("rw", problem, rng=0, walks_per_node=4)
    assert walk.supports_batch is True
    assert walk.is_estimate is True


def test_make_engine_specs():
    problem = make_problem(0, "cumulative", 2)
    assert isinstance(make_engine(None, problem), BatchedDMEngine)
    assert isinstance(make_engine("dm", problem), DMEngine)
    assert isinstance(make_engine("dm-batched", problem), BatchedDMEngine)
    assert isinstance(make_engine("rw", problem, walks_per_node=2), WalkEngine)
    assert isinstance(make_engine("sketch", problem, theta=50), WalkEngine)
    with make_engine("dm-mp:3", problem) as local_mp:
        assert type(local_mp) is BatchedDMEngine
    with make_engine("dm-mp:tcp=127.0.0.1:9", problem) as host_pool:
        assert isinstance(host_pool, HostPool)
        assert host_pool.hosts == ("127.0.0.1:9",)
    engine = DMEngine(problem)
    assert make_engine(engine, problem) is engine
    with pytest.raises(ValueError):
        make_engine("warp-drive", problem)
    assert set(ENGINE_NAMES) == {
        "dm",
        "dm-batched",
        "dm-mp",
        "rw",
        "sketch",
        "rw-store",
    }
    rw_store = make_engine("rw-store:2", problem, rng=0, walks_per_node=2)
    assert isinstance(rw_store, WalkEngine)
    # Theorem 10's λ for the default ε = 0.1 at ρ = 0.9.
    assert rw_store.walks_per_node == 150


def test_parse_engine_spec_and_exactness():
    for spec, name, kwargs in (
        ("dm-batched", "dm-batched", {}),
        ("dm-mp", "dm-batched", {}),
        ("dm-mp:4", "dm-batched", {}),
    ):
        parsed = EngineSpec.parse(spec)
        assert (parsed.name, parsed.kwargs()) == (name, kwargs)
    for spec in (None, "dm", "dm-batched", "dm-mp", "dm-mp:2"):
        assert spec_is_exact_dm(spec), spec
    for spec in ("rw", "sketch", "dm-mp:0", "nope", 7):
        assert not spec_is_exact_dm(spec), spec


@pytest.mark.parametrize(
    "bad", ["dm-mp:", "dm-mp:0", "dm-mp:-2", "dm-mp:two", "dm-mp:1:1", "rw:3"]
)
def test_make_engine_rejects_malformed_worker_specs(bad):
    """Malformed dm-mp:<workers> forms fail with the registry's single
    ValueError — the same message the CLI --engine option surfaces."""
    problem = make_problem(0, "cumulative", 2)
    with pytest.raises(ValueError) as excinfo:
        make_engine(bad, problem)
    message = str(excinfo.value)
    for name in ENGINE_NAMES:
        assert name in message
    assert "dm-mp:<workers>" in message


def test_make_engine_unknown_spec_error_lists_engine_names():
    """The ValueError must name every registered spec (the CLI help's source)."""
    problem = make_problem(0, "cumulative", 2)
    for bad in ("warp-drive", "", 42):
        with pytest.raises(ValueError) as excinfo:
            make_engine(bad, problem)
        message = str(excinfo.value)
        for name in ENGINE_NAMES:
            assert name in message


def test_marginal_gains_match_evaluate_differences():
    problem = make_problem(3, "plurality", 4)
    engine = BatchedDMEngine(problem)
    base = (2, 5)
    candidates = np.array([0, 1, 7, 9])
    gains = engine.marginal_gains(base, candidates)
    base_value = engine.evaluate_one(base)
    for c, g in zip(candidates, gains):
        assert g == pytest.approx(
            engine.evaluate_one(base + (int(c),)) - base_value, abs=1e-10
        )


def test_duplicate_and_empty_seed_sets():
    problem = make_problem(4, "copeland", 3)
    engine = BatchedDMEngine(problem)
    assert engine.evaluate_one(()) == pytest.approx(problem.objective(()), abs=1e-12)
    assert engine.evaluate_one((5, 5, 5)) == pytest.approx(
        problem.objective(np.array([5])), abs=1e-10
    )
    assert engine.evaluate([]).size == 0


def test_out_of_range_seeds_raise():
    problem = make_problem(0, "cumulative", 2)
    with pytest.raises(ValueError):
        BatchedDMEngine(problem).evaluate([(problem.n,)])
    with pytest.raises(ValueError):
        BatchedDMEngine(problem).evaluate([(-1,)])


@pytest.mark.parametrize("spec", ["dm", "dm-batched", "rw", "objective"])
@pytest.mark.parametrize(
    "bad",
    [(1.7,), (True,), np.array([1.0, 2.0]), np.array([True, False])],
    ids=["float", "bool", "float-array", "bool-array"],
)
def test_non_integer_seed_ids_raise(spec, bad):
    """Float and bool seed ids are rejected, never truncated to a node."""
    problem = make_problem(0, "plurality", 2)
    if spec == "objective":
        with pytest.raises(ValueError, match="must be integers"):
            problem.objective(bad)
        return
    engine = make_engine(spec, problem, rng=0)
    with pytest.raises(ValueError, match="must be integers"):
        engine.evaluate([bad])
    with pytest.raises(ValueError, match="must be integers"):
        engine.query_sets([bad])
    session = engine.open_session()
    with pytest.raises(ValueError, match="must be integers"):
        session.marginal_gains(bad)
    with pytest.raises(ValueError, match="must be an integer"):
        session.commit(bad[0])
    # Integer ids of any integer dtype, and the empty set, still pass.
    ok = engine.evaluate([(np.int32(1),), np.array([1], dtype=np.uint8), ()])
    assert ok[0] == ok[1]
    if not engine.is_estimate:
        assert ok[0] == problem.objective([1])
        assert ok[2] == problem.objective(())


def test_user_weights_restrict_cumulative():
    """Weighted cumulative objective == weight * sum over the masked users."""
    problem = make_problem(1, "cumulative", 3)
    weights = np.zeros(problem.n)
    favorable = np.array([0, 3, 4, 8])
    weights[favorable] = 0.5
    engine = BatchedDMEngine(problem, user_weights=weights)
    seeds = (2, 6)
    expected = 0.5 * float(problem.target_opinions(np.array(seeds))[favorable].sum())
    assert engine.evaluate_one(seeds) == pytest.approx(expected, abs=1e-12)


def test_user_weights_reject_non_separable():
    problem = make_problem(1, "copeland", 3)
    with pytest.raises(TypeError):
        BatchedDMEngine(problem, user_weights=np.ones(problem.n))


# ----------------------------------------------------------------------
# Walk-engine adapter
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", ["rw", "sketch"])
def test_walk_engine_gains_consistent_with_evaluate(spec):
    problem = make_problem(2, "plurality", 3, n=12, r=2)
    engine = make_engine(spec, problem, rng=7, walks_per_node=8, theta=300)
    base = (4,)
    candidates = np.array([0, 1, 2, 3])
    gains = engine.marginal_gains(base, candidates)
    for c, g in zip(candidates, gains):
        direct = engine.evaluate_one(base + (int(c),)) - engine.evaluate_one(base)
        assert g == pytest.approx(direct, abs=1e-9)


def test_walk_engine_reset_and_replay():
    """Evaluating sets in any order must not leak truncation state."""
    problem = make_problem(5, "cumulative", 3, n=12, r=2)
    engine = make_engine("rw", problem, rng=3, walks_per_node=8)
    sets = [(1, 2), (), (9,), (1, 2), ()]
    first = engine.evaluate(sets)
    again = engine.evaluate(sets[::-1])[::-1]
    np.testing.assert_allclose(first, again, atol=1e-12)


def test_greedy_engine_over_walk_engine_runs():
    problem = make_problem(6, "plurality", 3, n=12, r=2)
    engine = make_engine("rw", problem, rng=11, walks_per_node=8)
    result = greedy_engine(engine, 3)
    assert result.seeds.size == 3
    assert np.unique(result.seeds).size == 3


@pytest.mark.parametrize("spec", ["rw", "sketch"])
def test_walk_engine_selections_reproducible_with_rng(spec):
    """A seeded rng must make walk-engine greedy selections deterministic."""
    problem = make_problem(7, "plurality", 3, n=14, r=2)
    runs = [
        greedy_dm(problem, 3, engine=spec, rng=123).seeds.tolist()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_sandwich_final_scoring_ignores_weighted_or_foreign_engines():
    """The sandwich arg-max must always score finalists exactly under F."""
    from repro.core.sandwich import sandwich_select

    problem = make_problem(9, "plurality", 3, n=12, r=2)
    # A weighted engine on a cumulative clone (e.g. a reused LB engine)
    # must not decide the winner among {F, UB, LB}: it is bound to a
    # different problem and a scaled objective.
    cum = problem.with_score(CumulativeScore())
    weighted = BatchedDMEngine(cum, user_weights=np.full(problem.n, 7.0))
    reference = sandwich_select(problem, 2, method="dm", engine="dm-batched")
    hijacked = sandwich_select(
        problem,
        2,
        feasible_selector=lambda k: reference.seeds_feasible,
        engine=weighted,
    )
    assert hijacked.objective == pytest.approx(
        problem.objective(hijacked.seeds), abs=1e-10
    )
    assert hijacked.seeds.tolist() == reference.seeds.tolist()
    assert reference.objective == pytest.approx(
        problem.objective(reference.seeds), abs=1e-10
    )


def test_walk_engine_small_candidate_gains_match_full_scan():
    """The few-candidate path and the all-nodes scan must agree."""
    problem = make_problem(8, "cumulative", 3, n=16, r=2)
    base = (3,)
    few = np.array([0, 1])
    a = make_engine("rw", problem, rng=5, walks_per_node=8)
    b = make_engine("rw", problem, rng=5, walks_per_node=8)
    gains_few = a.marginal_gains(base, few)  # size < 8: per-candidate path
    gains_all = b.marginal_gains(base, np.arange(16))[few]  # full scan
    np.testing.assert_allclose(gains_few, gains_all, atol=1e-9)


# ----------------------------------------------------------------------
# Selection sessions: warm-start parity and state isolation
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 40),
    score_name=st.sampled_from(sorted(SCORE_FACTORIES)),
    horizon=st.integers(0, 6),
    data=st.data(),
)
def test_session_marginal_gains_match_stateless_rounds(
    seed, score_name, horizon, data
):
    """Warm-started rounds == stateless from-scratch rounds to 1e-10.

    Commits a random seed sequence one element at a time; after every
    commit, the session's gains (candidate deltas evolved against the
    committed trajectory) must match a fresh engine's stateless gains
    (the full set replayed from the unseeded base).
    """
    problem = make_problem(seed, score_name, horizon)
    n = problem.n
    engine = BatchedDMEngine(problem)
    reference = BatchedDMEngine(problem)
    session = engine.open_session()
    order = data.draw(
        st.lists(
            st.integers(0, n - 1), min_size=1, max_size=4, unique=True
        ),
        label="commit order",
    )
    for committed, nxt in enumerate(order):
        candidates = np.array(sorted(set(range(0, n, 3)) - set(order[:committed])))
        warm = session.marginal_gains(candidates)
        cold = reference.marginal_gains(tuple(order[:committed]), candidates)
        np.testing.assert_allclose(warm, cold, atol=1e-10, rtol=0)
        session.commit(nxt)
    assert session.value == pytest.approx(
        reference.evaluate_one(tuple(order)), abs=1e-10
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 25),
    score_name=st.sampled_from(sorted(SCORE_FACTORIES)),
    horizon=st.integers(0, 5),
)
def test_session_greedy_matches_manual_stateless_greedy(seed, score_name, horizon):
    """Session-driven greedy must select byte-identical seeds to PR-1-style
    stateless rounds (one engine.marginal_gains per round, empty-base)."""
    problem = make_problem(seed, score_name, horizon, n=11)
    k = 3
    warm = greedy_engine(BatchedDMEngine(problem), k, lazy=False)
    engine = BatchedDMEngine(problem)
    selected: list[int] = []
    gains_trace: list[float] = []
    current = engine.evaluate_one(())
    remaining = np.arange(problem.n)
    for _ in range(k):
        gains = engine.marginal_gains(
            tuple(selected), remaining, base_objective=current
        )
        idx = int(np.argmax(gains))
        selected.append(int(remaining[idx]))
        gains_trace.append(float(gains[idx]))
        current += gains_trace[-1]
        remaining = np.delete(remaining, idx)
    assert warm.seeds.tolist() == selected
    np.testing.assert_allclose(warm.gains, gains_trace, atol=1e-10)
    assert warm.objective == pytest.approx(current, abs=1e-10)


def test_session_prefix_values_and_wins_match_exact():
    problem = make_problem(11, "plurality", 4, n=14, r=3)
    engine = BatchedDMEngine(problem)
    session = engine.open_session()
    result = greedy_engine(engine, 6, session=session)
    ranking = result.seeds
    sizes = [0, 1, 3, 6]
    exact = DMEngine(problem).evaluate([ranking[:k] for k in sizes])
    np.testing.assert_allclose(session.prefix_values(sizes), exact, atol=1e-10)
    # Probe out of order to exercise the nearest-cached-prefix extension.
    for k in (6, 3, 5, 1, 4, 0, 2):
        assert session.prefix_wins(k) == problem.target_wins(ranking[:k])
    with pytest.raises(ValueError):
        session.prefix_wins(7)
    with pytest.raises(ValueError):
        session.prefix_values([-1])


@pytest.mark.parametrize("spec", ["dm", "dm-batched", "dm-mp:2", "rw", "sketch"])
def test_open_session_commit_tracks_engine_evaluate(spec):
    """Every backend's session accumulates exactly its own evaluate values."""
    problem = make_problem(3, "cumulative", 3, n=12, r=2)
    kwargs = {"walks_per_node": 8, "theta": 200} if spec in ("rw", "sketch") else {}
    with make_engine(spec, problem, rng=9, **kwargs) as engine:
        session = engine.open_session()
        assert session.value == pytest.approx(engine.evaluate_one(()), abs=1e-10)
        session.commit(4)
        session.commit(7)
        assert session.seeds == (4, 7)
        assert session.value == pytest.approx(engine.evaluate_one((4, 7)), abs=1e-9)
        np.testing.assert_allclose(
            session.marginal_gains(np.array([0, 1])),
            engine.marginal_gains((4, 7), [0, 1]),
            atol=1e-9,
        )


def test_interleaved_sessions_do_not_thrash_base_cache():
    """Regression: the old single-slot ``base_value`` memo recomputed the
    base on every alternation between two interleaved selection loops
    (e.g. sandwich's upper/lower greedies sharing one engine).  Sessions
    carry their own base value, so each interleaved round evaluates only
    its candidate extension."""
    problem = make_problem(5, "cumulative", 3)
    engine = DMEngine(problem)
    one = engine.open_session()
    two = engine.open_session(base=(3,))
    baseline = engine.stats.sets_evaluated
    for cand in (0, 1, 2, 4):
        one.marginal_gains(np.array([cand]))
        two.marginal_gains(np.array([cand]))
    # 8 interleaved single-candidate rounds -> exactly 8 evaluated sets
    # (the thrashing memo re-evaluated the base too: 16).
    assert engine.stats.sets_evaluated - baseline == 8


def test_session_warm_start_does_less_evolution_work():
    """Deterministic miniature of benchmarks/bench_session_warmstart.py:
    warm-started exhaustive greedy must spend strictly less evolution work
    than stateless rounds while selecting the same seeds."""
    problem = make_problem(13, "plurality", 8, n=40, r=2)
    k = 4
    warm_engine = BatchedDMEngine(problem)
    warm = greedy_engine(warm_engine, k, lazy=False)
    cold_engine = BatchedDMEngine(problem)
    selected: list[int] = []
    current = cold_engine.evaluate_one(())
    remaining = np.arange(problem.n)
    for _ in range(k):
        gains = cold_engine.marginal_gains(
            tuple(selected), remaining, base_objective=current
        )
        idx = int(np.argmax(gains))
        selected.append(int(remaining[idx]))
        current += float(gains[idx])
        remaining = np.delete(remaining, idx)
    assert warm.seeds.tolist() == selected
    n = problem.n
    assert warm_engine.stats.evolution_work(n) < cold_engine.stats.evolution_work(n)


def test_engine_stats_reset():
    problem = make_problem(0, "cumulative", 3)
    engine = BatchedDMEngine(problem)
    engine.evaluate([(1,), (2, 3)])
    assert engine.stats.evaluate_calls == 1
    assert engine.stats.sets_evaluated == 2
    engine.stats.reset()
    assert engine.stats.evaluate_calls == 0
    assert engine.stats.evolution_work(problem.n) == 0.0


# ----------------------------------------------------------------------
# Sparse-phase re-pin == dense-only evolution, bit for bit
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 40),
    score_name=st.sampled_from(sorted(SCORE_FACTORIES)),
    horizon=st.integers(1, 6),
    data=st.data(),
)
def test_sparse_repin_matches_dense_only_oracle(seed, score_name, horizon, data):
    """Every sparse step (unsorted product, data-only pin writes, missing
    pins appended at row ends) must reproduce the dense-only evolution bit
    for bit, on both the stateless and warm-started paths."""
    problem = make_problem(seed, score_name, horizon)
    n = problem.n
    num_sets = data.draw(st.integers(1, 5))
    seed_sets = [
        data.draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=4))
        for _ in range(num_sets)
    ]
    # densify_threshold=1.0 keeps every step of a call with three or more
    # columns in the sparse phase; a narrow call (one or two columns) takes
    # none at any threshold.  densify_threshold=0.0 takes none (whenever
    # some set is non-empty).
    sparse_engine = BatchedDMEngine(problem, densify_threshold=1.0)
    oracle = BatchedDMEngine(problem, densify_threshold=0.0)
    assert np.array_equal(
        sparse_engine.target_opinion_rows(seed_sets),
        oracle.target_opinion_rows(seed_sets),
    )
    if num_sets >= 3:
        assert sparse_engine.stats.sparse_steps > 0
    else:
        assert sparse_engine.stats.sparse_steps == 0
    if any(seed_sets):
        assert oracle.stats.sparse_steps == 0
    # Warm-started rows exercise zero_rows (committed-seed zeroing).
    commits = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    )
    session = oracle.open_session()
    for commit in commits:
        candidates = np.array(sorted(set(range(n)) - set(commits)))
        committed = np.array(session.seeds, dtype=np.int64)
        assert np.array_equal(
            _candidate_rows(sparse_engine, session._traj, committed, candidates),
            _candidate_rows(oracle, session._traj, committed, candidates),
        )
        session.commit(commit)


def _candidate_rows(engine, traj, committed, candidates) -> np.ndarray:
    """``(C, n)`` horizon rows of ``committed + {c}`` per candidate, evolved
    against ``traj`` by the engine's own warm-start block machinery."""
    sets = engine._candidate_sets(candidates)
    return engine._evolved_rows(sets, traj=traj, zero_rows=committed)


def _gapped_problem() -> FJVoteProblem:
    """8 users, edges only in the 2-cycles 0<->1 and 6<->7; users 2..5 are
    fully stubborn about the target, so their product rows are always
    empty."""
    rng = np.random.default_rng(5)
    graph = graph_from_edges(
        8, np.array([0, 1, 6, 7]), np.array([1, 0, 7, 6]), rng.uniform(0.2, 0.9, 4)
    )
    stubbornness = rng.uniform(0.1, 0.6, size=(2, 8))
    stubbornness[0, 2:6] = 1.0
    state = CampaignState(
        graphs=(graph, graph),
        initial_opinions=rng.uniform(0, 1, size=(2, 8)),
        stubbornness=stubbornness,
    )
    return FJVoteProblem(state, 0, 5, CumulativeScore())


def test_missing_pins_sharing_an_insertion_point_splice_in_row_order():
    """Column 0 pins row 5 and column 1 pins row 2; rows 2..5 are empty
    after every product, so both missing pins insert at the same offset.
    Ordered by pin index, row 5's pin would land inside row 2."""
    problem = _gapped_problem()
    sparse_engine = BatchedDMEngine(problem, densify_threshold=1.0)
    oracle = BatchedDMEngine(problem, densify_threshold=0.0)
    # Multi-pin columns (the sorted-key search) beside single pins.
    sets = [(5,), (2,), (0, 3, 4), (4, 1), (7,)]
    assert np.array_equal(
        sparse_engine.target_opinion_rows(sets), oracle.target_opinion_rows(sets)
    )
    assert sparse_engine.stats.sparse_steps == problem.horizon
    assert sparse_engine.stats.repin_inserted > 0
    # One pin per column (the slot table), with committed zero rows.
    session = oracle.open_session()
    session.commit(6)
    session.commit(3)
    committed = np.array(session.seeds, dtype=np.int64)
    candidates = np.array([5, 2, 0, 7, 4])
    assert np.array_equal(
        _candidate_rows(sparse_engine, session._traj, committed, candidates),
        _candidate_rows(oracle, session._traj, committed, candidates),
    )


def test_sparse_phase_never_sorts(monkeypatch):
    problem = make_problem(3, "cumulative", 5)
    engine = BatchedDMEngine(problem, densify_threshold=1.0)
    session = engine.open_session()
    session.commit(4)
    candidates = np.arange(problem.n)
    expected = session.marginal_gains(candidates)

    def refuse(self, *args, **kwargs):
        raise AssertionError("the sparse phase sorted a product")

    monkeypatch.setattr(sparse.csr_matrix, "sort_indices", refuse)
    monkeypatch.setattr(sparse.csr_array, "sort_indices", refuse)
    steps = engine.stats.sparse_steps
    assert np.array_equal(session.marginal_gains(candidates), expected)
    engine.evaluate([(1,), (2, 5, 9), (0, 12)])
    assert engine.stats.sparse_steps > steps


def test_sparse_phase_calls_its_kernels_directly(monkeypatch):
    """Sparse steps call ``csr_matmat_maxnnz``/``csr_matmat`` on raw
    arrays, as the dense steps call ``csr_matvecs``: scipy's sparse ``@``
    is never entered, and the bytes are those it would give."""
    problem = _sparse_retweet_problem()
    sets = [(v, (v * 7) % problem.n) for v in range(70)]
    engines = _engines_by_threads(problem)
    expected = [engine.target_opinion_rows(sets) for engine in engines]
    counters = [replace(engine.stats) for engine in engines]

    def refuse(self, *args, **kwargs):
        raise AssertionError("the sparse phase went through scipy's @")

    for cls in (sparse.csr_matrix, sparse.csr_array, sparse.csc_matrix):
        monkeypatch.setattr(cls, "__matmul__", refuse)
        monkeypatch.setattr(cls, "_matmul_sparse", refuse)
    for engine, rows, before in zip(engines, expected, counters):
        engine.stats.reset()
        assert engine.target_opinion_rows(sets).tobytes() == rows.tobytes()
        assert engine.stats.sparse_steps == before.sparse_steps > 0
        assert engine.stats.sparse_nnz == before.sparse_nnz
        assert engine.stats.repin_inserted == before.repin_inserted
    # The same rows, every product through scipy's @ (the parity oracle).
    monkeypatch.undo()
    engine = engines[0]
    calls = []

    def through_matmul(wt_, delta, c):
        data, indices, indptr = delta
        product = wt_ @ sparse.csr_matrix((data, indices, indptr), shape=(problem.n, c))
        calls.append(c)
        return product.data, product.indices, product.indptr

    monkeypatch.setattr(engine, "_sparse_product", through_matmul)
    assert engine.target_opinion_rows(sets).tobytes() == expected[0].tobytes()
    assert calls


def test_sparse_product_index_dtype_follows_the_operator():
    """int64 operator indices carry through the product (scipy's choice),
    with the bytes of the int32 product."""
    problem = _sparse_retweet_problem()
    engine = BatchedDMEngine(problem)
    wt = engine._wt_scaled
    rng = np.random.default_rng(2)
    delta = sparse.random(problem.n, 5, density=0.01, format="csr", random_state=rng)
    arrays = (delta.data, delta.indices, delta.indptr)
    narrow = BatchedDMEngine._sparse_product(wt, arrays, 5)
    wide_wt = wt.copy()  # the constructor would narrow int64 indices again
    wide_wt.indices = wt.indices.astype(np.int64)
    wide_wt.indptr = wt.indptr.astype(np.int64)
    wide = BatchedDMEngine._sparse_product(wide_wt, arrays, 5)
    reference = wt @ delta
    assert narrow[1].dtype == np.int32 and wide[1].dtype == np.int64
    assert wide[2].dtype == np.int64
    for got in (narrow, wide):
        assert got[0].tobytes() == reference.data.tobytes()
        assert np.array_equal(got[1], reference.indices)
        assert np.array_equal(got[2], reference.indptr)


# ----------------------------------------------------------------------
# Narrow calls (one or two columns) skip the sparse phase, bit for bit
# ----------------------------------------------------------------------
def _sparse_retweet_problem() -> FJVoteProblem:
    """A retweet graph sparse enough that a 64-column call takes sparse
    steps at the default densify threshold."""
    dataset = twitter_social_distancing(n=600, horizon=8, rng=3)
    return dataset.problem(PluralityScore())


def _narrow_calls(engine, c, total, call):
    """``call(lo, hi)`` over ``[0, total)`` in chunks of ``c``, with the
    chunks' sparse steps and dense column-steps."""
    engine.stats.reset()
    out = [call(lo, min(lo + c, total)) for lo in range(0, total, c)]
    return out, engine.stats.sparse_steps, engine.stats.dense_column_steps


def _scored(engine, rows):
    """Objectives of ``(C, n)`` rows, scored in one call from a row-major
    block (the scorer sums each column contiguously whatever the layout)."""
    return engine._score_cols(np.ascontiguousarray(rows.T))


@pytest.mark.parametrize("commits", [(), (11, 240)], ids=["fresh", "committed"])
def test_narrow_candidate_rows_match_wide_call_bitwise(commits):
    """A candidate's row from a one- or two-column call (straight dense
    steps) equals its row inside a 64-column call (sparse steps, then
    dense), with and without committed ``zero_rows``; the narrow values
    equal the wide call's values and the wide rows scored in one call."""
    problem = _sparse_retweet_problem()
    engine = BatchedDMEngine(problem)
    session = engine.open_session()
    for seed in commits:
        session.commit(seed)
    traj = session._traj
    committed = np.array(session.seeds, dtype=np.int64)
    free = np.setdiff1d(np.arange(problem.n), committed)
    candidates = np.random.default_rng(4).choice(free, size=64, replace=False)
    engine.stats.reset()
    wide = _candidate_rows(engine, traj, committed, candidates)
    assert engine.stats.sparse_steps > 0
    wide_values = engine.extension_values(traj, committed, candidates)
    assert wide_values.tobytes() == _scored(engine, wide).tobytes()
    for c in (1, 2):
        rows, sparse_steps, dense_steps = _narrow_calls(
            engine,
            c,
            64,
            lambda lo, hi: _candidate_rows(
                engine, traj, committed, candidates[lo:hi]
            ),
        )
        assert (sparse_steps, dense_steps) == (0, 64 * problem.horizon)
        assert np.concatenate(rows).tobytes() == wide.tobytes()
        values, sparse_steps, _ = _narrow_calls(
            engine,
            c,
            64,
            lambda lo, hi: engine.extension_values(
                traj, committed, candidates[lo:hi]
            ),
        )
        assert sparse_steps == 0
        assert np.concatenate(values).tobytes() == wide_values.tobytes()


def test_narrow_query_sets_and_evaluate_match_wide_call_bitwise():
    """Stateless multi-seed sets: ``query_sets`` and ``evaluate`` answer a
    one- or two-set call exactly as they answer the set inside a 64-set
    call, and both equal the wide rows scored in one call."""
    problem = _sparse_retweet_problem()
    engine = BatchedDMEngine(problem)
    rng = np.random.default_rng(9)
    sets = [
        tuple(rng.choice(problem.n, size=int(rng.integers(1, 4)), replace=False))
        for _ in range(64)
    ]
    engine.stats.reset()
    wide_values, wide_wins = engine.query_sets(sets, wins=True)
    assert engine.stats.sparse_steps > 0
    wide_rows = engine.target_opinion_rows(sets)
    assert wide_values.tobytes() == _scored(engine, wide_rows).tobytes()
    assert wide_values.tobytes() == engine.evaluate(sets).tobytes()
    for c in (1, 2):
        answers, sparse_steps, dense_steps = _narrow_calls(
            engine, c, 64, lambda lo, hi: engine.query_sets(sets[lo:hi], wins=True)
        )
        assert (sparse_steps, dense_steps) == (0, 64 * problem.horizon)
        values = np.concatenate([v for v, _ in answers])
        wins = np.concatenate([w for _, w in answers])
        assert values.tobytes() == wide_values.tobytes()
        assert np.array_equal(wins, wide_wins)
        evaluated, sparse_steps, _ = _narrow_calls(
            engine, c, 64, lambda lo, hi: engine.evaluate(sets[lo:hi])
        )
        assert sparse_steps == 0
        assert np.concatenate(evaluated).tobytes() == wide_values.tobytes()


# ----------------------------------------------------------------------
# Wide calls evolve their dense blocks on a thread pool, bit for bit
# ----------------------------------------------------------------------
def _dense_random_problem() -> FJVoteProblem:
    """A graph dense enough that every wide call densifies at once."""
    state = random_instance(n=90, r=3, density=0.5, seed=5)
    return FJVoteProblem(state, 0, 5, PluralityScore())


def _engines_by_threads(problem, threads=(1, 2)):
    engines = []
    for t in threads:
        engine = BatchedDMEngine(problem, batch_rows=8)
        engine._threads = t  # forced, so a one-core runner covers T=2
        engines.append(engine)
    return engines


def _wide_answers(engine) -> list[bytes]:
    problem = engine.problem
    rng = np.random.default_rng(6)
    sets = [
        tuple(rng.choice(problem.n, size=int(rng.integers(1, 4)), replace=False))
        for _ in range(45)
    ]
    values, wins = engine.query_sets(sets, wins=True)
    answers = [
        engine.target_opinion_rows(sets),
        engine.evaluate(sets),
        values,
        wins,
    ]
    candidates = np.arange(min(problem.n, 70))
    for commits in ((), (3, 17)):
        session = engine.open_session()
        for seed in commits:
            session.commit(seed)
        committed = np.array(session.seeds, dtype=np.int64)
        free = np.setdiff1d(candidates, committed)
        answers.append(engine.extension_values(session._traj, committed, free))
        answers.append(_candidate_rows(engine, session._traj, committed, free))
    return [a.tobytes() for a in answers]


@pytest.mark.parametrize(
    "make", [_sparse_retweet_problem, _dense_random_problem], ids=["sparse", "dense"]
)
def test_threaded_blocks_match_single_thread_bitwise(make):
    """T=2 answers every wide-call API, the greedy selection and every
    counter exactly as T=1 does, on a graph whose wide calls take sparse
    steps and on one that densifies at once."""
    problem = make()
    single, threaded = _engines_by_threads(problem)
    assert _wide_answers(threaded) == _wide_answers(single)
    assert threaded.stats == single.stats
    assert single.stats.dense_column_steps > 0
    if make is _sparse_retweet_problem:
        assert single.stats.sparse_steps > 0
    else:
        assert single.stats.sparse_steps == 0
    for lazy in (False, True):
        a = greedy_engine(single, 4, lazy=lazy)
        b = greedy_engine(threaded, 4, lazy=lazy)
        assert a.seeds.tolist() == b.seeds.tolist()
        assert a.objective == b.objective
        assert np.asarray(a.gains).tobytes() == np.asarray(b.gains).tobytes()
    assert threaded.stats == single.stats


def test_oversubscribed_threads_with_fast_switching_match_single_thread():
    """More threads than cores, switching every few microseconds: the
    blocks still come back in order with the same bytes and counters."""
    problem = _sparse_retweet_problem()
    single, threaded = _engines_by_threads(problem, threads=(1, 4))
    sets = [(v, (v * 7) % problem.n) for v in range(200)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        rows = threaded.target_opinion_rows(sets)
    finally:
        sys.setswitchinterval(previous)
    assert rows.tobytes() == single.target_opinion_rows(sets).tobytes()
    assert threaded.stats == single.stats


@pytest.mark.parametrize("densify", [0.1, 10.0], ids=["switch", "horizon"])
def test_column_groups_answer_alike_for_every_thread_count(densify):
    """T = 1, 2, 3 and 4 column groups give the same bytes and the same
    ``EngineStats`` for every wide API, multi-seed sets (the pin-key path)
    and committed ``zero_rows``; 45 sets and 70 candidates make 6 and 9
    blocks of 8, which 4 groups do not divide.  With ``densify`` 10 the
    sparse phase reaches the horizon and no dense step is left."""
    problem = _sparse_retweet_problem()
    engines = []
    for t in (1, 2, 3, 4):
        engine = BatchedDMEngine(problem, batch_rows=8, densify_threshold=densify)
        engine._threads = t
        engines.append(engine)
    answers = [_wide_answers(engine) for engine in engines]
    for engine, answer in zip(engines[1:], answers[1:]):
        assert answer == answers[0]
        assert engine.stats == engines[0].stats
    stats = engines[0].stats
    assert stats.sparse_steps > 0
    assert stats.repin_steps == stats.sparse_steps  # once per step, not group
    assert stats.repin_inserted > 0
    if densify > 1:
        assert stats.dense_column_steps == 0
    else:
        assert stats.dense_column_steps > 0


def test_blocks_without_dense_steps_are_scored_column_major():
    """A wide call whose sparse phase reaches the horizon scores each block
    in the column-major layout ``toarray`` gives it; with steps left, in
    the row-major layout of the dense kernel.  The cumulative score's
    column sums depend on that layout in their last bits."""
    problem = _sparse_retweet_problem().with_score(CumulativeScore())
    sets = [(v, (v * 7) % problem.n) for v in range(45)]
    for densify, layout in ((10.0, np.asfortranarray), (0.1, np.ascontiguousarray)):
        for t in (1, 3):
            engine = BatchedDMEngine(problem, batch_rows=8, densify_threshold=densify)
            engine._threads = t
            rows = engine.target_opinion_rows(sets)
            expected = [
                engine._score_cols(layout(rows[lo : lo + 8].T))
                for lo in range(0, 45, 8)
            ]
            values = engine.evaluate(sets)
            assert values.tobytes() == np.concatenate(expected).tobytes()


def test_lockstep_switch_matches_one_group_at_every_threshold():
    """The switch to dense steps, decided from the groups' summed ``nnz``
    and growth, lands on the same step as one group's at every densify
    threshold, including those where the growth prediction decides it."""
    problem = _sparse_retweet_problem()
    rng = np.random.default_rng(6)
    sets = [
        tuple(rng.choice(problem.n, size=int(rng.integers(1, 4)), replace=False))
        for _ in range(45)
    ]
    engines = _engines_by_threads(problem)
    # A 0.0025 grid: the growth prediction decides only narrow windows.
    for densify in np.arange(0.02, 0.5, 0.0025):
        for engine in engines:
            engine.densify_threshold = densify
            engine.stats.reset()
        rows = [engine.target_opinion_rows(sets).tobytes() for engine in engines]
        assert rows[1] == rows[0], densify
        assert engines[1].stats == engines[0].stats, densify


def _record_pools(monkeypatch) -> list[int]:
    """The ``max_workers`` of every thread pool ``_evolve_blocks`` makes."""
    from repro.core import engine as engine_module

    made = []

    class RecordingPool(engine_module.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(engine_module, "ThreadPoolExecutor", RecordingPool)
    return made


def test_calls_of_one_block_start_no_thread(monkeypatch):
    """A call of at most ``batch_rows`` columns (every serve and CELF
    refresh call) makes no pool and starts no thread, whatever ``T``."""
    made = _record_pools(monkeypatch)
    problem = _sparse_retweet_problem()
    (engine,) = _engines_by_threads(problem, threads=(4,))
    session = engine.open_session()
    session.commit(11)
    traj, committed = session._traj, np.array(session.seeds, dtype=np.int64)
    baseline = threading.active_count()
    running = []
    score = engine._score_cols

    def counting_score(cols):
        running.append(threading.active_count())
        return score(cols)

    engine._score_cols = counting_score
    for width in (1, 2, 8):
        sets = [(v, v + 1) for v in range(width)]
        candidates = np.arange(20, 20 + width)
        engine.evaluate(sets)
        engine.query_sets(sets, wins=True)
        engine.target_opinion_rows(sets)
        engine.extension_values(traj, committed, candidates)
        _candidate_rows(engine, traj, committed, candidates)
        session.marginal_gains(candidates)
    assert made == []
    assert set(running) == {baseline}
    engine.evaluate([(v,) for v in range(9)])  # two blocks: a pool of one
    assert made == [1]
    assert threading.active_count() == baseline


def test_thread_count_fits_the_batch_budget(monkeypatch):
    """T threads hold 2T block buffers: fewer threads (or none) when
    ``max_batch_bytes`` cannot hold them, never more than the blocks.  The
    calling thread works one column group, so the pool has T - 1."""
    made = _record_pools(monkeypatch)
    problem = _dense_random_problem()
    block_bytes = 8 * problem.n * 8
    cases = ((3, 40, []), (4, 40, [1]), (9, 40, [3]), (99, 24, [2]))
    for buffers, sets, pools in cases:
        engine = BatchedDMEngine(
            problem, batch_rows=8, max_batch_bytes=buffers * block_bytes
        )
        engine._threads = 4
        made.clear()
        engine.evaluate([(v,) for v in range(sets)])
        assert made == pools, buffers


@pytest.mark.parametrize("width", [1, 3, 8, 64])
def test_block_step_kernel_matches_sparse_matmul_bitwise(width):
    """The pool threads' in-place ``csr_matvecs`` step writes the bytes
    ``W @ X`` returns (a guard on scipy's private kernel)."""
    problem = _sparse_retweet_problem()
    engine = BatchedDMEngine(problem)
    wt = engine._wt_scaled
    x = np.random.default_rng(width).random((problem.n, width))
    no_pins = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    stepped = BatchedDMEngine._block_steps(
        wt,
        np.zeros_like(x),
        np.empty_like(x),
        sparse.csc_matrix(x),
        problem.target_trajectory(),
        range(1, 2),
        no_pins,
        None,
        np.zeros((problem.n, 1)),
    )
    assert stepped.tobytes() == (wt @ x).tobytes()
    assert stepped.tobytes() == (wt @ np.asfortranarray(x)).tobytes()


def test_consumer_error_mid_call_stops_the_block_threads():
    """A consumer that raises between blocks, or a group whose sparse step
    raises on a pool thread, leaves no pool thread alive."""
    problem = _dense_random_problem()
    (engine,) = _engines_by_threads(problem, threads=(2,))
    baseline = threading.active_count()
    seen = []

    def failing_score(cols):
        seen.append(threading.active_count())
        if len(seen) == 2:
            raise RuntimeError("consumer failed")
        return np.zeros(cols.shape[1])

    engine._score_cols = failing_score
    with pytest.raises(RuntimeError, match="consumer failed"):
        engine.evaluate([(v,) for v in range(40)])
    assert max(seen) > baseline  # the blocks really ran on the pool
    assert threading.active_count() == baseline

    (engine,) = _engines_by_threads(_sparse_retweet_problem(), threads=(2,))
    repin = engine._repin
    callers = []

    def failing_repin(*args):
        callers.append(threading.current_thread())
        if callers[-1] is not threading.main_thread():
            raise RuntimeError("sparse step failed")
        return repin(*args)

    engine._repin = failing_repin
    with pytest.raises(RuntimeError, match="sparse step failed"):
        engine.evaluate([(v,) for v in range(40)])
    assert threading.main_thread() in callers  # the first group is this thread's
    assert threading.active_count() == baseline


# ----------------------------------------------------------------------
# The dm-mp coordinator over loopback net-worker hosts
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 20),
    score_name=st.sampled_from(sorted(SCORE_FACTORIES)),
    horizon=st.integers(0, 4),
    hosts=st.sampled_from([1, 2, 4]),
    data=st.data(),
)
def test_mp_engine_matches_batched_objectives(
    loopback_hosts, seed, score_name, horizon, hosts, data
):
    """dm-mp evaluation == dm-batched byte for byte over 1/2/4 tcp hosts,
    and the probe accounting (evaluate_calls / sets_evaluated) is
    identical for every host count: the coordinator counts probes, hosts
    only evolve."""
    problem = make_problem(seed, score_name, horizon)
    n = problem.n
    num_sets = data.draw(st.integers(1, 6))
    seed_sets = [
        data.draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=3))
        for _ in range(num_sets)
    ]
    batched = BatchedDMEngine(problem)
    expected = batched.evaluate(seed_sets)
    with HostPool(problem, hosts=loopback_hosts[:hosts], min_fanout=1) as engine:
        # Chunked scoring can reorder float sums (numpy pairwise summation
        # depends on block width), so values carry the 1e-10 parity
        # contract, not bitwise equality.
        np.testing.assert_allclose(
            engine.evaluate(seed_sets), expected, atol=1e-10, rtol=0
        )
        assert engine.stats.evaluate_calls == batched.stats.evaluate_calls
        assert engine.stats.sets_evaluated == batched.stats.sets_evaluated
        assert engine.stats.ipc_bytes > 0  # every fan-out is accounted


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_mp_greedy_selects_identical_seeds(loopback_hosts, workers):
    """Fanned-out greedy must pick byte-identical seeds and gains for any
    host count, with probe accounting matching the batched engine."""
    problem = make_problem(2, "plurality", 4, n=14)
    ref_engine = BatchedDMEngine(problem)
    reference = greedy_engine(ref_engine, 4, lazy=False)
    with HostPool(problem, hosts=loopback_hosts[:workers], min_fanout=1) as engine:
        result = greedy_engine(engine, 4, lazy=False)
        assert result.seeds.tolist() == reference.seeds.tolist()
        np.testing.assert_allclose(result.gains, reference.gains, atol=1e-10, rtol=0)
        assert result.evaluations == reference.evaluations
        assert engine.stats.evaluate_calls == ref_engine.stats.evaluate_calls
        assert engine.stats.sets_evaluated == ref_engine.stats.sets_evaluated
        # Work was genuinely sharded: every host evolved some columns.
        assert all(
            w.dense_column_steps + w.sparse_steps > 0 for w in engine.worker_stats
        )


def test_mp_small_rounds_run_locally_without_pool():
    """Below min_fanout the coordinator evaluates locally — no host is
    ever dialed (these addresses have no listener), yet results and
    session commits stay byte-identical."""
    problem = make_problem(5, "cumulative", 3, n=12, r=2)
    reference = BatchedDMEngine(problem)
    hosts = ["127.0.0.1:9", "127.0.0.1:10"]
    with HostPool(problem, hosts=hosts, min_fanout=64) as engine:
        session = engine.open_session()
        ref_session = reference.open_session()
        for commit in (3, 8):
            candidates = np.array([1, 2, 5])
            np.testing.assert_array_equal(
                session.marginal_gains(candidates),
                ref_session.marginal_gains(candidates),
            )
            session.commit(commit)
            ref_session.commit(commit)
        assert session.value == ref_session.value
        assert engine._handles is None  # pool never connected


def test_mp_engine_close_is_idempotent_and_restartable(loopback_hosts):
    problem = make_problem(1, "cumulative", 2, n=10, r=2)
    engine = HostPool(problem, hosts=loopback_hosts[:2], min_fanout=1)
    sets = [(1,), (2,), (3,), (4,)]
    expected = BatchedDMEngine(problem).evaluate(sets)
    np.testing.assert_array_equal(engine.evaluate(sets), expected)
    engine.close()
    engine.close()  # idempotent
    assert engine._handles is None
    # The pool reconnects lazily after close.
    np.testing.assert_array_equal(engine.evaluate(sets), expected)
    engine.close()


def test_mp_dead_worker_resharded_then_respawned(loopback_hosts):
    """A lost host no longer fails the round: its chunk re-shards to the
    survivor byte-identically, the loss lands in the supervision
    counters, and the host rejoins its slot on a later round."""
    import time

    problem = make_problem(1, "cumulative", 2, n=10, r=2)
    sets = [(1,), (2,), (3,), (4,)]
    expected = BatchedDMEngine(problem).evaluate(sets)
    engine = HostPool(problem, hosts=loopback_hosts[:2], min_fanout=1)
    try:
        np.testing.assert_array_equal(engine.evaluate(sets), expected)
        engine._handles[1].conn.close()
        # The in-flight round survives on the remaining host.
        np.testing.assert_array_equal(engine.evaluate(sets), expected)
        assert engine.stats.hosts_lost == 1
        assert engine.stats.chunks_resharded >= 1
        # Past the first backoff delay the next dispatch re-dials the
        # host and restores the pool to full strength.
        time.sleep(0.3)
        np.testing.assert_array_equal(engine.evaluate(sets), expected)
        assert engine.stats.hosts_rejoined == 1
        assert len(engine._handles) == 2
    finally:
        engine.close()


def test_parse_engine_spec_shm_suffix():
    """The retired transports' suffixes stay accepted spellings of
    dm-batched; misplaced or repeated ones stay errors."""
    for spelling in ("dm-mp:shm", "dm-mp:3:shm", "dm-mp:pipe", "dm-mp:3:pipe"):
        parsed = EngineSpec.parse(spelling)
        assert (parsed.name, parsed.kwargs()) == ("dm-batched", {})
    assert spec_is_exact_dm("dm-mp:2:shm")
    for bad in ("dm-mp:shm:2", "dm-mp:shm:shm", "rw-store:shm", "dm:shm"):
        with pytest.raises(ValueError):
            EngineSpec.parse(bad)


def test_dm_mp_shm_spelling_selects_like_dm():
    """``dm-mp:2:shm`` (the e2e ``select-dense-mp`` engine) builds the
    threaded dm-batched engine, and on that workload's tiny shape (yelp
    n=300, t=8, plurality, exhaustive k=4) it picks the per-set ``dm``
    engine's seeds with the same objective."""
    from repro.datasets.yelp import yelp_like

    problem = yelp_like(n=300, rng=2023, horizon=8).problem(PluralityScore())
    reference = greedy_engine(make_engine("dm", problem), 4, lazy=False)
    with make_engine("dm-mp:2:shm", problem) as engine:
        assert type(engine) is BatchedDMEngine
        result = greedy_engine(engine, 4, lazy=False)
    assert result.seeds.tolist() == reference.seeds.tolist()
    assert result.objective == reference.objective
    assert problem.objective(result.seeds) == reference.objective


# ----------------------------------------------------------------------
# Serving seams: query_sets / marginal_gains batch-stability
# ----------------------------------------------------------------------
SERVING_SPECS = ("dm", "dm-batched", "dm-mp:2", "dm-mp:2:shm", TCP_SPEC)


@pytest.mark.parametrize("spec", SERVING_SPECS, indirect=True)
@pytest.mark.parametrize("score_name", ["cumulative", "plurality"])
def test_query_sets_batch_equals_singles_bitwise(spec, score_name):
    """The serving batch entry: one query_sets call over N sets must be
    bitwise the N one-set calls — values and win flags — so coalesced
    win/value probes answer byte-identically to serial ones."""
    problem = make_problem(11, score_name, 4)
    sets = [(1,), (2, 5), (0, 3, 7), (), (4, 4, 9)]
    with make_engine(spec, problem) as engine:
        values, wins = engine.query_sets(sets, wins=True)
        assert wins is not None and wins.dtype == bool
        for i, seed_set in enumerate(sets):
            value_i, wins_i = engine.query_sets([seed_set], wins=True)
            assert values[i] == value_i[0]  # bitwise, not allclose
            assert wins[i] == wins_i[0]
        # And the win flags agree with the problem's own verdict.
        for i, seed_set in enumerate(sets):
            expected = problem.target_wins(np.asarray(seed_set, dtype=np.int64))
            assert bool(wins[i]) == expected


@pytest.mark.parametrize("spec", SERVING_SPECS, indirect=True)
def test_session_gains_batch_stable_bitwise(spec):
    """marginal_gains is also the batcher's shared round: its values must
    be bitwise independent of how candidates are grouped, before and after
    commits."""
    problem = make_problem(12, "cumulative", 4)
    candidates = np.array([1, 2, 4, 5, 7, 8, 9, 10], dtype=np.int64)
    with make_engine(spec, problem) as engine:
        session = engine.open_session((3,))
        for commit in (None, 6):  # then a commit moves the prefix
            if commit is not None:
                session.commit(commit)
            singles = [session.marginal_gains(candidates[i : i + 1]) for i in range(8)]
            np.testing.assert_array_equal(
                session.marginal_gains(candidates), np.concatenate(singles)
            )


# ----------------------------------------------------------------------
# Width stability: a candidate's gain and a set's value have the bits of
# a one-column call at every width, batch_rows and thread count
# ----------------------------------------------------------------------
#: Every built-in score, with and without ``user_weights`` (which need a
#: separable score, so Copeland runs unweighted only).
WIDTH_CASES = [
    (score_name, weighted)
    for score_name in sorted(SCORE_FACTORIES)
    for weighted in (False, True)
    if not (weighted and score_name == "copeland")
]
WIDTH_IDS = [f"{name}-{'weighted' if w else 'unweighted'}" for name, w in WIDTH_CASES]


def _width_problem(score_name):
    """Sparse enough that a 40-column call takes sparse steps first."""
    state = random_instance(n=60, r=3, density=0.04, seed=21)
    return FJVoteProblem(state, 0, 6, SCORE_FACTORIES[score_name]())


def _width_kwargs(problem, weighted):
    if not weighted:
        return {}
    return {"user_weights": np.random.default_rng(3).uniform(0, 2, problem.n)}


def _assert_width_stable(engine) -> list[np.ndarray]:
    """Wide calls equal the concatenation of one-column calls, bitwise:
    session gains before and after a commit, ``evaluate`` and
    ``query_sets``.  Returns the wide answers."""
    n = engine.problem.n
    rng = np.random.default_rng(8)
    candidates = rng.permutation(n)[:40]
    sets = [
        tuple(rng.choice(n, size=int(rng.integers(0, 4)), replace=False))
        for _ in range(40)
    ]
    answers = []
    session = engine.open_session((5,))
    for commit in (None, 17):
        if commit is not None:
            session.commit(commit)
        gains = session.marginal_gains(candidates)
        singles = [session.marginal_gains(candidates[i : i + 1]) for i in range(40)]
        np.testing.assert_array_equal(gains, np.concatenate(singles))
        answers.append(gains)
    values = engine.evaluate(sets)
    np.testing.assert_array_equal(values, engine.query_sets(sets)[0])
    singles = [engine.evaluate([s]) for s in sets]
    np.testing.assert_array_equal(values, np.concatenate(singles))
    answers.append(values)
    return answers


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("batch_rows", [1, 3, 64])
@pytest.mark.parametrize(("score_name", "weighted"), WIDTH_CASES, ids=WIDTH_IDS)
def test_gains_and_values_width_stable_bitwise(
    score_name, weighted, batch_rows, threads
):
    problem = _width_problem(score_name)
    engine = BatchedDMEngine(
        problem, batch_rows=batch_rows, **_width_kwargs(problem, weighted)
    )
    engine._threads = threads  # forced, so a one-core runner covers T=2
    _assert_width_stable(engine)
    assert engine.stats.sparse_steps > 0


@pytest.mark.parametrize(("score_name", "weighted"), WIDTH_CASES, ids=WIDTH_IDS)
def test_gains_and_values_width_stable_over_tcp_hosts(
    score_name, weighted, loopback_hosts
):
    """Two loopback ``dm-mp:tcp`` hosts with every call fanned out: the
    same width stability, with the in-process engine's bits."""
    problem = _width_problem(score_name)
    kwargs = _width_kwargs(problem, weighted)
    expected = _assert_width_stable(BatchedDMEngine(problem, **kwargs))
    spec = f"{TCP_SPEC}={','.join(loopback_hosts[:2])}"
    with make_engine(spec, problem, min_fanout=1, **kwargs) as engine:
        got = _assert_width_stable(engine)
        assert engine.stats.ipc_bytes > 0
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("score_name", ["cumulative", "plurality", "copeland"])
@pytest.mark.parametrize("spec", ["rw", "sketch", "rw-store"])
def test_walk_gains_width_stable_bitwise(spec, score_name):
    """A walk engine scans only the requested candidates' live entries, so
    each gain has the bits of the full all-nodes scan at any width."""
    problem = make_problem(4, score_name, 5, n=40)
    candidates = np.random.default_rng(2).permutation(problem.n)[:20]
    with make_engine(spec, problem, rng=0) as engine:
        session = engine.open_session((6,))
        session.commit(11)
        gains = session.marginal_gains(candidates)
        singles = [session.marginal_gains(candidates[i : i + 1]) for i in range(20)]
        np.testing.assert_array_equal(gains, np.concatenate(singles))
        engine._sync(session.seeds)
        full_scan = engine.optimizer.marginal_gains()
        np.testing.assert_array_equal(gains, full_scan[candidates])
        for bad in (-1, problem.n):
            with pytest.raises(ValueError, match="out of range"):
                session.marginal_gains([bad])


def test_celf_objective_equals_exhaustive_greedy_bitwise():
    """CELF's one-candidate refreshes and exhaustive greedy's wide rounds
    score a candidate identically, so the two report the same objective
    to the bit, not just the same seeds (yelp n=300, cumulative)."""
    from repro.datasets.yelp import yelp_like

    for seed in range(12):
        problem = yelp_like(n=300, rng=seed, horizon=8).problem(CumulativeScore())
        with make_engine("dm-batched", problem) as engine:
            lazy = greedy_engine(engine, 5, lazy=True)
        with make_engine("dm-batched", problem) as engine:
            full = greedy_engine(engine, 5, lazy=False)
        assert lazy.seeds.tolist() == full.seeds.tolist(), seed
        assert lazy.objective == full.objective, seed


def test_pool_stats_accounting(loopback_hosts):
    """pool_stats: zeros on the single-process engines (every local dm-mp
    spelling among them), live rounds / busy-time / hosts on the tcp
    pool (the serving 'stats' op)."""
    problem = make_problem(4, "cumulative", 3)
    for spec in ("dm-batched", "dm-mp:2:shm"):
        with make_engine(spec, problem) as engine:
            stats = engine.pool_stats()
            assert stats["workers"] == 0 and stats["started"] is False
    hosts = loopback_hosts[:2]
    with HostPool(problem, hosts=hosts, min_fanout=1) as engine:
        assert engine.pool_stats()["started"] is False
        engine.evaluate([(1,), (2,), (3,), (4,)])
        stats = engine.pool_stats()
        assert stats["started"] is True
        assert stats["workers"] == 2 and stats["hosts_connected"] == hosts
        assert stats["rounds"] >= 1 and stats["busy_s"] > 0
    # close() disconnected every host.
    stats = engine.pool_stats()
    assert stats["started"] is False and stats["hosts_connected"] == []
