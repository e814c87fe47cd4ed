"""Tests for the persistent walk store (repro.core.walk_store).

The central contracts:

* **Parity** — walks are a pure function of the store seed and the walk
  count, so every ``rw-store[:S]`` spelling selects byte-identically to
  the others *and* to the plain ``rw`` engine built from the same rng
  (hypothesis parity suite).
* **Isolation** — served views are copy-on-write: a session committing
  seeds truncates its own view only; the cached masters stay
  pristine for the next consumer.
* **Reuse** — a second view over the same pool generates zero new blocks,
  and the sketch θ ladder extends one sample instead of redrawing.
"""

from __future__ import annotations

import io
import json
import os
import re
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.imm import imm
from repro.core import walk_store
from repro.core.bounds import (
    delta_achieved,
    epsilon_achieved_cumulative,
    lambda_cumulative,
)
from repro.core.engine import (
    RW_STORE_LAMBDA_CAP,
    EngineSpec,
    EstimatorPrecisionWarning,
    make_engine,
    spec_is_exact_dm,
)
from repro.core.greedy import greedy_engine
from repro.core.problem import FJVoteProblem
from repro.core.sketch import sketch_select
from repro.core.walk_store import (
    KIND_PER_NODE,
    KIND_UNIFORM,
    WalkStore,
    store_for_problem,
)
from repro.opinion.fj import apply_seeds, fj_evolve
from repro.voting.scores import CumulativeScore, PluralityScore
from tests.conftest import random_instance


def make_problem(seed, score=None, *, n=14, r=3, horizon=3):
    state = random_instance(n=n, r=r, seed=seed)
    return FJVoteProblem(state, 0, horizon, score or PluralityScore())


# ----------------------------------------------------------------------
# Parity: rw-store == rw, byte-identical, for every rw-store:<S> spelling
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 30),
    rng_seed=st.integers(0, 1000),
    score_name=st.sampled_from(["plurality", "cumulative"]),
    k=st.integers(1, 4),
)
def test_rw_store_matches_rw_at_every_shard_count(seed, rng_seed, score_name, k):
    """Fixed-count rw-store selections must equal the rw engine byte for
    byte at shards 1, 2 and 4 — same walks, same gains, same seeds."""
    score = CumulativeScore() if score_name == "cumulative" else PluralityScore()
    problem = make_problem(seed, score, n=12, r=2)
    ref_engine = make_engine("rw", problem, rng=rng_seed, walks_per_node=6)
    reference = greedy_engine(ref_engine, k)
    for shards in (1, 2, 4):
        engine = make_engine(
            f"rw-store:{shards}",
            problem,
            rng=rng_seed,
            walks_per_node=6,
            epsilon=None,
        )
        result = greedy_engine(engine, k)
        assert result.seeds.tolist() == reference.seeds.tolist()
        np.testing.assert_array_equal(result.gains, reference.gains)
        assert result.objective == reference.objective
        # The raw walk matrices themselves must coincide with the rw
        # engine's — byte parity, not coincidental selection agreement.
        np.testing.assert_array_equal(engine.walks.walks, ref_engine.walks.walks)
        np.testing.assert_array_equal(engine.walks.lengths, ref_engine.walks.lengths)


@pytest.mark.parametrize("k", [3])
def test_rw_store_default_adaptive_is_shard_invariant(k):
    """The default rw-store engine (λ for ε = 0.1) must still be
    byte-identical across shard counts: the walks depend only on the
    store seed."""
    problem = make_problem(4, n=12, r=2)
    results = []
    for shards in (1, 2, 4):
        engine = make_engine(f"rw-store:{shards}", problem, rng=11)
        results.append(greedy_engine(engine, k))
    assert results[0].seeds.tolist() == results[1].seeds.tolist()
    assert results[1].seeds.tolist() == results[2].seeds.tolist()
    np.testing.assert_array_equal(results[0].gains, results[1].gains)
    np.testing.assert_array_equal(results[1].gains, results[2].gains)


# ----------------------------------------------------------------------
# Isolation: commits truncate views, never the cached masters
# ----------------------------------------------------------------------
def test_view_commits_do_not_invalidate_store_master():
    """Shard-cache invalidation contract: a session committing seeds gets
    a detached truncation state (copy-on-write), so the master — and any
    later view — still serves the pristine sample."""
    problem = make_problem(5, n=12, r=2)
    store = store_for_problem(problem, seed=3)
    first = store.per_node_view(0, 4)
    pristine = (first.end_pos.copy(), first.values.copy())
    first.add_seed(7)  # a committed seed truncates the *view*
    first.add_seed(2)
    assert first.seeds == [7, 2]
    second = store.per_node_view(0, 4)
    assert second.seeds == []
    np.testing.assert_array_equal(second.end_pos, pristine[0])
    np.testing.assert_array_equal(second.values, pristine[1])
    # The two views never share mutated state.
    assert not np.shares_memory(first.values, second.values)
    # And the immutable parts are genuinely shared, not copied.
    assert np.shares_memory(first.walks, second.walks)
    master = store.pool(0, KIND_PER_NODE).master(4 * problem.n)
    np.testing.assert_array_equal(master.values, pristine[1])
    assert master.seeds == []


def test_engine_sessions_share_store_without_leaks():
    """Two engines on one shared store run interleaved sessions without
    corrupting each other or the store."""
    problem = make_problem(6, n=12, r=2)
    store = store_for_problem(problem, seed=9)
    a = make_engine("rw-store", problem, store=store, epsilon=None)
    b = make_engine("rw-store", problem, store=store, epsilon=None)
    base_a = a.evaluate_one(())
    base_b = b.evaluate_one(())
    assert base_a == base_b  # identical pristine walks
    sess = a.open_session()
    sess.commit(3)
    sess.commit(8)
    # b's empty-set estimate is untouched by a's commits.
    assert b.evaluate_one(()) == base_b
    assert a.evaluate_one(()) == base_a  # reset-and-replay still pristine


# ----------------------------------------------------------------------
# Reuse: memoized blocks, extending ladders, RR-set pools
# ----------------------------------------------------------------------
def test_second_view_generates_no_new_blocks():
    problem = make_problem(7, n=10, r=2)
    store = store_for_problem(problem, seed=1)
    store.per_node_view(0, 6)
    generated = store.stats.blocks_generated
    steps = store.stats.walk_steps_generated
    store.per_node_view(0, 6)
    store.per_node_view(0, 3)  # prefix of the same pool
    assert store.stats.blocks_generated == generated
    assert store.stats.walk_steps_generated == steps
    assert store.stats.blocks_reused > 0


def test_uniform_ladder_extends_instead_of_redrawing():
    """Doubling θ must only generate the missing blocks, and smaller views
    must be prefixes of larger ones (the martingale-reuse contract)."""
    problem = make_problem(8, n=10, r=2)
    store = WalkStore(problem.state, problem.horizon, seed=2, block_walks=32)
    small = store.uniform_view(0, 48)
    generated = store.stats.blocks_generated
    big = store.uniform_view(0, 96)
    assert store.stats.blocks_generated == generated + 1
    np.testing.assert_array_equal(big.walks[:48], small.walks)
    np.testing.assert_array_equal(big.lengths[:48], small.lengths)


def test_sketch_select_with_store_reuses_walks():
    problem = make_problem(9, CumulativeScore(), n=12, r=2)
    store = WalkStore(problem.state, problem.horizon, seed=4, block_walks=64)
    result = sketch_select(
        problem, 2, epsilon=0.3, theta_cap=500, rng=5, store=store
    )
    assert result.seeds.size == 2
    assert store.stats.blocks_generated > 0
    # A second budget extends the same pool: nothing regenerated below cap.
    generated = store.stats.walks_generated
    sketch_select(problem, 2, epsilon=0.3, theta_cap=500, rng=6, store=store)
    assert store.stats.walks_generated == generated


def test_imm_draws_from_store_rr_pool():
    problem = make_problem(10, n=12, r=2)
    store = store_for_problem(problem, seed=8)
    graph = problem.state.graph(problem.target)
    pool = store.rr_pool(problem.target, "ic")
    first = imm(graph, 2, model="ic", rng=0, theta_cap=400, rr_pool=pool)
    assert first.seeds.size == 2
    drawn = store.stats.rr_sets_generated
    assert drawn > 0
    second = imm(graph, 2, model="ic", rng=99, theta_cap=400, rr_pool=pool)
    # Same pooled sample -> same seeds, zero fresh RR sets, reuse counted.
    assert second.seeds.tolist() == first.seeds.tolist()
    assert store.stats.rr_sets_generated == drawn
    assert store.stats.rr_sets_reused > 0
    with pytest.raises(ValueError):
        imm(graph, 2, model="lt", rr_pool=pool)
    other_graph = make_problem(11, n=12, r=2).state.graph(0)
    with pytest.raises(ValueError, match="different graph"):
        imm(other_graph, 2, model="ic", rr_pool=pool)


# ----------------------------------------------------------------------
# Adaptive sampling and (ε, δ) accounting
# ----------------------------------------------------------------------
def test_prepare_budget_records_achieved_epsilon_and_warns():
    """Fixed sample counts must surface the precision they actually buy
    (the old estimators had no (ε,δ) accounting at all)."""
    problem = make_problem(12, n=12, r=2)
    engine = make_engine(
        "rw", problem, rng=1, walks_per_node=4, epsilon=0.05
    )
    with pytest.warns(EstimatorPrecisionWarning, match="certifies"):
        engine.prepare_budget(2)
    assert engine.stats.requested_epsilon == 0.05
    assert engine.stats.achieved_epsilon > 0.05
    assert engine.stats.precision_unmet == 1
    # Re-preparing the same budget is idempotent: no duplicate warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine.prepare_budget(2)
    assert engine.stats.precision_unmet == 1


@pytest.mark.parametrize("seeds", [(), (3, 17)])
def test_per_node_estimates_meet_hoeffding_calibration(seeds):
    """Fixed-seed slice of the (ε,δ) calibration against exact FJ.

    Over R independent store roots at a fixed λ, each node's ``rw-store``
    estimate of ``b_qu^(t)`` (after post-generation truncation by
    ``seeds``) misses the exact value by more than
    ``delta_achieved(λ, ρ)`` with probability at most ``1 − ρ``
    (Theorem 10, Hoeffding): the observed miss share must stay under
    ``1 − ρ`` plus a 3σ binomial margin.  The pooled estimate over all
    roots must also sit within four empirical standard errors of the
    exact opinion (Theorems 8/9): a far sharper probe of a biased walk
    stream than Hoeffding's bound (a termination draw skewed to ``u^1.3``
    lands at 5.8 standard errors).
    """
    roots, lam, rho = 30, 32, 0.9
    problem = make_problem(41, CumulativeScore(), n=40, r=2, horizon=5)
    state, q = problem.state, problem.target
    b0_s, d_s = apply_seeds(
        state.initial_opinions[q],
        state.stubbornness[q],
        np.asarray(seeds, dtype=np.int64),
    )
    exact = fj_evolve(b0_s, d_s, state.graph(q), problem.horizon)
    estimates = np.empty((roots, problem.n))
    for root in range(roots):
        view = store_for_problem(problem, seed=root).per_node_view(q, lam)
        for seed in seeds:
            view.add_seed(seed)
        estimates[root] = view.estimated_opinions()
    trials = estimates.size
    misses = np.abs(estimates - exact) > delta_achieved(lam, rho)
    margin = 3.0 * np.sqrt(rho * (1.0 - rho) / trials)
    assert misses.mean() <= (1.0 - rho) + margin
    stderr = estimates.std(axis=0, ddof=1) / np.sqrt(roots)
    error = np.abs(estimates.mean(axis=0) - exact)
    # Rule of three: a move rarer than 3 / (R·λ) may go unseen in all of a
    # node's walks, leaving a constant estimate with zero spread.
    assert np.all(error <= 4.0 * stderr + 3.0 / (roots * lam))


@pytest.mark.parametrize("seeds", [(), (3, 17)])
def test_sketch_estimates_meet_hoeffding_calibration(seeds):
    """The ``sketch`` (uniform-pool) slice of the (ε,δ) calibration.

    A θ-walk ``uniform_view`` estimates the mean opinion
    ``(1/n) Σ_u b_qu^(t)`` by its mean walk value (the cumulative sketch
    estimator of Algorithm 5, scaled by ``1/n``).  Every walk value lies
    in [0, 1], so over R independent store roots the estimate misses
    exact FJ by more than ``delta_achieved(θ, ρ)`` with probability at
    most ``1 − ρ`` (Hoeffding): the observed miss share must stay under
    ``1 − ρ`` plus a 3σ binomial margin.  Pooled over all roots, the
    walks starting at each node must also average to that node's exact
    opinion within four standard errors (plus the rule-of-three slack
    of the per-node slice) — the per-node probe catches a termination
    draw skewed to ``u^1.3`` that the mean alone averages away.  The
    views span four blocks, so block concatenation is covered.
    """
    roots, theta, rho = 200, 256, 0.9
    problem = make_problem(41, CumulativeScore(), n=40, r=2, horizon=5)
    state, q, n = problem.state, problem.target, problem.n
    b0_s, d_s = apply_seeds(
        state.initial_opinions[q],
        state.stubbornness[q],
        np.asarray(seeds, dtype=np.int64),
    )
    exact = fj_evolve(b0_s, d_s, state.graph(q), problem.horizon)
    starts, values = [], []
    for root in range(roots):
        store = store_for_problem(problem, seed=root, block_walks=64)
        view = store.uniform_view(q, theta)
        for seed in seeds:
            view.add_seed(seed)
        starts.append(view.starts)
        values.append(view.values)
    estimates = np.array([v.mean() for v in values])
    misses = np.abs(estimates - exact.mean()) > delta_achieved(theta, rho)
    margin = 3.0 * np.sqrt(rho * (1.0 - rho) / roots)
    assert misses.mean() <= (1.0 - rho) + margin
    starts, values = np.concatenate(starts), np.concatenate(values)
    count = np.bincount(starts, minlength=n)
    mean = np.bincount(starts, weights=values, minlength=n) / count
    square = np.bincount(starts, weights=values**2, minlength=n) / count
    stderr = np.sqrt(np.maximum(square - mean**2, 0.0) / (count - 1))
    assert np.all(np.abs(mean - exact) <= 4.0 * stderr + 3.0 / count)


def test_adaptive_escalation_meets_requested_precision():
    problem = make_problem(13, n=10, r=2)
    engine = make_engine(
        "rw-store", problem, rng=2, walks_per_node=2, epsilon=0.25
    )
    # The factory raises the count to Theorem 10's λ before the engine is
    # built, so the one bound view is the large one — no throwaway small
    # view is ever indexed.
    assert engine.walks_per_node == lambda_cumulative(0.25, 0.9)
    assert engine.store.stats.index_builds == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # λ must satisfy the bound
        engine.prepare_budget(2)
    assert 0 < engine.stats.achieved_epsilon <= 0.25
    assert engine.stats.precision_unmet == 0
    # A second engine on the same store reuses the pool outright.
    generated = engine.store.stats.blocks_generated
    again = make_engine(
        "rw-store", problem, store=engine.store, walks_per_node=2, epsilon=0.25
    )
    assert again.store.stats.blocks_generated == generated
    assert again.store.stats.blocks_reused > 0


def test_rw_store_binds_lambda_for_requested_epsilon():
    """ε picks Theorem 10's λ (150 at ε = 0.1, ρ = 0.9), capped at
    RW_STORE_LAMBDA_CAP; ``epsilon=None`` keeps the given count."""
    problem = make_problem(13, n=10, r=2)
    engine = make_engine("rw-store", problem, rng=2)
    assert engine.walks_per_node == lambda_cumulative(0.1, 0.9) == 150
    assert engine.walks.num_walks == 150 * problem.n
    tight = make_engine("rw-store", problem, store=engine.store, epsilon=0.01)
    assert tight.walks_per_node == RW_STORE_LAMBDA_CAP
    fixed = make_engine(
        "rw-store", problem, store=engine.store, walks_per_node=3, epsilon=None
    )
    assert fixed.walks_per_node == 3


@pytest.mark.parametrize("spec", ["rw", "sketch", "rw-store"])
def test_prepare_budget_keeps_the_bound_walk_view(spec):
    """A walk engine binds one sample, when it is built: preparing any
    budget accounts precision and never replaces the view."""
    problem = make_problem(16, CumulativeScore(), n=12, r=2)
    engine = make_engine(spec, problem, rng=7, epsilon=0.1)
    walks, optimizer = engine.walks, engine.optimizer
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EstimatorPrecisionWarning)
        engine.prepare_budget(2)
        engine.prepare_budget(5)
    assert engine.walks is walks and engine.optimizer is optimizer
    assert engine.store.stats.index_builds == 1


@pytest.mark.parametrize("spec", ["rw", "sketch", "rw-store"])
@pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
def test_walk_engines_reject_rho_outside_unit_interval(spec, rho):
    """ρ ∈ [0, 1) is checked when the engine is built, before any walk
    is drawn, with an error naming ``rho``."""
    problem = make_problem(16, n=12, r=2)
    store = store_for_problem(problem, seed=0)
    with pytest.raises(ValueError, match="rho must be"):
        make_engine(spec, problem, store=store, rho=rho)
    assert store.stats.blocks_generated == 0


def test_adaptive_cumulative_theta_ladder_warns_at_cap():
    """A fixed θ too small for the requested ε on the cumulative score
    warns and reports the ε Theorem 13 certifies over ``OPT ≥ k``."""
    problem = make_problem(14, CumulativeScore(), n=12, r=2)
    engine = make_engine("sketch", problem, rng=3, theta=256, epsilon=0.1)
    with pytest.warns(EstimatorPrecisionWarning, match="certifies"):
        engine.prepare_budget(2)
    assert engine.theta == 256
    assert engine.stats.achieved_epsilon == epsilon_achieved_cumulative(
        problem.n, 2, 2.0, 256, 1.0
    )
    assert engine.stats.achieved_epsilon > 0.1
    assert engine.stats.precision_unmet == 1


def test_rank_scores_without_guarantee_warn_when_epsilon_requested():
    problem = make_problem(15, n=12, r=3)
    engine = make_engine("sketch", problem, rng=4, theta=64, epsilon=0.2)
    with pytest.warns(EstimatorPrecisionWarning, match="no closed-form"):
        engine.prepare_budget(2)
    assert engine.stats.achieved_epsilon == 0.0  # not computable
    assert engine.stats.precision_unmet == 1


# ----------------------------------------------------------------------
# Spec parsing and validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bad",
    ["rw-store:", "rw-store:0", "rw-store:-3", "rw-store:two", "rw-store:1:1"],
)
def test_malformed_rw_store_specs_rejected(bad):
    """Malformed rw-store:<shards> forms fail with the registry's single
    ValueError, naming every spec and both parameterized forms."""
    with pytest.raises(ValueError) as excinfo:
        EngineSpec.parse(bad)
    message = str(excinfo.value)
    assert "rw-store:<shards>" in message
    assert "dm-mp:<workers>" in message
    assert not spec_is_exact_dm(bad)


def test_rw_store_spec_is_not_exact():
    for spec in ("rw-store", "rw-store:2"):
        assert not spec_is_exact_dm(spec)


def test_mismatched_store_rejected_everywhere():
    """A store built for another state/horizon must be refused, never
    silently served: pools are keyed only by (candidate, kind)."""
    from repro.core.random_walk import random_walk_select
    from repro.eval.harness import select_seeds

    problem = make_problem(3, n=10, r=2, horizon=3)
    other_horizon = store_for_problem(make_problem(3, n=10, r=2, horizon=5))
    other_state = store_for_problem(make_problem(4, n=10, r=2, horizon=3))
    for store in (other_horizon, other_state):
        with pytest.raises(ValueError, match="different campaign state"):
            make_engine("rw-store", problem, store=store)
        with pytest.raises(ValueError, match="different campaign state"):
            random_walk_select(problem, 2, store=store)
        with pytest.raises(ValueError, match="different campaign state"):
            sketch_select(problem, 2, theta=50, store=store)
        with pytest.raises(ValueError, match="different campaign state"):
            select_seeds("rw", problem, 2, rng=0, store=store)
    matching = store_for_problem(problem)
    matching.require_problem(problem)  # no raise


def test_store_validation():
    problem = make_problem(0, n=8, r=2)
    with pytest.raises(ValueError):
        WalkStore(problem.state, problem.horizon, block_walks=0)
    store = store_for_problem(problem)
    with pytest.raises(ValueError):
        store.pool(0, "sideways")
    with pytest.raises(ValueError):
        store.pool(99, KIND_UNIFORM)
    with pytest.raises(ValueError):
        store.rr_pool(0, "sir")


def _random_walk_select(problem, **kwargs):
    from repro.core.random_walk import random_walk_select

    return random_walk_select(problem, 2, rng=0, **kwargs)


def _sketch_select(problem, **kwargs):
    return sketch_select(problem, 2, rng=0, **kwargs)


def _rw_engine(problem, **kwargs):
    return make_engine("rw", problem, rng=0, **kwargs)  # WalkEngine, "start"


def _sketch_engine(problem, **kwargs):
    return make_engine("sketch", problem, rng=0, **kwargs)  # WalkEngine, "walk"


def _greedy(problem, k):
    return greedy_engine(make_engine("rw", problem, rng=0, walks_per_node=2), k)


def _random_walk_budget(problem, k):
    from repro.core.random_walk import random_walk_select

    return random_walk_select(problem, k, rng=0, walks_per_node=2)


def _sketch_budget(problem, k):
    return sketch_select(problem, k, rng=0, theta=50)


def _expected_error(param, value):
    """The rejection message for ``value``: integer counts that are not
    positive, and counts that are not integers at all (floats, bools)."""
    if np.asarray(value).dtype.kind in "iu":
        return f"{param} must be positive"
    return f"{param} must be (an integer|integers)"


@pytest.mark.parametrize(
    "entry, param, value",
    [
        (_random_walk_select, "walks_per_node", 0),
        (_random_walk_select, "walks_per_node", -3),
        (_random_walk_select, "walks_per_node", np.array([2] * 9 + [0])),
        (_random_walk_select, "lambda_cap", 0),
        (_sketch_select, "theta", -5),
        (_sketch_select, "theta", 0),
        (_sketch_select, "theta_cap", 0),
        (_sketch_select, "epsilon", 0),
        (_rw_engine, "walks_per_node", -2),
        (_rw_engine, "epsilon", -1),
        (_sketch_engine, "theta", 0),
        (_sketch_engine, "epsilon", 0),
        (_random_walk_select, "walks_per_node", 2.7),
        (_random_walk_select, "walks_per_node", True),
        (_random_walk_select, "walks_per_node", np.array([2.0] * 10)),
        (_random_walk_select, "walks_per_node", np.array([True] * 10)),
        (_random_walk_select, "lambda_cap", 16.5),
        (_sketch_select, "theta", 100.9),
        (_sketch_select, "theta_cap", 99.0),
        (_sketch_select, "theta_start", 64.5),
        (_sketch_select, "theta_start", 0),
        (_rw_engine, "walks_per_node", 3.5),
        (_sketch_engine, "theta", 99.99),
        (_greedy, "k", 1.5),
        (_greedy, "k", True),
        (_random_walk_budget, "k", 2.9),
        (_sketch_budget, "k", np.float64(2.0)),
    ],
)
def test_non_positive_sample_parameters_rejected(entry, param, value):
    """A non-positive user-given count is an error naming the parameter,
    never silently replaced by one walk (or θ = 1); a float or bool count
    or budget is an error too, never truncated (2.7 walks are not 2)."""
    problem = make_problem(0, n=10, r=2)
    with pytest.raises(ValueError, match=_expected_error(param, value)):
        entry(problem, **{param: value})


@pytest.mark.parametrize(
    "view, param",
    [("per_node_view", "walks_per_node"), ("uniform_view", "theta")],
)
@pytest.mark.parametrize("count", [0, -4, 2.5, True, np.float64(3.0)])
def test_store_views_reject_non_positive_counts(view, param, count):
    store = store_for_problem(make_problem(0, n=10, r=2))
    with pytest.raises(ValueError, match=_expected_error(param, count)):
        getattr(store, view)(0, count)
    assert store.stats.blocks_generated == 0


# ----------------------------------------------------------------------
# Per-node λ arrays: the rank-score RW walk counts
# ----------------------------------------------------------------------
def test_per_node_array_view_serves_each_nodes_first_rounds():
    """``per_node_view(q, λ)`` gives node v exactly the first λ_v per-node
    rounds of ``per_node_view(q, max λ)``, byte for byte — before and after
    truncation, so the index built over the kept walks is complete."""
    problem = make_problem(30, n=12, r=2)
    lam = np.array([1, 5, 3, 3, 2, 5, 1, 4, 2, 5, 3, 1])
    store = store_for_problem(problem, seed=7)
    view = store.per_node_view(0, lam)
    full = store.per_node_view(0, int(lam.max()))
    assert view.num_walks == int(lam.sum())
    assert view.idx_walk.size < full.idx_walk.size
    for step in (None, 4, 9):
        if step is not None:
            view.add_seed(step)
            full.add_seed(step)
        for v in range(problem.n):
            mine, theirs = view.starts == v, full.starts == v
            for part in ("walks", "lengths", "end_pos", "values"):
                got = getattr(view, part)[mine]
                want = getattr(full, part)[theirs][: lam[v]]
                assert got.tobytes() == want.tobytes(), (v, part, step)
    # A uniform array is the scalar view, served from the same master.
    builds = store.stats.index_builds
    same = store.per_node_view(0, np.full(problem.n, 5))
    assert store.stats.index_builds == builds
    assert np.shares_memory(same.walks, full.walks)
    with pytest.raises(ValueError, match="shape"):
        store.per_node_view(0, lam[:5])


def test_walk_engine_over_per_node_counts_certifies_smallest_count():
    problem = make_problem(31, n=12, r=2)
    lam = np.array([6, 2, 9, 4] * 3)
    engine = make_engine("rw", problem, rng=3, walks_per_node=lam, epsilon=0.1)
    assert engine.walks.num_walks == int(lam.sum())
    with pytest.warns(EstimatorPrecisionWarning):
        engine.prepare_budget(2)
    assert engine.stats.achieved_epsilon == delta_achieved(2, engine.rho)


@pytest.mark.parametrize("score", [CumulativeScore(), PluralityScore()])
@pytest.mark.parametrize("method", ["rw", "rs"])
def test_private_store_selection_equals_store_for_problem(score, method):
    """Without a store, RW and RS draw a private one from ``rng`` — the
    in-memory run selects exactly what a ``store_for_problem`` run (the
    CLI's ``--store-dir`` store) selects, down to every diagnostic."""
    from repro.core.random_walk import random_walk_select

    problem = make_problem(32, score, n=30, r=3)
    select = random_walk_select if method == "rw" else sketch_select
    kwargs = (
        {"lambda_cap": 24}
        if method == "rw"
        else {"theta_start": 32, "theta_cap": 256, "epsilon": 0.5}
    )
    for seed in (0, 5):
        alone = select(problem, 3, rng=seed, **kwargs)
        store = store_for_problem(problem, seed=seed)
        stored = select(problem, 3, rng=seed, store=store, **kwargs)
        assert store.stats.blocks_generated > 0
        assert repr(alone) == repr(stored)


# ----------------------------------------------------------------------
# Memory-mapped persistence (store_dir / rw-store:mmap=<DIR>)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_mmap_store_selections_match_in_ram(tmp_path, shards):
    """mmap-backed stores must serve byte-identical walks — and therefore
    byte-identical selections — to the in-RAM store at shards 1/2/4."""
    problem = make_problem(20, n=12, r=2)
    ram_engine = make_engine(
        f"rw-store:{shards}",
        problem,
        rng=31,
        walks_per_node=6,
        epsilon=None,
    )
    reference = greedy_engine(ram_engine, 3)
    engine = make_engine(
        f"rw-store:{shards}:mmap={tmp_path / 'pool'}",
        problem,
        rng=31,
        walks_per_node=6,
        epsilon=None,
    )
    assert engine.store.store_dir == tmp_path / "pool"
    result = greedy_engine(engine, 3)
    assert result.seeds.tolist() == reference.seeds.tolist()
    np.testing.assert_array_equal(result.gains, reference.gains)
    np.testing.assert_array_equal(engine.walks.walks, ram_engine.walks.walks)
    np.testing.assert_array_equal(
        engine.walks.lengths, ram_engine.walks.lengths
    )


def test_warm_reopen_regenerates_zero_blocks(tmp_path):
    """A second store over the same directory (a restart, or another
    process) must serve byte-identical walks while generating nothing."""
    problem = make_problem(21, n=12, r=2)
    cold = WalkStore(problem.state, problem.horizon, seed=5, store_dir=tmp_path)
    view = cold.per_node_view(0, 4)
    assert cold.stats.blocks_generated > 0
    assert cold.stats.blocks_written == cold.stats.blocks_generated
    warm = WalkStore(problem.state, problem.horizon, seed=5, store_dir=tmp_path)
    reopened = warm.per_node_view(0, 4)
    assert warm.stats.blocks_generated == 0
    assert warm.stats.blocks_written == 0
    assert warm.stats.blocks_loaded > 0
    np.testing.assert_array_equal(reopened.walks, view.walks)
    np.testing.assert_array_equal(reopened.lengths, view.lengths)
    np.testing.assert_array_equal(reopened.values, view.values)
    # Warm selections equal cold selections byte for byte.
    cold_eng = make_engine(
        "rw-store", problem, store=cold, epsilon=None,
        walks_per_node=4,
    )
    warm_eng = make_engine(
        "rw-store", problem, store=warm, epsilon=None,
        walks_per_node=4,
    )
    a = greedy_engine(cold_eng, 2)
    b = greedy_engine(warm_eng, 2)
    assert a.seeds.tolist() == b.seeds.tolist()
    np.testing.assert_array_equal(a.gains, b.gains)
    assert warm.stats.blocks_generated == 0


def _exists_prefix(store, candidate, kind):
    """The contiguous complete-block prefix, one ``exists()`` per part."""
    count = 0
    while all(
        store._block_path(candidate, kind, count, part).exists()
        for part in ("walks", "lengths")
    ):
        count += 1
    return count


@pytest.mark.parametrize(
    "drop",
    [
        ["b000003.walks"],  # block 3 lost its walks part
        ["b000004.walks", "b000005.walks", "b000005.lengths"],  # lone lengths
    ],
    ids=["block-3-walks-missing", "lone-lengths-part"],
)
def test_warm_open_adopts_the_complete_block_prefix(tmp_path, drop):
    """The prefix a warm open adopts from one directory listing is the
    one per-part ``exists()`` checks find; the rest regenerates."""
    problem = make_problem(21, n=12, r=2)
    cold = WalkStore(problem.state, problem.horizon, seed=5, store_dir=tmp_path)
    view = cold.per_node_view(0, 6)
    assert cold.stats.blocks_written == 6
    for path in tmp_path.glob("*.npy"):
        if any(f"-{name}.npy" in path.name for name in drop):
            path.unlink()
    warm = WalkStore(problem.state, problem.horizon, seed=5, store_dir=tmp_path)
    expected = _exists_prefix(warm, 0, KIND_PER_NODE)
    assert expected == int(drop[0][1:7])
    assert warm._disk_prefix(0, KIND_PER_NODE) == expected
    assert len(warm.pool(0, KIND_PER_NODE).blocks) == expected
    reopened = warm.per_node_view(0, 6)
    assert warm.stats.blocks_generated == 6 - expected
    np.testing.assert_array_equal(reopened.walks, view.walks)
    np.testing.assert_array_equal(reopened.lengths, view.lengths)


def test_mmap_manifest_mismatch_rejected(tmp_path):
    """Re-opening with a different identity must fail loudly, never serve
    walks drawn from different dynamics."""
    problem = make_problem(22, n=10, r=2)
    WalkStore(problem.state, problem.horizon, seed=1, store_dir=tmp_path)
    with pytest.raises(ValueError, match="different identity"):
        WalkStore(problem.state, problem.horizon, seed=2, store_dir=tmp_path)
    with pytest.raises(ValueError, match="different identity"):
        WalkStore(
            problem.state, problem.horizon + 1, seed=1, store_dir=tmp_path
        )
    with pytest.raises(ValueError, match="different identity"):
        WalkStore(
            problem.state,
            problem.horizon,
            seed=1,
            store_dir=tmp_path,
            block_walks=7,
        )
    # The matching identity still opens fine.
    WalkStore(problem.state, problem.horizon, seed=1, store_dir=tmp_path)


@pytest.mark.parametrize("old_format", [2, 3])
def test_old_store_format_refused(tmp_path, old_format):
    """A pre-checksum (format-2) or per-walk-``SeedSequence`` (format-3)
    manifest is refused with a structured error naming the format;
    nothing is upgraded or deleted in place."""
    problem = make_problem(22, n=10, r=2)
    store = WalkStore(problem.state, problem.horizon, seed=1, store_dir=tmp_path)
    store.uniform_view(0, 8)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["format"] = old_format
    if old_format == 2:
        del manifest["checksums"]
    path.write_text(json.dumps(manifest))
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(ValueError, match=f"on-disk format {old_format}"):
        WalkStore(problem.state, problem.horizon, seed=1, store_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert json.loads(path.read_text()) == manifest


def test_mmap_lru_bounds_resident_blocks(tmp_path):
    """The resident cap bounds retained blocks: a cold view serves the
    blocks it generated without reading them back, evicted blocks load
    again on demand, and every view stays byte-identical to the
    unbounded store."""
    problem = make_problem(23, n=10, r=2)
    unbounded = WalkStore(
        problem.state, problem.horizon, seed=4, block_walks=8
    )
    store = WalkStore(
        problem.state,
        problem.horizon,
        seed=4,
        block_walks=8,
        store_dir=tmp_path,
        resident_blocks=2,
    )
    view = store.uniform_view(0, 64)  # 8 blocks through a 2-slot LRU
    pool = store.pool(0, KIND_UNIFORM)
    assert sum(block is not None for block in pool.blocks) <= 2
    assert store.stats.blocks_loaded == 0  # no read-back of fresh blocks
    reference = unbounded.uniform_view(0, 64)
    np.testing.assert_array_equal(view.walks, reference.walks)
    np.testing.assert_array_equal(view.values, reference.values)
    # A size with no cached master re-materializes from disk: scanning
    # blocks 0..7 through two slots evicts 6 and 7 before they are
    # reached, so all eight load again, and residency stays capped.
    again = store.uniform_view(0, 60)
    assert store.stats.blocks_loaded == 8
    assert sum(block is not None for block in pool.blocks) <= 2
    reference = unbounded.uniform_view(0, 60)
    np.testing.assert_array_equal(again.walks, reference.walks)
    np.testing.assert_array_equal(again.values, reference.values)
    with pytest.raises(ValueError):
        WalkStore(
            problem.state, problem.horizon, store_dir=tmp_path, resident_blocks=0
        )


def _with_ledger(manifest, parts):
    """``manifest`` with every block's checksum entry replaced by ``parts``."""
    ledger = {stem: parts for stem in manifest["checksums"]}
    return json.dumps(manifest | {"checksums": ledger}).encode()


#: Malformed ``manifest.json`` bytes, built from a valid manifest.
_MALFORMED_MANIFESTS = {
    "not-an-object": lambda m: b"[]",
    "truncated": lambda m: json.dumps(m).encode()[:40],
    "not-utf8": lambda m: b"\xff",
    "checksums-list": lambda m: json.dumps(m | {"checksums": []}).encode(),
    "parts-list": lambda m: _with_ledger(m, [1, 2]),
    "crc-not-int": lambda m: _with_ledger(m, {"walks": "abc", "lengths": 1}),
    "crc-null": lambda m: _with_ledger(m, {"walks": None, "lengths": 1}),
    "crc-float": lambda m: _with_ledger(m, {"walks": 1.5, "lengths": 1}),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_MANIFESTS))
def test_malformed_manifest_is_a_value_error_naming_the_store(tmp_path, case):
    """Every malformed ``manifest.json`` — not JSON, not an object, a
    checksum ledger of the wrong shape — raises a ValueError naming the
    store directory (the CLI turns exactly that into a one-line exit),
    and leaves every file in the store as it was."""
    problem = make_problem(22, n=10, r=2)
    store = WalkStore(problem.state, problem.horizon, seed=1, store_dir=tmp_path)
    store.uniform_view(0, 8)
    path = tmp_path / "manifest.json"
    path.write_bytes(_MALFORMED_MANIFESTS[case](json.loads(path.read_text())))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValueError, match=re.escape(str(tmp_path))):
        WalkStore(problem.state, problem.horizon, seed=1, store_dir=tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_mmap_spec_and_store_dir_conflicts():
    problem = make_problem(24, n=10, r=2)
    shared = store_for_problem(problem, seed=0)
    with pytest.raises(ValueError, match="store_dir conflicts"):
        make_engine("rw-store", problem, store=shared, store_dir="/tmp/x")
    for bad in ("rw-store:mmap=", "rw-store:2:mmap=", "rw-store:mmap"):
        with pytest.raises(ValueError):
            EngineSpec.parse(bad)
    spec = EngineSpec.parse("rw-store:2:mmap=/data/walks:v1")
    assert spec.name == "rw-store"
    assert spec.kwargs() == {"store_dir": "/data/walks:v1"}


# ----------------------------------------------------------------------
# Write order: parts staged, ledger written once per batch, then renamed
# ----------------------------------------------------------------------
def _spy_manifest_writes(monkeypatch):
    """Count ``_write_manifest`` calls and renames onto ``manifest.json``."""
    calls = {"writes": 0, "renames": 0}
    write_manifest = WalkStore._write_manifest
    replace = os.replace

    def spy_write(self):
        calls["writes"] += 1
        write_manifest(self)

    def spy_replace(src, dst):
        calls["renames"] += Path(dst).name == "manifest.json"
        replace(src, dst)

    monkeypatch.setattr(WalkStore, "_write_manifest", spy_write)
    monkeypatch.setattr(os, "replace", spy_replace)
    return calls


def test_cold_open_writes_the_manifest_once_per_batch(tmp_path, monkeypatch):
    """Generating B blocks is one batch: B block writes, one ledger write
    (the directory's creation wrote its own before the spy)."""
    problem = make_problem(23, n=10, r=2)
    store = WalkStore(
        problem.state, problem.horizon, seed=4, block_walks=8, store_dir=tmp_path
    )
    calls = _spy_manifest_writes(monkeypatch)
    store.uniform_view(0, 64)  # 8 blocks
    assert store.stats.blocks_written == 8
    assert calls == {"writes": 1, "renames": 1}
    store.per_node_view(0, 5)  # a second pool: one more batch
    assert store.stats.blocks_written == 13
    assert calls == {"writes": 2, "renames": 2}
    store.uniform_view(0, 64)  # served from cache: nothing written
    assert calls == {"writes": 2, "renames": 2}


def test_interrupted_batch_regenerates_exactly_the_unrenamed_blocks(
    tmp_path, monkeypatch
):
    """The ledger lands before any part is renamed: a batch cut short
    after three of its eight blocks reached their final names leaves a
    ledger listing all eight.  A re-open regenerates exactly the other
    five, and their bytes reproduce the recorded crc32s."""
    problem = make_problem(23, n=10, r=2)
    store = WalkStore(
        problem.state, problem.horizon, seed=4, block_walks=8, store_dir=tmp_path
    )
    replace = os.replace
    renamed: list[str] = []

    class Interrupted(Exception):
        pass

    def cut_replace(src, dst):
        if Path(dst).suffix == ".npy":
            if len(renamed) == 6:  # blocks 0-2, two parts each
                raise Interrupted
            renamed.append(Path(dst).name)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", cut_replace)
    with pytest.raises(Interrupted):
        store.uniform_view(0, 64)
    monkeypatch.setattr(os, "replace", replace)

    ledger = json.loads((tmp_path / "manifest.json").read_text())["checksums"]
    assert len(ledger) == 8
    visible = {p.name for p in tmp_path.glob("*.npy")}
    assert visible == set(renamed)
    missing = sorted(s for s in ledger if f"{s}.walks.npy" not in visible)
    assert len(missing) == 5

    warm = WalkStore(
        problem.state, problem.horizon, seed=4, block_walks=8, store_dir=tmp_path
    )
    view = warm.uniform_view(0, 64)
    assert warm.stats.blocks_generated == 5
    assert warm.stats.blocks_loaded == 3
    assert warm.stats.blocks_quarantined == 0
    for stem, parts in ledger.items():
        for part, crc in parts.items():
            assert zlib.crc32((tmp_path / f"{stem}.{part}.npy").read_bytes()) == crc
    reference = WalkStore(problem.state, problem.horizon, seed=4, block_walks=8)
    np.testing.assert_array_equal(view.walks, reference.uniform_view(0, 64).walks)


def _npy_bytes(array, version):
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, version=version)
    return buffer.getvalue()


@pytest.mark.parametrize("version", [(1, 0), (2, 0)])
@pytest.mark.parametrize(
    "array",
    [
        np.arange(12, dtype=np.int32).reshape(3, 4),
        np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4)),
        np.arange(5, dtype=np.int64),
        np.array(7, dtype=np.int16),
    ],
    ids=["c-order", "fortran-order", "1d", "0d"],
)
def test_npy_header_memo_hit_equals_miss(monkeypatch, array, version):
    """A memoised header serves the array a fresh parse serves: same
    values, dtype, shape and memory order; a hit reads its own payload."""
    monkeypatch.setattr(walk_store, "_HEADER_MEMO", {})
    data = _npy_bytes(array, version)
    miss = walk_store._npy_array(data)
    assert len(walk_store._HEADER_MEMO) == 1
    other = _npy_bytes(
        (array + 1).copy(order="F" if array.flags.f_contiguous else "C"), version
    )
    hit = walk_store._npy_array(other)
    assert len(walk_store._HEADER_MEMO) == 1
    for got, expected in ((miss, array), (hit, array + 1)):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.flags.c_contiguous == array.flags.c_contiguous
        assert got.flags.f_contiguous == array.flags.f_contiguous
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, expected)


def test_npy_header_memo_never_grows_past_its_cap(monkeypatch):
    monkeypatch.setattr(walk_store, "_HEADER_MEMO", {})
    cap = walk_store._HEADER_MEMO_CAP
    for size in range(3 * cap):
        array = np.arange(size, dtype=np.int32)
        np.testing.assert_array_equal(
            walk_store._npy_array(_npy_bytes(array, (1, 0))), array
        )
        assert 1 <= len(walk_store._HEADER_MEMO) <= cap
