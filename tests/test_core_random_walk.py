"""Tests for reverse random walks, truncation, and the walk-greedy optimizer.

The key correctness properties from the paper:
* Theorem 8/9 — walk estimates are unbiased for the FJ opinion at t,
  with and without post-generation truncation (checked statistically).
* The vectorized marginal-gain scan must equal brute-force re-estimation
  (checked exactly for every score and both groupings).
"""

import hashlib
import warnings

import numpy as np
import pytest
from scipy.stats import chi2

from repro.core.engine import make_engine
from repro.core.greedy import greedy_engine
from repro.core.problem import FJVoteProblem
from repro.core.random_walk import (
    WalkGreedyOptimizer,
    _counter_uniforms,
    _walk_keys,
    estimate_gamma_star,
    generate_reverse_walks_streamed,
    random_walk_select,
)
from repro.graph.build import graph_from_edges
from repro.opinion.fj import apply_seeds, fj_evolve
from repro.voting.scores import (
    CopelandScore,
    CumulativeScore,
    PluralityScore,
)
from tests.conftest import random_instance, walks_from


def _example():
    g = graph_from_edges(4, [0, 1, 2], [2, 2, 3])
    b0 = np.array([0.4, 0.8, 0.6, 0.9])
    d = np.full(4, 0.5)
    return g, b0, d


# ----------------------------------------------------------------------
# Walk generation
# ----------------------------------------------------------------------
def test_walk_shapes_and_starts():
    g, b0, d = _example()
    starts = np.array([0, 1, 2, 3, 3])
    walks, lengths = generate_reverse_walks_streamed(g, d, 3, starts, [0])
    assert walks.shape == (5, 4)
    np.testing.assert_array_equal(walks[:, 0], starts)
    assert np.all(lengths >= 0) and np.all(lengths <= 3)


def test_walk_steps_follow_reverse_edges():
    g, b0, d = _example()
    walks, lengths = generate_reverse_walks_streamed(g, np.zeros(4), 5, np.full(50, 3), [1])
    for row, ln in zip(walks, lengths):
        for pos in range(int(ln)):
            cur, nxt = row[pos], row[pos + 1]
            sources, _ = g.in_neighbors(int(cur))
            assert int(nxt) in sources.tolist()


def test_fully_stubborn_walks_never_move():
    g, b0, _ = _example()
    walks, lengths = generate_reverse_walks_streamed(g, np.ones(4), 5, np.arange(4), [2])
    assert np.all(lengths == 0)


def test_walk_start_validation():
    g, b0, d = _example()
    with pytest.raises(ValueError):
        generate_reverse_walks_streamed(g, d, 2, np.array([9]), [0])
    with pytest.raises(ValueError):
        generate_reverse_walks_streamed(g, np.zeros(3), 2, np.array([0]), [0])


def _digest(walks, lengths):
    return hashlib.sha256(walks.tobytes() + lengths.tobytes()).hexdigest()


def test_generated_walk_bytes_are_pinned():
    """Golden digests of the walk generator on a tiny fixed instance.

    Persisted store blocks (STORE_FORMAT 4) are these bytes, and every
    RW/RS selection draws its walks from store blocks; a refactor of the
    step loop must not move them.
    """
    state = random_instance(n=12, r=2, seed=21)
    g, d = state.graph(0), state.stubbornness[0]
    starts = np.repeat(np.arange(12), 3)
    walks, lengths = generate_reverse_walks_streamed(g, d, 5, starts, [7, 1, 2, 3])
    assert walks.dtype == np.int32
    assert _digest(walks, lengths) == (
        "6dcf590d9416e06ade87d206763b7d1083dc8bbfda86dc4fad935435b995f05d"
    )
    walks, lengths = generate_reverse_walks_streamed(
        g, d, 5, starts[[3, 9]], [7, 1, 2, 3], stream_indices=np.array([3, 9])
    )
    assert _digest(walks, lengths) == (
        "6467164d409e953556fef6dcee0e9bd78cc1cae3d8d901477af859afeec181e0"
    )


# ----------------------------------------------------------------------
# The streamed generator's counter-based uniform source
# ----------------------------------------------------------------------
_ENTROPY = [7, 1, 2, 3]


def _uniforms(entropy, streams, step, slot):
    streams = np.asarray(streams, dtype=np.int64)
    keys = _walk_keys(entropy, streams)
    return _counter_uniforms(keys, np.arange(streams.size), step, slot)


def test_counter_uniforms_are_uniform_on_unit_interval():
    """A million draws at a fixed key lie in [0, 1) and pass a 64-bin
    chi-square test."""
    draws = np.concatenate(
        [
            _uniforms(_ENTROPY, np.arange(200_000), step, slot)
            for step in (1, 2)
            for slot in (0, 1, 2)
        ]
    )
    assert draws.dtype == np.float64 and draws.size >= 1_000_000
    assert draws.min() >= 0.0 and draws.max() < 1.0
    counts = np.bincount((draws * 64).astype(np.int64), minlength=64)
    expected = draws.size / 64
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2.sf(statistic, df=63) > 1e-3


def test_counter_uniforms_are_uncorrelated():
    """Slot 1 against slot 2 of a step (the alias-method pair), and the
    same draw of adjacent stream indices, show no linear correlation."""
    count = 500_000
    bound = 5.0 / np.sqrt(count)
    slot1 = _uniforms(_ENTROPY, np.arange(count), 3, 1)
    slot2 = _uniforms(_ENTROPY, np.arange(count), 3, 2)
    assert abs(np.corrcoef(slot1, slot2)[0, 1]) < bound
    draws = _uniforms(_ENTROPY, np.arange(count + 1), 3, 0)
    assert abs(np.corrcoef(draws[:-1], draws[1:])[0, 1]) < bound


def test_streamed_walks_depend_on_block_entropy():
    state = random_instance(n=30, r=1, seed=4)
    g, d = state.graph(0), state.stubbornness[0]
    starts = np.repeat(np.arange(30), 4)
    walks, _ = generate_reverse_walks_streamed(g, d, 8, starts, _ENTROPY)
    other, _ = generate_reverse_walks_streamed(g, d, 8, starts, [7, 1, 2, 4])
    assert not np.array_equal(walks, other)
    assert not np.array_equal(
        _uniforms(_ENTROPY, [0, 1], 1, 0), _uniforms([7, 1, 2, 4], [0, 1], 1, 0)
    )


def test_streamed_subset_regeneration_matches_full_block():
    """Any subset of stream indices, in any order — including indices past
    2^32 — regenerates exactly those rows of the full block."""
    state = random_instance(n=20, r=1, seed=9)
    g, d = state.graph(0), state.stubbornness[0]
    starts = np.random.default_rng(0).integers(0, 20, size=64)
    for base in (0, 2**32, 2**40):
        streams = base + np.arange(starts.size, dtype=np.int64)
        walks, lengths = generate_reverse_walks_streamed(
            g, d, 6, starts, _ENTROPY, stream_indices=streams
        )
        assert lengths.sum() > 0
        rows = np.random.default_rng(base % 97).permutation(starts.size)[:17]
        sub_walks, sub_lengths = generate_reverse_walks_streamed(
            g, d, 6, starts[rows], _ENTROPY, stream_indices=streams[rows]
        )
        np.testing.assert_array_equal(sub_walks, walks[rows])
        np.testing.assert_array_equal(sub_lengths, lengths[rows])
    high = _uniforms(_ENTROPY, 2**32 + np.arange(8), 1, 0)
    assert not np.array_equal(high, _uniforms(_ENTROPY, np.arange(8), 1, 0))


def test_streamed_generation_raises_no_warnings():
    """The uint64 hash arithmetic stays in arrays, which wrap silently;
    no overflow warning escapes for any walk count."""
    state = random_instance(n=12, r=1, seed=2)
    g, d = state.graph(0), state.stubbornness[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for count in (0, 1, 5, 300):
            starts = np.arange(count) % 12
            generate_reverse_walks_streamed(g, d, 7, starts, _ENTROPY)
            generate_reverse_walks_streamed(
                g, d, 7, starts, _ENTROPY, stream_indices=2**62 + np.arange(count)
            )


def test_negative_stream_indices_rejected():
    """-1 must not wrap to 2^64-1 and draw a valid-looking walk."""
    g, _, d = _example()
    with pytest.raises(ValueError, match="non-negative"):
        generate_reverse_walks_streamed(
            g, d, 3, np.array([0, 1]), _ENTROPY, stream_indices=np.array([0, -1])
        )


# ----------------------------------------------------------------------
# Theorems 8/9: unbiasedness, with and without truncation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seeds", [(), (2,), (0, 3)])
def test_estimates_unbiased_with_truncation(seeds):
    g, b0, d = _example()
    t = 3
    seeds = np.array(seeds, dtype=np.int64)
    walks = walks_from(
        g, d, b0, t, np.repeat(np.arange(4), 40_000), 3
    )
    for s in seeds:
        walks.add_seed(int(s))
    b0_seeded, d_seeded = apply_seeds(b0, d, seeds)
    exact = fj_evolve(b0_seeded, d_seeded, g, t)
    estimated = walks.estimated_opinions()
    np.testing.assert_allclose(estimated, exact, atol=0.01)


def test_estimates_unbiased_on_random_instance():
    state = random_instance(n=8, r=1, seed=5)
    g = state.graph(0)
    b0, d = state.initial_opinions[0], state.stubbornness[0]
    t = 4
    walks = walks_from(g, d, b0, t, np.repeat(np.arange(8), 30_000), 6)
    walks.add_seed(2)
    b0_s, d_s = apply_seeds(b0, d, np.array([2]))
    exact = fj_evolve(b0_s, d_s, g, t)
    np.testing.assert_allclose(walks.estimated_opinions(), exact, atol=0.015)


# ----------------------------------------------------------------------
# Truncation mechanics on a deterministic path
# ----------------------------------------------------------------------
def _deterministic_path_walks(t=3):
    # 0 -> 1 -> 2 -> 3, deterministic reverse walk from 3: 3,2,1,0.
    g = graph_from_edges(4, [0, 1, 2], [1, 2, 3])
    b0 = np.array([0.1, 0.2, 0.3, 0.4])
    d = np.zeros(4)
    walks = walks_from(g, d, b0, t, np.array([3]), 0)
    return g, b0, walks


def test_truncation_on_deterministic_path():
    _, b0, walks = _deterministic_path_walks()
    assert walks.walks[0].tolist() == [3, 2, 1, 0]
    assert walks.values[0] == pytest.approx(0.1)  # end node 0
    walks.add_seed(1)
    assert walks.end_pos[0] == 2
    assert walks.values[0] == 1.0
    # A later seed beyond the truncation point changes nothing.
    walks.add_seed(0)
    assert walks.end_pos[0] == 2
    assert walks.values[0] == 1.0
    # An earlier seed moves the cut forward.
    walks.add_seed(2)
    assert walks.end_pos[0] == 1
    assert walks.values[0] == 1.0


def test_add_seed_idempotent():
    _, _, walks = _deterministic_path_walks()
    walks.add_seed(2)
    end = walks.end_pos.copy()
    walks.add_seed(2)
    np.testing.assert_array_equal(walks.end_pos, end)


def test_live_pairs_shrink_after_seeding():
    _, _, walks = _deterministic_path_walks()
    optimizer = WalkGreedyOptimizer(walks, CumulativeScore(), None)
    nodes_before = optimizer._candidate_updates()[0]
    walks.add_seed(2)
    nodes_after = optimizer._candidate_updates()[0]
    assert nodes_after.size < nodes_before.size
    assert 1 not in nodes_after.tolist()  # node 1 got cut off
    assert 0 not in nodes_after.tolist()


def test_memory_bytes_positive():
    _, _, walks = _deterministic_path_walks()
    assert walks.memory_bytes() > 0


# ----------------------------------------------------------------------
# Optimizer: vectorized gains must equal brute-force re-estimation
# ----------------------------------------------------------------------
def _brute_force_gains(optimizer: WalkGreedyOptimizer) -> np.ndarray:
    """Recompute each candidate's gain by copying the walk state."""
    import copy

    walks = optimizer.walks
    n = walks.n
    base = optimizer.estimated_score()
    gains = np.zeros(n)
    for v in range(n):
        clone_walks = copy.deepcopy(walks)
        clone_opt = WalkGreedyOptimizer(
            clone_walks,
            optimizer.score,
            optimizer.others if optimizer.others.size else None,
            grouping=optimizer.grouping,
        )
        clone_walks.add_seed(v)
        gains[v] = clone_opt.estimated_score() - base
    return gains


@pytest.mark.parametrize("grouping", ["start", "walk"])
@pytest.mark.parametrize(
    "score", [CumulativeScore(), PluralityScore(), CopelandScore()]
)
def test_marginal_gains_match_brute_force(grouping, score):
    state = random_instance(n=7, r=3, seed=8)
    problem = FJVoteProblem(state, 0, 3, score)
    g = state.graph(0)
    if grouping == "start":
        starts = np.repeat(np.arange(7), 5)
    else:
        starts = np.random.default_rng(3).integers(0, 7, size=40)
    walks = walks_from(
        g, state.stubbornness[0], state.initial_opinions[0], 3, starts, 9
    )
    optimizer = WalkGreedyOptimizer(
        walks,
        score,
        None if isinstance(score, CumulativeScore) else problem.others_by_user(),
        grouping=grouping,
    )
    fast = optimizer.marginal_gains()
    slow = _brute_force_gains(optimizer)
    np.testing.assert_allclose(fast, slow, atol=1e-9)
    # And again after one seed is chosen (live-entry filtering path).
    optimizer.walks.add_seed(int(np.argmax(fast)))
    fast2 = optimizer.marginal_gains()
    slow2 = _brute_force_gains(optimizer)
    np.testing.assert_allclose(fast2, slow2, atol=1e-9)


def test_optimizer_rejects_bad_grouping():
    _, _, walks = _deterministic_path_walks()
    with pytest.raises(ValueError):
        WalkGreedyOptimizer(walks, CumulativeScore(), None, grouping="x")


def test_optimizer_requires_competitors_for_rank_scores():
    _, _, walks = _deterministic_path_walks()
    with pytest.raises(ValueError):
        WalkGreedyOptimizer(walks, PluralityScore(), None)


def test_select_returns_distinct_seeds():
    state = random_instance(n=10, r=2, seed=12)
    problem = FJVoteProblem(state, 0, 3, PluralityScore())
    engine = make_engine("rw", problem, rng=13, walks_per_node=8)
    result = greedy_engine(engine, 4)
    assert len(set(result.seeds.tolist())) == 4


# ----------------------------------------------------------------------
# End-to-end RW selection + γ* heuristic
# ----------------------------------------------------------------------
def test_random_walk_select_improves_score():
    state = random_instance(n=12, r=2, seed=14)
    problem = FJVoteProblem(state, 0, 4, CumulativeScore())
    result = random_walk_select(problem, 3, rng=15, walks_per_node=32)
    assert result.exact_objective >= problem.objective(()) - 1e-9
    assert result.seeds.size == 3
    assert result.total_walks == 12 * 32


def test_random_walk_select_rank_score_uses_gamma():
    state = random_instance(n=10, r=3, seed=16)
    problem = FJVoteProblem(state, 0, 3, PluralityScore())
    result = random_walk_select(problem, 2, rng=17, lambda_cap=16)
    assert result.walks_per_node.max() <= 16
    assert result.seeds.size == 2


def test_estimate_gamma_star():
    estimated = np.array([0.8, 0.3, 0.6])
    others = np.array([[0.2, 0.3], [0.5, 0.6], [0.1, 0.59]])
    gamma = estimate_gamma_star(estimated, others, floor=0.05)
    # User 0 sits 0.5 above every competitor; users 1 and 2 are contested.
    np.testing.assert_allclose(gamma, [0.5, 0.05, 0.05])


def test_estimate_gamma_star_no_competitors():
    gamma = estimate_gamma_star(np.array([0.5]), np.empty((1, 0)))
    assert np.isinf(gamma[0])


# ----------------------------------------------------------------------
# Truncation-state snapshots: copy-on-write and set-backed seed adds
# ----------------------------------------------------------------------
def _walks_instance(seed=5):
    state = random_instance(n=14, r=2, seed=seed)
    graph = state.graph(0)
    return walks_from(
        graph,
        state.stubbornness[0],
        state.initial_opinions[0],
        4,
        np.repeat(np.arange(graph.n, dtype=np.int64), 6),
        seed,
    )


def test_add_seed_duplicate_is_noop():
    """Membership is set-backed; re-adding a seed must change nothing —
    not the seed list, not the truncation arrays, not even array identity
    (no copy-on-write trigger)."""
    walks = _walks_instance()
    walks.add_seed(3)
    end_pos, values, b0 = walks.end_pos, walks.values, walks._b0
    before = (end_pos.copy(), values.copy(), b0.copy())
    walks.add_seed(3)
    assert walks.seeds == [3]
    assert walks.end_pos is end_pos and walks.values is values
    assert walks._b0 is b0
    np.testing.assert_array_equal(walks.end_pos, before[0])
    np.testing.assert_array_equal(walks.values, before[1])
    np.testing.assert_array_equal(walks._b0, before[2])


def test_seeds_setter_keeps_membership_in_sync():
    walks = _walks_instance()
    walks.add_seed(2)
    walks.seeds = []
    walks.add_seed(2)  # must not be treated as a duplicate after reset
    assert walks.seeds == [2]


def test_snapshot_restore_is_copy_on_write():
    """Regression: snapshot/restore used to copy every array twice (once
    at snapshot, once per restore).  Restore now aliases the snapshot and
    the first mutating add_seed copies — so the snapshot must survive
    mutations, and a mutation-free restore must not allocate."""
    walks = _walks_instance()
    snap = walks.snapshot_state()
    pristine = tuple(a.copy() for a in snap)
    walks.add_seed(4)  # copy-on-write: snapshot arrays must stay pristine
    assert not np.shares_memory(walks.values, snap[1])
    np.testing.assert_array_equal(snap[0], pristine[0])
    np.testing.assert_array_equal(snap[1], pristine[1])
    np.testing.assert_array_equal(snap[2], pristine[2])
    walks.restore_state(snap)
    # restore is an O(1) pointer swap: same arrays, no copies...
    assert walks.end_pos is snap[0] and walks.values is snap[1]
    assert walks.seeds == []
    # ...and the next mutation detaches again without touching the snapshot.
    walks.add_seed(7)
    assert not np.shares_memory(walks.end_pos, snap[0])
    np.testing.assert_array_equal(snap[0], pristine[0])
    np.testing.assert_array_equal(snap[1], pristine[1])


def test_walk_engine_reset_does_not_leak_mutations_into_snapshot():
    """End-to-end aliasing regression over WalkEngine: evaluating seeded
    sets between empty-set evaluations must keep the pristine snapshot
    byte-identical, so the empty-set estimate never drifts."""
    state = random_instance(n=14, r=2, seed=9)
    problem = FJVoteProblem(state, 0, 4, CumulativeScore())
    engine = make_engine("rw", problem, rng=11, walks_per_node=6)
    baseline = engine.evaluate_one(())
    snap_values = engine._snapshot[1].copy()
    for seeds in ((3,), (1, 5), (), (9, 3)):
        engine.evaluate_one(seeds)
    np.testing.assert_array_equal(engine._snapshot[1], snap_values)
    assert engine.evaluate_one(()) == baseline


def test_walk_greedy_rounds_never_sort(monkeypatch):
    """The pair table is the gain scan's one sort: once the first
    ``marginal_gains`` has built it, the rounds of a greedy selection
    (commits, gain scans, score estimates) sort nothing."""
    state = random_instance(n=24, r=3, seed=4)
    problem = FJVoteProblem(state, 0, 4, PluralityScore())
    expected = greedy_engine(make_engine("rw-store", problem, rng=7), 4)
    engine = make_engine("rw-store", problem, rng=7)
    engine.marginal_gains((), np.arange(problem.n))

    def refuse(*args, **kwargs):
        raise AssertionError("a walk greedy round sorted")

    for name in ("unique", "argsort", "sort", "lexsort"):
        monkeypatch.setattr(np, name, refuse)
    result = greedy_engine(engine, 4)
    np.testing.assert_array_equal(result.seeds, expected.seeds)
    assert result.objective == expected.objective
