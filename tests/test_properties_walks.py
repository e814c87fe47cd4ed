"""Property-based tests (hypothesis) for walk truncation invariants.

After *any* sequence of seed additions, a :class:`TruncatedWalks` collection
must satisfy:

* ``end_pos[i]`` points at the first occurrence of the earliest-seeded node
  in walk ``i`` (or the original end if no seed occurs);
* ``values[i]`` equals the (seeded) initial opinion of the end node;
* truncation pointers never move backwards;
* the estimated score of a :class:`WalkGreedyOptimizer` equals the direct
  formula over its group estimates.

The first-occurrence index built from the walk lengths must equal the
padded-grid mask + ``lexsort`` construction kept here as an oracle, and
the gain scan over the optimizer's once-built (node, group) pair table
must give the bytes of a per-round ``np.unique`` over the live entries.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.random_walk import TruncatedWalks, WalkGreedyOptimizer
from repro.core.walk_store import WalkStore
from repro.voting.scores import (
    CopelandScore,
    CumulativeScore,
    PApprovalScore,
    PluralityScore,
)
from repro.core.problem import FJVoteProblem
from tests.conftest import random_instance, walks_from


def _make_walks(seed: int, n: int = 8, lam: int = 4, t: int = 4) -> TruncatedWalks:
    state = random_instance(n=n, r=2, seed=seed)
    starts = np.repeat(np.arange(n, dtype=np.int64), lam)
    return walks_from(
        state.graph(0),
        state.stubbornness[0],
        state.initial_opinions[0],
        t,
        starts,
        seed,
    )


def _check_invariants(walks: TruncatedWalks) -> None:
    seeds = set(walks.seeds)
    for i in range(walks.num_walks):
        row = walks.walks[i]
        end = int(walks.end_pos[i])
        length = int(walks.lengths[i])
        assert 0 <= end <= length
        # Expected truncation point: first position holding any seed.
        expected = length
        for pos in range(length + 1):
            if int(row[pos]) in seeds:
                expected = pos
                break
        assert end == expected
        end_node = int(row[end])
        expected_value = 1.0 if end_node in seeds else walks._b0[end_node]
        assert walks.values[i] == expected_value


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2000),
    additions=st.lists(st.integers(0, 7), min_size=0, max_size=6),
)
def test_property_truncation_invariants_after_any_seed_sequence(seed, additions):
    walks = _make_walks(seed)
    prev_end = walks.end_pos.copy()
    for node in additions:
        walks.add_seed(int(node))
        assert np.all(walks.end_pos <= prev_end), "truncation moved backwards"
        prev_end = walks.end_pos.copy()
    _check_invariants(walks)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2000))
def test_property_estimated_score_consistent(seed):
    state = random_instance(n=8, r=2, seed=seed)
    problem = FJVoteProblem(state, 0, 3, PluralityScore())
    starts = np.repeat(np.arange(8, dtype=np.int64), 3)
    walks = walks_from(
        state.graph(0), state.stubbornness[0], state.initial_opinions[0],
        3, starts, seed,
    )
    optimizer = WalkGreedyOptimizer(
        walks, PluralityScore(), problem.others_by_user(), grouping="start"
    )
    b_hat = optimizer.group_estimates()
    others = problem.others_by_user()[optimizer.group_user]
    direct = float(
        np.dot(
            optimizer.group_weight,
            PluralityScore().contributions(b_hat, others),
        )
    )
    assert optimizer.estimated_score() == direct


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2000), theta=st.integers(5, 40))
def test_property_sketch_weights_scale_with_n_over_theta(seed, theta):
    state = random_instance(n=9, r=2, seed=seed)
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, 9, size=theta)
    walks = walks_from(
        state.graph(0), state.stubbornness[0], state.initial_opinions[0],
        2, starts, seed,
    )
    optimizer = WalkGreedyOptimizer(walks, CumulativeScore(), None, grouping="walk")
    # Estimated cumulative score = (n/θ) Σ values (Eq. 35).
    expected = 9.0 / theta * walks.values.sum()
    assert abs(optimizer.estimated_score() - expected) < 1e-9


# ----------------------------------------------------------------------
# First-occurrence index: built from lengths == the padded-grid oracle
# ----------------------------------------------------------------------
def _grid_index(walks: np.ndarray, n: int):
    """The index by masking the padded grid and a 3-key ``lexsort``."""
    num, width = walks.shape
    pos_grid = np.broadcast_to(np.arange(width, dtype=np.int64), (num, width))
    walk_grid = np.broadcast_to(
        np.arange(num, dtype=np.int64)[:, None], (num, width)
    )
    valid = walks >= 0
    nodes = walks[valid].astype(np.int64)
    pos = pos_grid[valid]
    wids = walk_grid[valid]
    order = np.lexsort((pos, nodes, wids))
    nodes, pos, wids = nodes[order], pos[order], wids[order]
    first = np.ones(nodes.size, dtype=bool)
    if nodes.size > 1:
        first[1:] = (nodes[1:] != nodes[:-1]) | (wids[1:] != wids[:-1])
    nodes, pos, wids = nodes[first], pos[first], wids[first]
    by_node = np.argsort(nodes, kind="stable")
    idx_node = nodes[by_node]
    return {
        "idx_node": idx_node,
        "idx_pos": pos[by_node],
        "idx_walk": wids[by_node],
        "node_ptr": np.searchsorted(idx_node, np.arange(n + 1)),
    }


@st.composite
def _padded_walks(draw):
    """``(walks, lengths, n)``: -1-padded int32 walks, length-0 walks and
    revisits (a node seen twice in one walk) included."""
    n = draw(st.integers(1, 6))
    width = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(0, width - 1), max_size=12))
    walks = np.full((len(lengths), width), -1, dtype=np.int32)
    for i, length in enumerate(lengths):
        walks[i, : length + 1] = draw(
            st.lists(st.integers(0, n - 1), min_size=length + 1, max_size=length + 1)
        )
    return walks, np.array(lengths, dtype=np.int64), n


def _explicit_walks():
    walks = np.array(
        [[2, 1, 2, 2], [0, -1, -1, -1], [1, 1, 0, -1], [2, -1, -1, -1]],
        dtype=np.int32,
    )
    return walks, np.array([3, 0, 2, 0], dtype=np.int64), 3


@settings(max_examples=60, deadline=None)
@given(case=_padded_walks())
@example(case=_explicit_walks())
def test_property_index_from_lengths_equals_grid_oracle(case):
    walks, lengths, n = case
    built = TruncatedWalks(walks, lengths, np.zeros(n), n)
    for name, expected in _grid_index(walks, n).items():
        got = getattr(built, name)
        assert got.dtype == expected.dtype, name
        np.testing.assert_array_equal(got, expected, err_msg=name)


@pytest.mark.parametrize(
    "lengths",
    [
        [3, 2],  # walk 1 reads a -1 pad cell as a node
        [2, 0],  # walk 0 leaves a valid cell past its end
        [4, 0],  # past the last column
        [-1, 0],  # negative
    ],
)
def test_index_refuses_lengths_that_disagree_with_padding(lengths):
    walks = np.array([[0, 1, 2, 1], [1, 0, -1, -1]], dtype=np.int32)
    TruncatedWalks(walks, np.array([3, 1]), np.zeros(3), 3)  # consistent
    with pytest.raises(ValueError, match="length"):
        TruncatedWalks(walks, np.array(lengths), np.zeros(3), 3)


# ----------------------------------------------------------------------
# Gain scan: the once-built pair table == a per-round sort of live entries
# ----------------------------------------------------------------------
def _sorted_pair_updates(optimizer: WalkGreedyOptimizer, candidates=None):
    """``(pair_node, pair_group, old_b, new_b)`` by sorting this round's
    live (node, group) keys with ``np.unique``."""
    walks = optimizer.walks
    groups_total = optimizer.num_groups
    mask = walks.idx_pos <= walks.end_pos[walks.idx_walk]
    if candidates is not None:
        wanted = np.zeros(walks.n, dtype=bool)
        wanted[candidates] = True
        mask &= wanted[walks.idx_node]
    nodes, wids = walks.idx_node[mask], walks.idx_walk[mask]
    delta = 1.0 - walks.values[wids]
    key = nodes * np.int64(groups_total) + optimizer.group_of_walk[wids]
    uniq, inverse = np.unique(key, return_inverse=True)
    delta_sum = np.bincount(inverse, weights=delta, minlength=uniq.size)
    pair_node = (uniq // groups_total).astype(np.int64)
    pair_group = (uniq % groups_total).astype(np.int64)
    sums = optimizer._group_sums()
    old_b = sums[pair_group] / optimizer.group_size[pair_group]
    new_b = (sums[pair_group] + delta_sum) / optimizer.group_size[pair_group]
    return pair_node, pair_group, old_b, new_b


_SCORES = {
    "cumulative": CumulativeScore,
    "plurality": PluralityScore,
    "p-approval": lambda: PApprovalScore(2),
    "copeland": CopelandScore,
}


@st.composite
def _scan_cases(draw):
    n = draw(st.integers(3, 8))
    nodes = st.integers(0, n - 1)
    return dict(
        seed=draw(st.integers(0, 2000)),
        n=n,
        view=draw(st.sampled_from(["round-major", "node-major", "uniform"])),
        grouping=draw(st.sampled_from(["start", "walk"])),
        score=draw(st.sampled_from(sorted(_SCORES))),
        lam=draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
        seeds=draw(st.lists(nodes, max_size=3)),
        candidates=draw(
            st.none() | st.lists(nodes, min_size=1, max_size=n, unique=True)
        ),
        warm=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(case=_scan_cases())
def test_property_pair_table_scan_equals_per_round_sort(case):
    n = case["n"]
    state = random_instance(n=n, r=3, seed=case["seed"])
    problem = FJVoteProblem(state, 0, 3, _SCORES[case["score"]]())
    store = WalkStore(state, 3, seed=case["seed"])
    if case["view"] == "round-major":
        walks = store.per_node_view(0, 2)
    elif case["view"] == "node-major":
        walks = store.per_node_view(0, np.array(case["lam"], dtype=np.int64))
    else:
        walks = store.uniform_view(0, 3 * n)

    def build(view):
        others = None
        if not isinstance(problem.score, CumulativeScore):
            others = problem.others_by_user()
        return WalkGreedyOptimizer(
            view, problem.score, others, grouping=case["grouping"]
        )

    optimizer = build(walks)
    oracle = build(walks.share())
    oracle._candidate_updates = lambda c=None: _sorted_pair_updates(oracle, c)
    if case["grouping"] == "start":
        uniq, group_of_walk = np.unique(walks.starts, return_inverse=True)
        assert optimizer.group_of_walk.dtype == np.int64
        assert optimizer.group_of_walk.tobytes() == group_of_walk.tobytes()
        assert optimizer.group_user.tobytes() == uniq.astype(np.int64).tobytes()
    if case["warm"]:
        optimizer.marginal_gains()  # the table is built before any commit
    for node in case["seeds"]:
        optimizer.walks.add_seed(node)
        oracle.walks.add_seed(node)
    candidates = case["candidates"]
    if candidates is not None:
        candidates = np.array(candidates, dtype=np.int64)
    got = optimizer._candidate_updates(candidates)
    expected = _sorted_pair_updates(oracle, candidates)
    for name, a, b in zip(("pair_node", "pair_group", "old_b", "new_b"), got, expected):
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    gains = optimizer.marginal_gains(candidates)
    assert gains.tobytes() == oracle.marginal_gains(candidates).tobytes()
