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
padded-grid mask + ``lexsort`` construction kept here as an oracle.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.random_walk import TruncatedWalks, WalkGreedyOptimizer
from repro.voting.scores import CumulativeScore, PluralityScore
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
