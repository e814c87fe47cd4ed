"""Tests for the alias-method sampler."""

import numpy as np
import pytest

from repro.graph.alias import AliasSampler
from repro.graph.build import graph_from_edges


def _example_sampler():
    g = graph_from_edges(4, [0, 1, 2], [2, 2, 3])
    return g, AliasSampler(g.csc)


def test_distribution_reconstruction_matches_input():
    g, sampler = _example_sampler()
    for j in range(4):
        expected_nodes, expected_weights = g.in_neighbors(j)
        nodes, probs = sampler.distribution(j)
        assert nodes.tolist() == expected_nodes.tolist()
        np.testing.assert_allclose(probs, expected_weights, atol=1e-12)


def test_sampling_frequencies_approximate_weights():
    g, sampler = _example_sampler()
    rng = np.random.default_rng(0)
    draws = sampler.sample(np.full(20_000, 2), rng)
    freq0 = np.mean(draws == 0)
    assert freq0 == pytest.approx(0.5, abs=0.02)
    assert set(np.unique(draws)) == {0, 1}


def test_sampling_deterministic_column():
    g, sampler = _example_sampler()
    draws = sampler.sample(np.full(100, 3), np.random.default_rng(1))
    assert set(np.unique(draws)) == {2}


def test_skewed_distribution():
    g = graph_from_edges(3, [0, 1], [2, 2], weight=np.array([9.0, 1.0]))
    sampler = AliasSampler(g.csc)
    rng = np.random.default_rng(5)
    draws = sampler.sample(np.full(30_000, 2), rng)
    assert np.mean(draws == 0) == pytest.approx(0.9, abs=0.01)


def test_rejects_missing_in_neighbors():
    from scipy import sparse

    mat = sparse.csc_matrix((2, 2))
    with pytest.raises(ValueError, match="no in-neighbors"):
        AliasSampler(mat)


def test_sample_shape_and_range():
    g, sampler = _example_sampler()
    rng = np.random.default_rng(2)
    current = rng.integers(0, 4, size=500)
    out = sampler.sample(current, rng)
    assert out.shape == current.shape
    assert out.min() >= 0 and out.max() < 4


# ----------------------------------------------------------------------
# The graph-owned table (InfluenceGraph.alias_sampler)
# ----------------------------------------------------------------------
def _assert_table_matches(table, graph):
    fresh = AliasSampler(graph.csc)
    for j in range(graph.n):
        nodes, probs = table.distribution(j)
        fresh_nodes, fresh_probs = fresh.distribution(j)
        np.testing.assert_array_equal(nodes, fresh_nodes)
        np.testing.assert_allclose(probs, fresh_probs, atol=1e-12)


def _delta_problem():
    from repro.core.problem import FJVoteProblem
    from repro.voting.scores import CumulativeScore
    from tests.conftest import random_instance

    return FJVoteProblem(random_instance(n=10, r=2, seed=4), 0, 3, CumulativeScore())


def _reweightable_edge(graph):
    """``(column, in-neighbor)`` of a column with at least two in-edges."""
    dst = int(np.argmax(graph.in_degrees()))
    assert graph.in_degrees()[dst] >= 2
    return dst, int(graph.in_neighbors(dst)[0][0])


def test_graph_caches_one_table_per_version():
    g = graph_from_edges(4, [0, 1, 2], [2, 2, 3])
    assert g.alias_sampler() is g.alias_sampler()


def test_delta_gives_a_new_table_matching_the_patched_columns():
    problem = _delta_problem()
    graph = problem.state.graph(0)
    before = graph.alias_sampler()
    dst, src = _reweightable_edge(graph)
    problem.apply_delta([(src, dst, 5.0)])  # data-only: reweights column dst
    after = graph.alias_sampler()
    assert after is not before
    assert not np.allclose(after.distribution(dst)[1], before.distribution(dst)[1])
    assert after is graph.alias_sampler()
    _assert_table_matches(after, graph)


def test_pickle_omits_the_table():
    import pickle

    problem = _delta_problem()
    graph = problem.state.graph(0)
    graph_bytes, problem_bytes = pickle.dumps(graph), pickle.dumps(problem)
    graph.alias_sampler()
    assert pickle.dumps(graph) == graph_bytes
    assert pickle.dumps(problem) == problem_bytes
    assert pickle.loads(graph_bytes).alias_sampler() is not graph.alias_sampler()


def test_shared_array_graph_serves_a_table_keyed_on_version():
    """``InfluenceGraph.__new__`` graphs (shared-memory problem views).

    A data-only delta lands in the shared arrays without any method call
    on the view's graph; only ``note_external_delta`` bumps its version,
    and that alone must retire the stale table.
    """
    from repro.core.problem import FJVoteProblem

    problem = _delta_problem()
    skeleton, arrays = problem.share_arrays()
    view = FJVoteProblem.from_shared_arrays(skeleton, arrays)
    graph = view.state.graph(0)
    stale = graph.alias_sampler()
    _assert_table_matches(stale, graph)
    dst, src = _reweightable_edge(graph)
    report = problem.apply_delta([(src, dst, 5.0)])
    assert not report.structural
    assert graph.alias_sampler() is stale  # patched bytes, same version
    view.note_external_delta(report)
    fresh = graph.alias_sampler()
    assert fresh is not stale
    _assert_table_matches(fresh, graph)
