"""Tests for incremental re-solve under graph/opinion churn.

``FJVoteProblem.apply_delta`` performs in-place CSR/CSC surgery and emits
a ``DeltaReport`` that every warm cache layer accepts instead of being
rebuilt.  The contracts pinned here:

* **Graph surgery** — touched columns are renormalized exactly;
  emptied columns get the standard self-loop.
* **Problem caches** — after a delta the warm problem's caches equal a
  cold problem built over the same post-delta state, byte for byte.
* **Sessions** — after any delta that touches the target, a warm
  session's committed trajectory is replayed lazily, bitwise: its gains
  equal those of a session opened on the post-delta problem that commits
  the same seeds, on ``dm-batched`` and on two loopback ``dm-mp:tcp``
  hosts.  A hypothesis state machine interleaves commits, target and
  competitor edge reweights and opinion changes, and checks the warm
  session against such a fresh session and against a dense numpy FJ
  recurrence after every step.
* **Walk store** — exactly the walks that stepped out of a touched
  column are regenerated, in place inside their blocks; a patched pool
  is byte-identical to one generated cold under the post-delta graph,
  zero whole blocks are regenerated, and the forward is idempotent.
  Opinion-only deltas leave every block byte-intact.  Persisted stores
  pin graph versions in the manifest and refuse to open across an
  unforwarded delta.
* **dm-mp tcp hosts** — every live host replays the broadcast delta
  (its argument rows, candidate and versions) through its own
  ``apply_delta``, which keeps it byte-identical to a single-process
  engine over the same post-delta problem, and a host that misses a
  broadcast catches up through the rejoin handshake's patched problem.
* **CLI** — ``--apply-delta`` replays a journal against ``--store-dir``
  so cold runs, delta runs and idempotent re-runs share one command.
"""

from __future__ import annotations

import json
import os
import pickle
import zlib

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cli import main as cli_main
from repro.core.engine import BatchedDMEngine
from repro.core.engine_mp import HostPool
from repro.core.problem import FJVoteProblem
from repro.core.walk_store import KIND_PER_NODE, WalkStore
from repro.datasets.yelp import yelp_like
from repro.voting.scores import CumulativeScore, PluralityScore

from tests.conftest import random_instance, start_worker


def make_problem(seed, *, n=24, r=3, horizon=4, score=None):
    state = random_instance(n=n, r=r, seed=seed, shared_graph=False)
    return FJVoteProblem(state, 0, horizon, score or PluralityScore())


def census_hot_nodes(store, candidate, kind, n, top=4):
    """Nodes whose columns stored walks step out of most often.

    Reverse walks consult column ``v`` only when stepping out of ``v``
    before terminating, so churn on these columns is guaranteed to
    invalidate stored walks (arbitrary nodes frequently have zero
    crossings — the walks are short).
    """
    pool = store.pool(candidate, kind)
    visits = np.zeros(n, dtype=np.int64)
    for index in range(len(pool.blocks)):
        walks, lengths = pool.block(index)
        trans = (
            np.arange(walks.shape[1])[None, :]
            < np.asarray(lengths)[:, None]
        )
        visits += np.bincount(walks[trans], minlength=n)
    hot = np.argsort(visits)[::-1]
    return [int(h) for h in hot[:top] if visits[h] > 0]


def reweight_in_edge(graph, node, factor=2.0):
    """An ``edges_added`` triple rescaling one existing in-edge of node."""
    sources, weights = graph.in_neighbors(node)
    assert sources.size, f"node {node} has no in-edges to churn"
    return (int(sources[0]), int(node), float(weights[0]) * factor)


# ----------------------------------------------------------------------
# Graph surgery
# ----------------------------------------------------------------------
def test_graph_surgery_invariants_and_versioning():
    state = random_instance(n=16, r=2, seed=3, shared_graph=False)
    graph = state.graph(0)
    src, dst, weight = graph.edges()
    assert graph.version == 0

    # Weight-only: arrays are rewritten in place.
    data_before = graph.csr.data
    touched, structural = graph.apply_edge_delta(
        added=[(int(src[0]), int(dst[0]), float(weight[0]) * 3.0)]
    )
    assert not structural
    assert touched.tolist() == [int(dst[0])]
    assert graph.csr.data is data_before
    assert graph.version == 1

    # Structural: brand-new edge, then a removal.
    dense = graph.csr.toarray()
    non_edge = next(
        (i, j)
        for i in range(16)
        for j in range(16)
        if i != j and dense[i, j] == 0
    )
    touched, structural = graph.apply_edge_delta(
        added=[(non_edge[0], non_edge[1], 0.5)]
    )
    assert structural and touched.tolist() == [non_edge[1]]
    assert graph.version == 2

    # Every column stays stochastic and csr mirrors csc exactly.
    np.testing.assert_allclose(
        np.asarray(graph.csc.sum(axis=0)).ravel(), 1.0, rtol=0, atol=1e-12
    )
    np.testing.assert_array_equal(
        graph.csr.toarray(), graph.csc.toarray()
    )

    # Emptying a column installs the standard self-loop of weight 1.
    col = int(dst[0])
    sources, _ = graph.in_neighbors(col)
    touched, structural = graph.apply_edge_delta(
        removed=[(int(s), col) for s in sources]
    )
    assert structural
    sources, weights = graph.in_neighbors(col)
    assert sources.tolist() == [col]
    np.testing.assert_array_equal(weights, [1.0])

    # Invalid deltas are rejected before any mutation.
    version = graph.version
    with pytest.raises(ValueError, match="non-positive weight"):
        graph.apply_edge_delta(added=[(0, 1, 0.0)])
    with pytest.raises(ValueError, match="missing edge"):
        graph.apply_edge_delta(removed=[(non_edge[1], non_edge[0])])
    assert graph.version == version


# ----------------------------------------------------------------------
# Problem caches
# ----------------------------------------------------------------------
def test_delta_generator_arguments_are_applied_and_counted():
    """Generators are read once, at the boundary: the report counts every
    row and the problem ends bitwise where the same rows as lists leave
    it (the counts feed the serve response, the CLI ``delta:`` line and
    the tcp broadcast's report)."""
    listed, generated = make_problem(19), make_problem(19)
    src, dst, weight = listed.state.graph(0).edges()
    added = [(1, 2, 0.5), (int(src[0]), int(dst[0]), float(weight[0]) * 2.0)]
    removed = [(int(src[1]), int(dst[1]))]
    opinions = [(0, 3, 0.75), (1, 5, 0.25)]
    expected = listed.apply_delta(added, removed, opinions)
    report = generated.apply_delta(
        edges_added=(row for row in added),
        edges_removed=(row for row in removed),
        opinions_changed=(row for row in opinions),
    )
    assert (report.edges_added, report.edges_removed) == (2, 1)
    assert (expected.edges_added, expected.edges_removed) == (2, 1)
    assert report.touched_nodes.tolist() == expected.touched_nodes.tolist()
    assert sorted(report.opinions_by_candidate) == [0, 1]
    assert (report.graph_version, report.opinion_version) == (1, 1)
    assert generated.state.graph(0).csc.data.tobytes() == (
        listed.state.graph(0).csc.data.tobytes()
    )
    np.testing.assert_array_equal(
        generated.state.initial_opinions, listed.state.initial_opinions
    )
    np.testing.assert_array_equal(
        generated.others_by_user(), listed.others_by_user()
    )


def test_report_rows_replay_bitwise_on_an_unpickled_problem():
    """A report records the delta as applied; passing its rows back to
    ``apply_delta`` on an unpickled pre-delta copy (what a tcp host holds:
    its opinion matrix arrived read-only in the handshake bytes) lands
    bitwise where the original did, versions and caches included."""
    problem = make_problem(19)
    problem.others_by_user()
    problem.target_trajectory()
    replica = pickle.loads(pickle.dumps(problem, pickle.HIGHEST_PROTOCOL))
    src, dst, weight = problem.state.graph(0).edges()
    report = problem.apply_delta(
        edges_added=[(1, 2, 0.5), (int(src[0]), int(dst[0]), float(weight[0]) * 2.0)],
        edges_removed=[(int(src[1]), int(dst[1]))],
        opinions_changed=[(0, 3, 0.75), (1, 5, 0.25)],
    )
    assert (report.candidate, report.edges_added, report.edges_removed) == (0, 2, 1)
    replayed = replica.apply_delta(
        report.added_edges,
        report.removed_edges,
        report.changed_opinions,
        candidate=report.candidate,
    )
    assert (replayed.graph_version, replayed.opinion_version) == (
        report.graph_version,
        report.opinion_version,
    )
    assert replayed.dirty == report.dirty == {0, 1}
    for attr in ("csr", "csc"):
        for part in ("data", "indices", "indptr"):
            assert getattr(getattr(replica.state.graph(0), attr), part).tobytes() == (
                getattr(getattr(problem.state.graph(0), attr), part).tobytes()
            )
    assert replica.state.initial_opinions.tobytes() == (
        problem.state.initial_opinions.tobytes()
    )
    assert not replica.state.initial_opinions.flags.writeable
    assert replica.others_by_user().tobytes() == problem.others_by_user().tobytes()
    assert replica.target_trajectory().tobytes() == (
        problem.target_trajectory().tobytes()
    )


def test_problem_delta_refreshes_caches_bitwise():
    problem = make_problem(11)
    problem.others_by_user()  # warm every cache the delta must refresh
    problem.target_trajectory()
    graph = problem.state.graph(0)
    src, dst, weight = graph.edges()

    report = problem.apply_delta(
        edges_added=[(int(src[0]), int(dst[0]), float(weight[0]) * 2.0)],
        opinions_changed=[(0, 3, 0.75), (1, 5, 0.25)],
    )
    assert not report.empty
    assert report.graph_version == 1
    assert problem.graph_version == 1
    assert problem.opinion_version == 1
    assert report.touched_by_candidate[0].tolist() == [int(dst[0])]
    assert 1 not in report.touched_by_candidate  # per-candidate graphs
    assert set(report.opinions_by_candidate) == {0, 1}
    assert float(problem.state.initial_opinions[0, 3]) == 0.75

    fresh = FJVoteProblem(
        problem.state, problem.target, problem.horizon, problem.score
    )
    np.testing.assert_array_equal(
        problem.others_by_user(), fresh.others_by_user()
    )
    np.testing.assert_array_equal(
        problem.target_trajectory(), fresh.target_trajectory()
    )

    # An empty delta is a no-op report and bumps nothing.
    empty = problem.apply_delta()
    assert empty.empty
    assert problem.graph_version == 1


#: One malformed row per case, each beside a valid edge row (and, in the
#: opinion-node cases, a valid opinion row), so a partial application
#: would show.
_VALID_EDGE = (1, 2, 0.5)
_VALID_OPINION = (0, 4, 0.3)
BAD_DELTAS = {
    "nan-weight": dict(edges_added=[_VALID_EDGE, (0, 1, float("nan"))]),
    "inf-weight": dict(edges_added=[_VALID_EDGE, (0, 1, float("inf"))]),
    "neg-inf-weight": dict(edges_added=[_VALID_EDGE, (0, 1, float("-inf"))]),
    "float-added-source": dict(edges_added=[_VALID_EDGE, (1.5, 3, 0.4)]),
    "bool-added-target": dict(edges_added=[_VALID_EDGE, (0, True, 0.4)]),
    # ``float()`` reads ``True`` and ``"0.5"`` as numbers and raises
    # TypeError on ``None`` or a list.
    "none-weight": dict(edges_added=[_VALID_EDGE, (0, 1, None)]),
    "list-weight": dict(edges_added=[_VALID_EDGE, (0, 1, [0.5])]),
    "bool-weight": dict(edges_added=[_VALID_EDGE, (0, 1, True)]),
    "str-weight": dict(edges_added=[_VALID_EDGE, (0, 1, "0.5")]),
    "none-opinion": dict(
        edges_added=[_VALID_EDGE], opinions_changed=[_VALID_OPINION, (0, 5, None)]
    ),
    "bool-opinion": dict(
        edges_added=[_VALID_EDGE], opinions_changed=[_VALID_OPINION, (0, 5, True)]
    ),
    "str-opinion": dict(
        edges_added=[_VALID_EDGE], opinions_changed=[_VALID_OPINION, (0, 5, "0.5")]
    ),
    # Two finite weights whose column sum overflows would renormalize
    # column 3 to all zeros.
    "overflowing-column": dict(
        edges_added=[_VALID_EDGE, (1, 3, 1e308), (4, 3, 1e308)]
    ),
    # ``edge`` is an existing edge out of node 1, so ``int()`` would find
    # and remove it.
    "float-removed-source": lambda edge: dict(
        edges_added=[_VALID_EDGE], edges_removed=[(edge[0] + 0.5, edge[1])]
    ),
    "bool-removed-source": lambda edge: dict(
        edges_added=[_VALID_EDGE], edges_removed=[(True, edge[1])]
    ),
    "float-opinion-node": dict(
        edges_added=[_VALID_EDGE], opinions_changed=[_VALID_OPINION, (0, 1.5, 0.9)]
    ),
    "bool-opinion-node": dict(
        edges_added=[_VALID_EDGE], opinions_changed=[_VALID_OPINION, (0, True, 0.9)]
    ),
    "float-opinion-candidate": dict(
        edges_added=[_VALID_EDGE], opinions_changed=[(1.0, 4, 0.9)]
    ),
    "bool-opinion-candidate": dict(
        edges_added=[_VALID_EDGE], opinions_changed=[(True, 4, 0.9)]
    ),
    "bool-candidate": dict(edges_added=[_VALID_EDGE], candidate=True),
}


@pytest.mark.parametrize("case", sorted(BAD_DELTAS))
def test_malformed_delta_is_rejected_before_any_mutation(case):
    """A weight or opinion value that is not a finite real, a column whose
    weights overflow, or a non-integer id raises ValueError and leaves the
    graph bytes, the opinions and both versions untouched — ``int()``
    would read ``1.5`` and ``True`` as node 1, and a NaN or infinite weight
    would renormalize its column to NaN."""
    problem = make_problem(19)
    graph = problem.state.graph(problem.target)
    before = {
        (kind, attr): getattr(getattr(graph, kind), attr).copy()
        for kind in ("csr", "csc")
        for attr in ("data", "indices", "indptr")
    }
    opinions = problem.state.initial_opinions.copy()
    versions = (problem.graph_version, problem.opinion_version, graph.version)
    delta = BAD_DELTAS[case]
    if callable(delta):
        src, dst, _ = graph.edges()
        edge = next((1, int(t)) for s, t in zip(src, dst) if s == 1 and t != 1)
        delta = delta(edge)
    with pytest.raises(ValueError):
        problem.apply_delta(**delta)
    for (kind, attr), array in before.items():
        np.testing.assert_array_equal(getattr(getattr(graph, kind), attr), array)
    np.testing.assert_array_equal(problem.state.initial_opinions, opinions)
    assert (
        problem.graph_version, problem.opinion_version, graph.version
    ) == versions
    # NumPy integers stay valid ids.
    report = problem.apply_delta(
        edges_added=[(np.int64(1), np.int32(2), 0.5)],
        opinions_changed=[(np.int64(0), np.int64(4), 0.3)],
    )
    assert report.graph_version == versions[0] + 1


# ----------------------------------------------------------------------
# Sessions: lazy bitwise replay
# ----------------------------------------------------------------------
def fresh_session(problem, seeds):
    """A session on a fresh problem over ``problem``'s current state that
    commits ``seeds``: what a warm session must equal bitwise."""
    fresh = FJVoteProblem(
        problem.state, problem.target, problem.horizon, problem.score
    )
    session = BatchedDMEngine(fresh).open_session()
    for seed in seeds:
        session.commit(seed)
    return session


def small_delta(problem):
    """One reweighted target edge and one target opinion change."""
    src, dst, weight = problem.state.graph(0).edges()
    return dict(
        edges_added=[(int(src[0]), int(dst[0]), float(weight[0]) * 2.0)],
        opinions_changed=[(0, 2, 0.9)],
    )


def large_delta(problem):
    """Reweighted in-edges of ten target columns."""
    graph = problem.state.graph(0)
    _, dst, _ = graph.edges()
    columns = sorted({int(d) for d in dst})[:10]
    assert len(columns) == 10
    return dict(edges_added=[reweight_in_edge(graph, c) for c in columns])


def test_session_replayed_bitwise_after_small_delta():
    for score in (PluralityScore(), CumulativeScore()):
        problem = make_problem(13, score=score)
        engine = BatchedDMEngine(problem)
        session = engine.open_session()
        gains = session.marginal_gains(np.arange(problem.n))
        session.commit(int(np.argmax(gains)))

        engine.apply_delta(problem.apply_delta(**small_delta(problem)))
        reference = fresh_session(problem, session.seeds)
        np.testing.assert_array_equal(
            session.marginal_gains(np.arange(problem.n)),
            reference.marginal_gains(np.arange(problem.n)),
        )
        np.testing.assert_array_equal(session._traj, reference._traj)


def test_session_rebuilt_bitwise_after_large_delta():
    problem = make_problem(17)
    engine = BatchedDMEngine(problem)
    session = engine.open_session()
    session.commit(1)
    session.commit(7)

    engine.apply_delta(problem.apply_delta(**large_delta(problem)))
    reference = fresh_session(problem, (1, 7))
    np.testing.assert_array_equal(
        session.marginal_gains(np.arange(problem.n)),
        reference.marginal_gains(np.arange(problem.n)),
    )


def test_tcp_session_replayed_bitwise_after_small_and_large_delta(loopback_hosts):
    """A warm session on two loopback ``dm-mp:tcp`` hosts gives gains
    bitwise equal to a fresh single-process session after each delta."""
    problem = make_problem(17, score=CumulativeScore())
    engine = HostPool(problem, hosts=loopback_hosts[:2], min_fanout=1)
    try:
        engine.ping()  # live pool: the deltas must be broadcast
        session = engine.open_session()
        session.commit(1)
        session.commit(7)
        for delta in (small_delta(problem), large_delta(problem)):
            engine.apply_delta(problem.apply_delta(**delta))
            reference = fresh_session(problem, (1, 7))
            np.testing.assert_array_equal(
                session.marginal_gains(np.arange(problem.n)),
                reference.marginal_gains(np.arange(problem.n)),
            )
    finally:
        engine.close()


def dense_trajectory(state, q, seeds, horizon):
    """``(horizon+1, n)`` opinions about ``q`` with ``seeds`` pinned, from a
    dense numpy form of the FJ recurrence ``b(s+1) = (b(s) W)(1-d) + b⁰d``
    (seeded rows have ``d = 1`` and ``b⁰ = 1``): no pre-scaled operator,
    no sparse kernel."""
    src, dst, weight = state.graph(q).edges()
    w = np.zeros((state.n, state.n))
    w[src, dst] = weight
    b0 = np.array(state.initial_opinions[q], dtype=np.float64)
    d = np.array(state.stubbornness[q], dtype=np.float64)
    b0[list(seeds)] = 1.0
    d[list(seeds)] = 1.0
    rows = [b0]
    for _ in range(horizon):
        rows.append((rows[-1] @ w) * (1.0 - d) + b0 * d)
    return np.stack(rows)


class WarmSessionMachine(RuleBasedStateMachine):
    """A warm ``dm-batched`` session under interleaved commits and deltas.

    Rules commit the best candidate, reweight one in-edge of a target or
    competitor graph, and change one initial opinion (n = 24, r = 3, one
    graph per candidate).  After every step the warm session's committed
    trajectory and absolute ``extension_values`` must be bitwise those of
    a session opened on a fresh ``FJVoteProblem`` over the same state that
    commits the same seeds, and both, with the session's value, must
    agree with :func:`dense_trajectory` and the per-matrix
    ``score.evaluate`` to within 1e-12.

    Scoped to ``dm-batched``: the same machine over ``dm-mp:tcp`` loopback
    hosts and ``rw-store`` is left for later.
    """

    @initialize(seed=st.integers(0, 2**16), cumulative=st.booleans())
    def build(self, seed, cumulative):
        score = CumulativeScore() if cumulative else PluralityScore()
        self.problem = make_problem(seed, score=score)
        self.engine = BatchedDMEngine(self.problem)
        self.session = self.engine.open_session()

    def _apply(self, **delta):
        self.engine.apply_delta(self.problem.apply_delta(**delta))

    @precondition(lambda self: len(self.session.seeds) < 5)
    @rule()
    def commit_best(self):
        candidates = self._candidates()
        gains = self.session.marginal_gains(candidates)
        self.session.commit(int(candidates[np.argmax(gains)]))

    @rule(
        candidate=st.integers(0, 2),
        column=st.integers(0, 23),
        factor=st.floats(0.25, 4.0),
    )
    def reweight_edge(self, candidate, column, factor):
        sources, weights = self.problem.state.graph(candidate).in_neighbors(column)
        edge = (int(sources[0]), column, float(weights[0]) * factor)
        self._apply(edges_added=[edge], candidate=candidate)

    @rule(
        candidate=st.integers(0, 2),
        node=st.integers(0, 23),
        value=st.floats(0.0, 1.0),
    )
    def change_opinion(self, candidate, node, value):
        self._apply(opinions_changed=[(candidate, node, value)])

    def _candidates(self):
        return np.setdiff1d(np.arange(self.problem.n), self.session.seeds)

    @invariant()
    def matches_fresh_session_and_dense_oracle(self):
        seeds = self.session.seeds
        committed = np.asarray(seeds, dtype=np.int64)
        candidates = self._candidates()
        reference = fresh_session(self.problem, seeds)
        self.session.value  # runs a pending lazy replay
        np.testing.assert_array_equal(self.session._traj, reference._traj)
        values = self.engine.extension_values(
            self.session._traj, committed, candidates
        )
        np.testing.assert_array_equal(
            values,
            reference.engine.extension_values(
                reference._traj, committed, candidates
            ),
        )

        problem = self.problem
        state, target, horizon = problem.state, problem.target, problem.horizon
        np.testing.assert_allclose(
            self.session._traj,
            dense_trajectory(state, target, seeds, horizon),
            rtol=0,
            atol=1e-12,
        )
        horizon_rows = np.stack(
            [dense_trajectory(state, q, (), horizon)[-1] for q in range(state.r)]
        )
        horizon_rows[target] = dense_trajectory(state, target, seeds, horizon)[-1]
        assert abs(
            self.session.value - problem.score.evaluate(horizon_rows, target)
        ) <= 1e-12
        dense_values = []
        for c in candidates:
            horizon_rows[target] = dense_trajectory(
                state, target, seeds + (int(c),), horizon
            )[-1]
            dense_values.append(problem.score.evaluate(horizon_rows, target))
        np.testing.assert_allclose(values, dense_values, rtol=0, atol=1e-12)


TestWarmSessionMachine = WarmSessionMachine.TestCase
TestWarmSessionMachine.settings = settings(
    max_examples=25, stateful_step_count=8, deadline=None
)


# ----------------------------------------------------------------------
# Walk store
# ----------------------------------------------------------------------
def test_store_delta_patches_walks_in_place_and_is_idempotent():
    problem = make_problem(19, n=30)
    store = WalkStore(problem.state, problem.horizon, seed=2)
    store.per_node_view(0, 8)  # generate the pool pre-delta
    generated = store.stats.blocks_generated
    assert generated > 0

    hot = census_hot_nodes(store, 0, KIND_PER_NODE, problem.n)
    assert hot, "census found no visited columns"
    report = problem.apply_delta(
        edges_added=[
            reweight_in_edge(problem.state.graph(0), node) for node in hot
        ]
    )
    store.apply_delta(report)
    assert store.stats.blocks_generated == generated  # zero whole blocks
    assert store.stats.blocks_invalidated >= 1
    assert store.stats.walks_patched >= 1

    # A patched pool is byte-identical to a cold store generated under
    # the post-delta graph.
    cold = WalkStore(problem.state, problem.horizon, seed=2)
    patched_view = store.per_node_view(0, 8)
    cold_view = cold.per_node_view(0, 8)
    np.testing.assert_array_equal(patched_view.walks, cold_view.walks)
    np.testing.assert_array_equal(patched_view.lengths, cold_view.lengths)
    np.testing.assert_array_equal(patched_view.values, cold_view.values)

    # Re-forwarding the same report is a no-op (engines sharing the
    # store may each forward it).
    invalidated = store.stats.blocks_invalidated
    store.apply_delta(report)
    assert store.stats.blocks_invalidated == invalidated


def test_store_opinion_only_delta_keeps_blocks_byte_intact():
    problem = make_problem(23, n=20)
    store = WalkStore(problem.state, problem.horizon, seed=6)
    before = store.per_node_view(0, 6)
    walks_before = np.array(before.walks)
    graph_version = problem.state.graph(0).version

    report = problem.apply_delta(opinions_changed=[(0, 4, 0.95)])
    store.apply_delta(report)
    assert problem.state.graph(0).version == graph_version
    assert store.stats.blocks_invalidated == 0
    assert store.stats.walks_patched == 0

    after = store.per_node_view(0, 6)
    np.testing.assert_array_equal(after.walks, walks_before)
    # Masters were dropped: served values embed the post-delta B0.
    cold = WalkStore(problem.state, problem.horizon, seed=6)
    np.testing.assert_array_equal(
        after.values, cold.per_node_view(0, 6).values
    )


def test_mmap_warm_reopen_after_delta(tmp_path):
    """A persisted store patched by a delta re-opens warm: zero blocks
    regenerated, byte-identical walks; an unforwarded delta is refused."""
    problem = make_problem(29, n=30)
    store = WalkStore(
        problem.state, problem.horizon, seed=3, store_dir=tmp_path
    )
    store.per_node_view(0, 8)
    hot = census_hot_nodes(store, 0, KIND_PER_NODE, problem.n)
    report = problem.apply_delta(
        edges_added=[
            reweight_in_edge(problem.state.graph(0), node) for node in hot
        ]
    )
    written_before = store.stats.blocks_written
    store.apply_delta(report)
    assert store.stats.blocks_invalidated >= 1
    # Exactly the invalidated blocks were rewritten; untouched blocks
    # keep their bytes on disk and are merely re-mapped on access.
    assert (
        store.stats.blocks_written - written_before
        == store.stats.blocks_invalidated
    )
    patched = store.per_node_view(0, 8)

    # Warm re-open over the post-delta state: loads, regenerates nothing.
    warm = WalkStore(
        problem.state, problem.horizon, seed=3, store_dir=tmp_path
    )
    view = warm.per_node_view(0, 8)
    assert warm.stats.blocks_generated == 0
    assert warm.stats.blocks_loaded > 0
    np.testing.assert_array_equal(view.walks, patched.walks)
    np.testing.assert_array_equal(view.lengths, patched.lengths)

    # A process whose graphs never saw the delta must be refused loudly.
    stale = random_instance(n=30, r=3, seed=29, shared_graph=False)
    with pytest.raises(ValueError, match="graph versions"):
        WalkStore(stale, problem.horizon, seed=3, store_dir=tmp_path)


def test_store_delta_writes_the_manifest_once(tmp_path, monkeypatch):
    """A delta that patches several persisted blocks is one write batch:
    the patched parts are staged, the ledger (new crc32s and graph
    versions) is written once, then the parts are renamed into place."""
    problem = make_problem(29, n=30)
    store = WalkStore(
        problem.state, problem.horizon, seed=3, store_dir=tmp_path
    )
    store.per_node_view(0, 8)
    hot = census_hot_nodes(store, 0, KIND_PER_NODE, problem.n)
    report = problem.apply_delta(
        edges_added=[
            reweight_in_edge(problem.state.graph(0), node) for node in hot
        ]
    )
    writes, manifest_renames, block_renames = [], [], []
    write_manifest, replace = WalkStore._write_manifest, os.replace

    def spy_write(self):
        writes.append(len(block_renames))
        write_manifest(self)

    def spy_replace(src, dst):
        name = os.path.basename(dst)
        (manifest_renames if name == "manifest.json" else block_renames).append(
            name
        )
        replace(src, dst)

    monkeypatch.setattr(WalkStore, "_write_manifest", spy_write)
    monkeypatch.setattr(os, "replace", spy_replace)
    store.apply_delta(report)
    assert store.stats.blocks_invalidated >= 2
    assert writes == [0]  # once, before any block rename
    assert len(manifest_renames) == 1
    assert len(block_renames) == 2 * store.stats.blocks_invalidated
    ledger = json.loads((tmp_path / "manifest.json").read_text())
    for name in block_renames:
        stem, part, _ = name.split(".")
        crc = zlib.crc32((tmp_path / name).read_bytes())
        assert ledger["checksums"][stem][part] == crc


def test_block_changed_after_load_cannot_reach_the_patch(tmp_path):
    """A warm store holds only the bytes its crc32 check verified: a
    block file overwritten in place after the load (same length, header
    intact, garbage node ids) changes neither the resident block nor the
    input of the delta patch, so the patched pool still equals a
    from-scratch store under the post-delta graph."""
    problem = make_problem(29, n=30)
    cold = WalkStore(
        problem.state, problem.horizon, seed=3, store_dir=tmp_path
    )
    cold.per_node_view(0, 8)
    warm = WalkStore(
        problem.state, problem.horizon, seed=3, store_dir=tmp_path
    )
    warm.per_node_view(0, 8)
    assert warm.stats.blocks_loaded == 8  # every block resident, from disk
    hot = census_hot_nodes(warm, 0, KIND_PER_NODE, problem.n)
    report = problem.apply_delta(
        edges_added=[
            reweight_in_edge(problem.state.graph(0), node) for node in hot
        ]
    )
    victim = warm._block_path(0, KIND_PER_NODE, 0, "walks")
    garbage = np.full_like(np.load(victim), hot[0]).tobytes()
    size = victim.stat().st_size
    with open(victim, "r+b") as handle:  # in place: same inode, same size
        handle.seek(size - len(garbage))
        handle.write(garbage)
    warm.apply_delta(report)
    # The patch ran on the overwritten block and rewrote its file.
    stem = warm._block_stem(0, KIND_PER_NODE, 0)
    assert zlib.crc32(victim.read_bytes()) == warm._checksums[stem]["walks"]

    rebuilt = WalkStore(problem.state, problem.horizon, seed=3)
    expected = rebuilt.per_node_view(0, 8)
    patched = warm.per_node_view(0, 8)
    np.testing.assert_array_equal(patched.walks, expected.walks)
    np.testing.assert_array_equal(patched.lengths, expected.lengths)
    reopened = WalkStore(
        problem.state, problem.horizon, seed=3, store_dir=tmp_path
    ).per_node_view(0, 8)
    np.testing.assert_array_equal(reopened.walks, expected.walks)


def test_lru_eviction_order_survives_delta_patch(tmp_path):
    """Eviction is strictly least-recently-touched, and apply_delta's
    block re-writes count as touches without breaching the cap."""
    problem = make_problem(31, n=16)
    store = WalkStore(
        problem.state,
        problem.horizon,
        seed=8,
        block_walks=8,
        store_dir=tmp_path,
        resident_blocks=2,
    )
    store.uniform_view(0, 48)  # 6 blocks through a 2-slot LRU
    pool = store.pool(0, "uniform")
    total = len(pool.blocks)
    assert total >= 4

    # Touch blocks 0 then 1: residency must be exactly [0, 1] in order.
    pool.block(0)
    pool.block(1)
    assert [key[2] for key in store._resident] == [0, 1]
    # Re-touching 0 moves it to the back; touching 2 then evicts 1.
    pool.block(0)
    pool.block(2)
    assert [key[2] for key in store._resident] == [0, 2]
    assert pool.blocks[1] is None  # evicted back to disk
    assert pool.blocks[0] is not None and pool.blocks[2] is not None

    hot = census_hot_nodes(store, 0, "uniform", problem.n)
    report = problem.apply_delta(
        edges_added=[
            reweight_in_edge(problem.state.graph(0), node) for node in hot
        ]
    )
    store.apply_delta(report)
    # Patching walked every block; the LRU stayed bounded and holds the
    # most recently rewritten blocks in touch order.
    assert len(store._resident) <= 2
    assert sum(block is not None for block in pool.blocks) <= 2
    resident = [key[2] for key in store._resident if key[:2] == (0, "uniform")]
    assert resident == sorted(resident)  # blocks patched in index order


# ----------------------------------------------------------------------
# dm-mp tcp delta broadcast
# ----------------------------------------------------------------------
def test_tcp_delta_broadcast_matches_reference():
    """Four deltas (data-only, structural, competitor removal, opinion
    flip) broadcast to two live hosts keep every fanned-out answer equal
    to a single-process engine on the post-delta problem; a host lost
    during a later broadcast rejoins with the patched problem, and
    answers stay equal."""
    import time

    problem = make_problem(9, n=40, horizon=4, score=CumulativeScore())
    sets = [[0, 5], [7], [], [11, 3, 2]]
    graph0 = problem.state.graph(0)
    src, dst, weight = graph0.edges()
    dense = graph0.csr.toarray()
    non_edge = next(
        (i, j)
        for i in range(40)
        for j in range(40)
        if i != j and dense[i, j] == 0
    )
    graph1 = problem.state.graph(1)
    src1, dst1, _ = graph1.edges()

    def apply_sequence(target_problem, engine=None):
        """Data-only, structural add, competitor removal, opinion flip."""
        deltas = (
            dict(
                edges_added=[
                    (int(src[0]), int(dst[0]), float(weight[0]) * 3.0)
                ]
            ),
            dict(edges_added=[(non_edge[0], non_edge[1], 0.7)]),
            dict(
                edges_removed=[(int(src1[4]), int(dst1[4]))], candidate=1
            ),
            dict(opinions_changed=[(1, 2, 0.9), (0, 4, 0.05)]),
        )
        for delta in deltas:
            report = target_problem.apply_delta(**delta)
            if engine is not None:
                engine.apply_delta(report)

    reference_problem = make_problem(9, n=40, horizon=4, score=CumulativeScore())
    apply_sequence(reference_problem)
    reference = BatchedDMEngine(reference_problem)

    # Host A serves the original connection and the rejoin dial.
    started = [start_worker(connections=2), start_worker(connections=1)]
    engine = HostPool(problem, hosts=[a for a, _ in started], min_fanout=1)
    try:
        engine.ping()  # live pool: the deltas must be broadcast
        engine.evaluate(sets)  # warm worker caches pre-delta
        session = engine.open_session()
        gains = session.marginal_gains(list(range(12)))
        committed = int(np.argmax(gains))
        session.commit(committed)

        apply_sequence(problem, engine)
        np.testing.assert_array_equal(
            engine.evaluate(sets), reference.evaluate(sets)
        )
        reference_session = reference.open_session()
        reference_session.commit(committed)
        np.testing.assert_array_equal(
            session.marginal_gains(list(range(12))),
            reference_session.marginal_gains(list(range(12))),
        )

        # A second round against the already-patched pool, with host A
        # lost as the broadcast goes out: only host B folds it in.
        engine._handles[0].conn.close()
        report = problem.apply_delta(edges_added=[(2, 9, 0.4)])
        engine.apply_delta(report)
        assert engine.stats.hosts_lost == 1
        reference.apply_delta(
            reference_problem.apply_delta(edges_added=[(2, 9, 0.4)])
        )
        np.testing.assert_array_equal(
            engine.evaluate(sets), reference.evaluate(sets)
        )
        # Host A rejoins past the first backoff delay: the handshake ships
        # the patched problem, the session's next fan-out carries its seed
        # sequence, and both hosts answer again.
        time.sleep(0.3)
        np.testing.assert_array_equal(
            engine.evaluate(sets), reference.evaluate(sets)
        )
        assert engine.stats.hosts_rejoined == 1
        reference_session = reference.open_session()
        reference_session.commit(committed)
        np.testing.assert_array_equal(
            session.marginal_gains(list(range(12))),
            reference_session.marginal_gains(list(range(12))),
        )
        assert all(w.dense_column_steps > 0 for w in engine.worker_stats)
    finally:
        engine.close()
    for _, thread in started:
        thread.join(10)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# CLI journal replay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("command", ["select", "winmin"])
def test_cli_refused_store_is_a_one_line_exit(capsys, tmp_path, command):
    """A ``--store-dir`` the store refuses (here: an old on-disk format)
    stops the command with the store's one-line error, not a traceback."""
    store_dir = tmp_path / "pools"
    common = [
        "--dataset", "yelp",
        "--users", "60",
        "--horizon", "3",
        "--method", "rw",
        "--score", "cumulative",
        "--seed", "1",
        "--store-dir", str(store_dir),
    ]
    assert cli_main(["select", *common, "-k", "1"]) == 0
    capsys.readouterr()
    (manifest_path,) = store_dir.rglob("manifest.json")
    manifest = json.loads(manifest_path.read_text())
    manifest["format"] = 2
    manifest_path.write_text(json.dumps(manifest))
    limit = ["-k", "1"] if command == "select" else ["--kmax", "2"]
    with pytest.raises(SystemExit, match="on-disk format 2"):
        cli_main([command, *common, *limit])


def test_cli_apply_delta_journal_lifecycle(capsys, tmp_path):
    store_dir = tmp_path / "pools"
    base = [
        "select",
        "--dataset", "yelp",
        "--users", "100",
        "--horizon", "3",
        "--method", "rw",
        "--score", "cumulative",
        "-k", "2",
        "--seed", "1",
        "--store-dir", str(store_dir),
    ]
    assert cli_main(base) == 0
    cold = capsys.readouterr().out
    assert "store: blocks generated=0 " not in cold

    # Census the *persisted* walks to craft churn they must cross.
    dataset = yelp_like(n=100, rng=1, horizon=3)
    census_store = WalkStore(dataset.state, 3, seed=1, store_dir=store_dir)
    hot = census_hot_nodes(
        census_store, dataset.target, KIND_PER_NODE, 100
    )
    assert hot
    graph = dataset.state.graph(dataset.target)
    journal = tmp_path / "delta.json"
    journal.write_text(
        json.dumps(
            [{"edges_added": [
                list(reweight_in_edge(graph, node)) for node in hot
            ]}]
        )
    )

    delta_args = base + ["--apply-delta", str(journal)]
    assert cli_main(delta_args) == 0
    patched = capsys.readouterr().out
    assert "delta: steps=1 " in patched
    assert "store: blocks generated=0 " in patched
    invalidated = int(patched.split("invalidated=")[1].split()[0])
    assert invalidated >= 1

    # Replaying the same journal is idempotent: nothing re-patched.
    assert cli_main(delta_args) == 0
    replay = capsys.readouterr().out
    assert "store: blocks generated=0 " in replay
    assert "invalidated=0 " in replay
    # Identical post-delta pools serve identical selections.
    patched_seeds = [
        line for line in patched.splitlines() if line.startswith("seeds:")
    ]
    replay_seeds = [
        line for line in replay.splitlines() if line.startswith("seeds:")
    ]
    assert patched_seeds == replay_seeds

    # Without its journal the patched store must be refused, not served:
    # one line naming the mismatch, no traceback.
    with pytest.raises(SystemExit, match="graph versions"):
        cli_main(base)


@pytest.mark.parametrize(
    "row",
    [[0, 1, float("nan")], [0, 1, float("inf")], [0.5, 1, 0.3], [True, 1, 0.3]],
)
def test_cli_bad_journal_row_is_a_one_line_exit(tmp_path, row):
    """A journal edge row with a non-finite weight or a non-integer id
    exits with one line naming the step, not a traceback."""
    journal = tmp_path / "delta.json"
    # ``json`` writes and reads the non-finite weights as NaN / Infinity.
    journal.write_text(json.dumps([{}, {"edges_added": [row]}]))
    argv = [
        "select", "--dataset", "yelp", "--users", "40", "--horizon", "3",
        "--method", "dm", "-k", "1", "--seed", "1",
        "--apply-delta", str(journal),
    ]  # fmt: skip
    with pytest.raises(SystemExit, match="--apply-delta step 2: "):
        cli_main(argv)
