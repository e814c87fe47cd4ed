"""Tests for incremental re-solve under graph/opinion churn.

``FJVoteProblem.apply_delta`` performs in-place CSR/CSC surgery and emits
a ``DeltaReport`` that every warm cache layer accepts instead of being
rebuilt.  The contracts pinned here:

* **Graph surgery** — touched columns are renormalized exactly; the
  worker-side ``adopt_columns`` splice reproduces the parent's surgery
  bit for bit; emptied columns get the standard self-loop.
* **Problem caches** — after a delta the warm problem's caches equal a
  cold problem built over the same post-delta state, byte for byte.
* **Sessions** — small deltas patch committed trajectories via the
  sparse correction (``EngineStats.trajectories_patched``); large deltas
  fall back to a bitwise rebuild.
* **Walk store** — exactly the walks that stepped out of a touched
  column are regenerated, in place inside their blocks; a patched pool
  is byte-identical to one generated cold under the post-delta graph,
  zero whole blocks are regenerated, and the forward is idempotent.
  Opinion-only deltas leave every block byte-intact.  Persisted stores
  pin graph versions in the manifest and refuse to open across an
  unforwarded delta.
* **dm-mp tcp hosts** — the delta broadcast (touched columns and
  opinion values) keeps live hosts byte-identical to a single-process
  engine over the same post-delta problem, and a host that misses a
  broadcast catches up through the rejoin handshake and journal replay.
* **CLI** — ``--apply-delta`` replays a journal against ``--store-dir``
  so cold runs, delta runs and idempotent re-runs share one command.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

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


def test_adopt_columns_matches_parent_surgery():
    """The pipe-worker splice must reproduce the parent's surgery bitwise."""
    parent = random_instance(n=14, r=2, seed=7, shared_graph=False).graph(0)
    worker = random_instance(n=14, r=2, seed=7, shared_graph=False).graph(0)
    src, dst, weight = parent.edges()
    dense = parent.csr.toarray()
    non_edge = next(
        (i, j)
        for i in range(14)
        for j in range(14)
        if i != j and dense[i, j] == 0
    )
    touched, _ = parent.apply_edge_delta(
        added=[
            (int(src[0]), int(dst[0]), float(weight[0]) * 2.0),
            (non_edge[0], non_edge[1], 0.3),
        ],
        removed=[(int(src[5]), int(dst[5]))],
    )
    columns = {
        int(t): tuple(np.array(a) for a in parent.in_neighbors(int(t)))
        for t in touched
    }
    worker.adopt_columns(columns, parent.version)
    assert worker.version == parent.version
    for attr in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(
            getattr(worker.csr, attr), getattr(parent.csr, attr)
        )
        np.testing.assert_array_equal(
            getattr(worker.csc, attr), getattr(parent.csc, attr)
        )


# ----------------------------------------------------------------------
# Problem caches
# ----------------------------------------------------------------------
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
    """A non-finite weight or a non-integer id raises ValueError and leaves
    the graph bytes, the opinions and both versions untouched — ``int()``
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
# Sessions: patch vs rebuild
# ----------------------------------------------------------------------
def test_session_patched_after_small_delta():
    problem = make_problem(13)
    engine = BatchedDMEngine(problem)
    session = engine.open_session()
    gains = session.marginal_gains(np.arange(problem.n))
    session.commit(int(np.argmax(gains)))
    committed = list(session.seeds)

    graph = problem.state.graph(0)
    src, dst, weight = graph.edges()
    patched_before = engine.stats.trajectories_patched
    report = problem.apply_delta(
        edges_added=[(int(src[0]), int(dst[0]), float(weight[0]) * 2.0)],
        opinions_changed=[(0, 2, 0.9)],
    )
    engine.apply_delta(report)
    assert engine.stats.trajectories_patched == patched_before + 1

    fresh = FJVoteProblem(
        problem.state, problem.target, problem.horizon, problem.score
    )
    reference = BatchedDMEngine(fresh).open_session()
    for seed in committed:
        reference.commit(seed)
    np.testing.assert_allclose(
        session.marginal_gains(np.arange(problem.n)),
        reference.marginal_gains(np.arange(problem.n)),
        atol=1e-9,
        rtol=0,
    )


def test_session_rebuilt_bitwise_after_large_delta():
    problem = make_problem(17)
    engine = BatchedDMEngine(problem)
    session = engine.open_session()
    session.commit(1)
    session.commit(7)

    # Touch more than max(8, n // 8) columns: the patch correction would
    # be denser than a rebuild, so the session must replay its commits.
    graph = problem.state.graph(0)
    _, dst, _ = graph.edges()
    columns = sorted({int(d) for d in dst})[:10]
    assert len(columns) == 10
    report = problem.apply_delta(
        edges_added=[reweight_in_edge(graph, c) for c in columns]
    )
    patched_before = engine.stats.trajectories_patched
    engine.apply_delta(report)
    assert engine.stats.trajectories_patched == patched_before

    fresh = FJVoteProblem(
        problem.state, problem.target, problem.horizon, problem.score
    )
    reference = BatchedDMEngine(fresh).open_session()
    reference.commit(1)
    reference.commit(7)
    np.testing.assert_array_equal(
        session.marginal_gains(np.arange(problem.n)),
        reference.marginal_gains(np.arange(problem.n)),
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
    during a later broadcast rejoins with the patched problem and the
    journal replay, and answers stay equal."""
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
        # the patched problem, the journal replays the session and the
        # (now idempotent) deltas, and both hosts answer again.
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
