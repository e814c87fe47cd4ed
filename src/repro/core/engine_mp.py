"""Multiprocess fan-out over the batched DM engine (``--engine dm-mp``).

:class:`MultiprocessDMEngine` shards the candidate columns that
:meth:`~repro.core.engine.BatchedDMEngine._evolve_blocks` would evolve in
one process across a persistent pool of worker processes.  Per-candidate
delta evolutions are independent (each column of the ``(n, C)`` delta
matrix depends only on its own pinned seeds), so a greedy round splits into
``workers`` contiguous candidate chunks that evolve and score concurrently;
the parent concatenates the per-chunk score vectors in chunk order, which
keeps selections byte-identical to :class:`~repro.core.engine.BatchedDMEngine`
no matter how many workers run.

Problem state is shipped once per worker, at pool start: under the
``fork`` start method the matrices are inherited copy-on-write for free,
under ``forkserver``/``spawn`` the pickled
:class:`~repro.core.problem.FJVoteProblem` (minus its session-specific
seeded-trajectory cache, see ``FJVoteProblem.__getstate__``) travels with
the ``Process`` arguments.  Each worker builds its own private
:class:`BatchedDMEngine` from it — per-round messages then carry only seed
id chunks and score vectors, never matrices.

Transports (the data plane)
---------------------------
Every message is one framed pickle, but *what* it carries, and over
which connection, is transport-dependent:

``"pipe"`` (default)
    Arrays are pickled into the message: candidate chunks out, score
    vectors back.  Zero setup cost, pays the serialization tax per round.
``"shm"`` (``dm-mp:<W>:shm``)
    A :class:`~repro.core.shm.ShmArena` maps the data plane once: the
    problem's CSR matrices and shareable caches are written to shared
    memory at pool start (workers rebuild the problem from zero-copy
    views via :meth:`~repro.core.problem.FJVoteProblem.from_shared_arrays`),
    request arrays land in per-worker slabs, workers write score vectors
    and dense ``target_opinion_rows`` blocks straight into preallocated
    reply slabs, and each session commit publishes the parent's committed
    trajectory through a single shared slab that every worker adopts by
    one memcpy instead of replaying the extension.  Messages shrink to
    ``(segment, dtype, shape, offset)`` tuples.
``"tcp"`` (``dm-mp:tcp=<host:port,...>``)
    :class:`~repro.core.engine_net.HostPool`: the pipe message bodies,
    framed over sockets to remote ``net-worker`` hosts.

All three share one supervised dispatch loop (:meth:`MultiprocessDMEngine._run`)
and one fan-out builder (:meth:`MultiprocessDMEngine._fan_out`), the only
place that chooses inline vs slab request encoding; a transport supplies
just its pool lifecycle hooks.

The serialization tax is measured, not guessed:
:attr:`~repro.core.engine.EngineStats.ipc_bytes` counts every byte the
parent actually moves through worker pipes (both directions; the engine
frames messages itself, so the counter is exact and deterministic).
``benchmarks/bench_data_plane.py`` asserts the shm transport cuts it
>= 5x per greedy round at n=2000 — in practice the reduction is orders of
magnitude, since shm messages no longer scale with ``n``.  Segment
lifecycle is guarded three ways (explicit ``close``, ``weakref.finalize``
on garbage collection, interpreter-exit finalization), so crashed rounds
cannot leak ``/dev/shm`` segments.

Selection sessions fan out too: :class:`MultiprocessDMSession` keeps the
parent-side committed trajectory (for values and win-min prefix probes)
exactly like its base class, and *broadcasts* every ``commit`` to the pool
so each worker folds the chosen seed into a worker-local committed
trajectory — by the same one-column extension the parent performs under
``pipe``, or by adopting the parent's trajectory from the commit slab
under ``shm``; bitwise the same state either way.  A worker that missed a
broadcast (e.g. the pool started mid-session) rebuilds the committed
trajectory lazily from the ``(base, seeds)`` pair every fan-out message
carries, replaying the commit sequence so the rebuilt trajectory is still
bitwise identical.

On a single-core host the fan-out cannot beat the in-process engine on
wall-clock — IPC overhead buys nothing — but the sharding itself is
measurable either way: ``benchmarks/bench_engine_mp.py`` asserts on the
deterministic per-worker :class:`~repro.core.engine.EngineStats` counters
(critical-path dense column-steps), which translate to wall-clock on
multi-core hardware where each worker owns a memory domain.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core import faults
from repro.core.engine import (
    BatchedDMEngine,
    BatchedDMSession,
    EngineStats,
    SeedSet,
)
from repro.core.problem import FJVoteProblem
from repro.utils.validation import check_index_array
from repro.utils.workers import stop_worker_pool

#: Work counters folded from worker deltas into the parent's ``stats``
#: (and per-worker into ``worker_stats``).  Probe accounting
#: (``evaluate_calls`` / ``sets_evaluated``) is *not* in this list: the
#: parent counts probes itself, exactly as the single-process engine
#: would, so the counters stay comparable across worker counts.  Workers
#: reply with these counters as a plain tuple in this order.
_EVOLUTION_COUNTERS = (
    "sparse_steps",
    "sparse_nnz",
    "dense_column_steps",
    "trajectory_steps",
    "repin_steps",
    "repin_inserted",
)

#: Worker-local committed trajectories kept per worker (FIFO eviction);
#: mirrors ``FJVoteProblem.SEEDED_TRAJECTORY_CACHE``.
_WORKER_SESSION_CACHE = 8

#: Delta broadcasts remembered for journal replay onto respawned workers.
#: Replay is idempotent (``_worker_apply_delta`` early-outs on current
#: versions), so the cap bounds memory, not correctness.
_DELTA_JOURNAL_CAP = 4

#: One identical message per worker; a lost worker's copy is dropped, not
#: re-dispatched (survivors already received theirs, and a respawned
#: worker recovers the state from the journal replay / lazy rebuild).
_BROADCAST_OPS = frozenset({"ping", "commit", "delta", "adopt"})

#: Supported message transports (the ``dm-mp:<W>:shm`` spec suffix).
TRANSPORTS = ("pipe", "shm")

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_STOP_BYTES = pickle.dumps(("stop",), _PICKLE_PROTOCOL)

#: Tag marking a message field as a shared-memory array reference
#: ``("@shm", segment, dtype, shape, offset)`` instead of inline data.
_SHM_TAG = "@shm"


def _send_message(conn, message: tuple) -> int:
    """Frame and send one message; returns its exact serialized size.

    The engine pickles messages itself (``send_bytes``) so the
    ``ipc_bytes`` accounting measures precisely what crosses the pipe.
    """
    payload = pickle.dumps(message, _PICKLE_PROTOCOL)
    conn.send_bytes(payload)
    return len(payload)


def _recv_message(conn) -> tuple[tuple, int]:
    """Receive one framed message; returns ``(message, serialized size)``."""
    payload = conn.recv_bytes()
    return pickle.loads(payload), len(payload)


def _flatten_sets(sets: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pack a list of (normalized) seed-id arrays into two flat arrays.

    Pickling many tiny ndarrays costs ~150 bytes of framing *each*; one
    ``(lengths, values)`` pair costs two headers however many sets ride
    along — and maps into a request slab as two contiguous writes.
    """
    lengths = np.array([s.size for s in sets], dtype=np.int64)
    if sets:
        values = np.concatenate(sets).astype(np.int64, copy=False)
    else:
        values = np.empty(0, dtype=np.int64)
    return lengths, values


def _split_sets(lengths: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """Inverse of :func:`_flatten_sets` (copies: slabs are reused)."""
    bounds = np.cumsum(np.asarray(lengths, dtype=np.int64))[:-1]
    return [
        np.array(chunk, dtype=np.int64)
        for chunk in np.split(np.asarray(values, dtype=np.int64), bounds)
    ]


def _resolve(value, attach):
    """Materialize a message field: shm refs become views, data passes."""
    if (
        attach is not None
        and isinstance(value, tuple)
        and value
        and value[0] == _SHM_TAG
    ):
        return attach.array(value[1:])
    return value


def _unique_graphs(state) -> list:
    """Deduplicated graphs in first-occurrence order (the gid order of
    ``FJVoteProblem.share_arrays``) — parent and workers derive identical
    gids from their own state, so delta broadcasts can address graphs by
    gid without shipping object identities."""
    seen: dict[int, None] = {}
    graphs = []
    for graph in state.graphs:
        if id(graph) not in seen:
            seen[id(graph)] = None
            graphs.append(graph)
    return graphs


def _worker_apply_delta(
    problem: FJVoteProblem,
    engine: BatchedDMEngine,
    sessions: dict,
    report,
    columns_by_gid,
    opinions,
    new_refs,
    attach,
) -> None:
    """Fold a parent delta broadcast into the worker's problem and engine.

    Shared-memory workers only re-map structurally changed matrices
    (``new_refs``) — data-only patches already landed in the mapped
    segments — and adopt versions/cache drops via ``note_external_delta``.
    Pipe workers splice the shipped post-delta columns and opinion rows
    into their private arrays (never re-running the surgery: the parent
    ships final bytes, keeping worker state bit-identical).  Idempotent
    per problem version, so a re-broadcast is a no-op.
    """
    if (
        problem.graph_version >= report.graph_version
        and problem.opinion_version >= report.opinion_version
    ):
        return
    graphs = _unique_graphs(problem.state)
    if attach is not None:
        if new_refs:
            from scipy import sparse

            for gid_key, refs in new_refs.items():
                graph = graphs[int(gid_key)]
                parts = {}
                matrix_kinds = (
                    ("csr", sparse.csr_matrix),
                    ("csc", sparse.csc_matrix),
                )
                for orient, kind in matrix_kinds:
                    parts[orient] = kind(
                        (
                            attach.array(refs[f"{orient}.data"][1:]),
                            attach.array(refs[f"{orient}.indices"][1:]),
                            attach.array(refs[f"{orient}.indptr"][1:]),
                        ),
                        shape=(problem.n, problem.n),
                        copy=False,
                    )
                graph._csr = parts["csr"]
                graph._csc = parts["csc"]
        problem.note_external_delta(report)
    else:
        if columns_by_gid:
            for gid_key, columns in columns_by_gid.items():
                graphs[int(gid_key)].adopt_columns(
                    columns, graphs[int(gid_key)].version + 1
                )
        if opinions:
            b0 = problem.state.initial_opinions
            b0.setflags(write=True)
            try:
                for q, nodes, values in opinions:
                    b0[int(q), np.asarray(nodes, dtype=np.int64)] = values
            finally:
                b0.setflags(write=False)
        # Versions/caches: same selective invalidation as the shm path
        # (graph versions were already advanced by adopt_columns).
        problem.graph_version = report.graph_version
        problem.opinion_version = report.opinion_version
        dirty = set(report.touched_by_candidate) | set(
            report.opinions_by_candidate
        )
        if problem.target in dirty:
            problem._base_target = None
            problem._base_trajectory = None
            problem._seeded_trajectories.clear()
        if dirty - {problem.target}:
            problem._competitors = None
            problem._others_by_user = None
    if report.target_touched(problem.target).size:
        engine._build_wt_scaled()
    dirty = set(report.touched_by_candidate) | set(report.opinions_by_candidate)
    if problem.target in dirty:
        for state in sessions.values():
            state["traj"] = None  # rebuilt lazily from the seed sequence


def _rebuild_session(engine: BatchedDMEngine, base: tuple, seeds: tuple) -> dict:
    """Worker-side committed state for a session, rebuilt from scratch.

    Replays the exact commit sequence a :class:`BatchedDMSession` performs
    — base trajectory, then one single-seed extension per commit — so the
    rebuilt trajectory is bitwise identical to the parent's regardless of
    whether the worker saw the individual commit broadcasts.
    """
    traj = engine.problem.target_trajectory(tuple(base))
    committed = list(base)
    for seed in list(seeds)[len(base) :]:
        traj = engine.extend_trajectory(
            traj,
            np.asarray(committed, dtype=np.int64),
            np.array([seed], dtype=np.int64),
        )
        committed.append(int(seed))
    return {"seeds": list(seeds), "traj": traj}


def _store_session(sessions: dict, sid: int, state: dict) -> None:
    """Insert session state with the FIFO eviction cap."""
    evict = [k for k in sessions if k != sid]
    while len(evict) + 1 > _WORKER_SESSION_CACHE:
        sessions.pop(evict.pop(0))
    sessions[sid] = state


def _worker_session(
    engine: BatchedDMEngine, sessions: dict, sid: int, base: tuple, seeds: tuple
) -> dict:
    """Fetch (or lazily rebuild) the worker's state for session ``sid``."""
    state = sessions.get(sid)
    if state is None or state["seeds"] != list(seeds) or state["traj"] is None:
        state = _rebuild_session(engine, base, seeds)
        _store_session(sessions, sid, state)
    return state


def _worker_main(conn, problem_payload, engine_kwargs: dict, shm_info=None) -> None:
    """Process-pool worker: build the private engine, run the shared loop.

    ``problem_payload`` is the problem itself (pipe transport) or the
    ``(skeleton, array refs)`` pair of
    :meth:`FJVoteProblem.share_arrays` (shm transport: the worker maps the
    arrays and rebuilds the problem around zero-copy views).  The command
    dispatch itself lives in :func:`_worker_loop`, shared with the TCP
    net-worker of :mod:`repro.core.engine_net` — same ops, same framed
    replies, whatever carries the bytes.
    """
    attach = None
    commit_view = None
    if shm_info is not None:
        from repro.core.shm import ShmAttachments

        attach = ShmAttachments()
        skeleton, refs = problem_payload
        arrays = {key: attach.array(ref) for key, ref in refs.items()}
        problem = FJVoteProblem.from_shared_arrays(skeleton, arrays)
        commit_view = attach.array(shm_info["commit"])
    else:
        problem = problem_payload
    engine = BatchedDMEngine(problem, **engine_kwargs)
    # The pool already spreads candidates over the cores: one thread each.
    engine._threads = 1
    try:
        _worker_loop(
            conn,
            problem,
            engine,
            attach=attach,
            commit_view=commit_view,
            watch_parent=True,
        )
    finally:
        if attach is not None:
            attach.close()


def _worker_loop(
    conn,
    problem: FJVoteProblem,
    engine: BatchedDMEngine,
    *,
    attach=None,
    commit_view=None,
    watch_parent: bool = True,
) -> None:
    """The dm-mp worker command loop, transport-agnostic.

    ``conn`` is anything with the ``mp.Connection`` byte surface
    (``recv_bytes`` / ``send_bytes`` / ``poll``): a worker-pool pipe end
    or the net-worker's framed TCP socket.  Every reply carries the delta
    of the worker engine's evolution counters (as a tuple ordered like
    ``_EVOLUTION_COUNTERS``) so the parent can account the work each
    worker actually performed; payload arrays are written into the reply
    slab the request names (shm) or pickled into the ack.

    ``watch_parent`` enables the orphan watchdog for forked pool members;
    net workers serve a remote coordinator whose death arrives as plain
    EOF instead.
    """
    sessions: dict[int, dict] = {}
    # Workers forked later inherit duplicates of earlier workers'
    # parent-side pipe fds, so a SIGKILLed parent does *not* deliver EOF
    # to every sibling — watch for orphaning (reparenting) instead, or
    # the pool (and via its held fds, the resource tracker's shm
    # cleanup) outlives a crashed server.
    parent_pid = os.getppid() if watch_parent else None
    while True:
        try:
            if watch_parent:
                orphaned = False
                while not conn.poll(1.0):
                    if os.getppid() != parent_pid:
                        orphaned = True
                        break
                if orphaned:
                    break
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, KeyboardInterrupt, OSError):
            break
        op = message[0]
        if op == "stop":
            break
        try:
            engine.stats.reset()
            result = None
            payload = None
            reply_ref = None
            if op == "ping":
                result = (os.getpid(), mp.current_process().name)
            elif op == "chunk":
                _, lengths, values, reply_ref = message
                sets = _split_sets(_resolve(lengths, attach), _resolve(values, attach))
                # ``evaluate`` (not ``_chunked_scores``) so a net worker
                # hosting its own dm-mp pool fans the chunk out again;
                # results are bitwise identical either way.
                payload = engine.evaluate(sets)
            elif op == "ext":
                _, sid, base, seeds, cand, reply_ref = message
                cand = np.asarray(_resolve(cand, attach), dtype=np.int64)
                state = _worker_session(engine, sessions, sid, base, seeds)
                payload = engine.extension_values(
                    state["traj"], np.asarray(seeds, dtype=np.int64), cand
                )
            elif op == "extrows":
                # Like "ext" but unscored: the (chunk, n) horizon rows go
                # back so the parent scores each through the canonical
                # width-1 path (batch-stable serving responses).
                _, sid, base, seeds, cand, reply_ref = message
                cand = np.asarray(_resolve(cand, attach), dtype=np.int64)
                state = _worker_session(engine, sessions, sid, base, seeds)
                payload = engine.extension_rows(
                    state["traj"], np.asarray(seeds, dtype=np.int64), cand
                )
            elif op == "rows":
                _, lengths, values, reply_ref = message
                sets = _split_sets(_resolve(lengths, attach), _resolve(values, attach))
                payload = engine.target_opinion_rows(sets)
            elif op == "delta":
                _, report, columns_by_gid, opinions, new_refs = message
                _worker_apply_delta(
                    problem,
                    engine,
                    sessions,
                    report,
                    columns_by_gid,
                    opinions,
                    new_refs,
                    attach,
                )
            elif op == "commit":
                _, sid, base, before, seed = message
                if commit_view is not None:
                    # The slab holds the parent's full committed
                    # trajectory: adopting it by copy is bitwise the
                    # parent's state and heals missed broadcasts too.
                    _store_session(
                        sessions,
                        sid,
                        {
                            "seeds": list(before) + [int(seed)],
                            "traj": commit_view.copy(),
                        },
                    )
                else:
                    state = sessions.get(sid)
                    if (
                        state is not None
                        and state["traj"] is not None
                        and state["seeds"] == list(before)
                    ):
                        state["traj"] = engine.extend_trajectory(
                            state["traj"],
                            np.asarray(before, dtype=np.int64),
                            np.array([seed], dtype=np.int64),
                        )
                        state["seeds"].append(int(seed))
                    else:
                        # Missed or out-of-order broadcast: remember the
                        # seed sequence, rebuild lazily on the next
                        # fan-out.
                        sessions[sid] = {
                            "seeds": list(before) + [int(seed)],
                            "traj": None,
                        }
            elif op == "adopt":
                # Journal replay onto a respawned worker: register the
                # session's committed seed sequence; the trajectory is
                # rebuilt lazily (``_rebuild_session`` replays the exact
                # commit sequence, so it is bitwise the parent's state).
                _, sid, base, seeds = message
                _store_session(
                    sessions, sid, {"seeds": list(seeds), "traj": None}
                )
            else:
                raise ValueError(f"unknown dm-mp worker op {op!r}")
            stats = tuple(
                int(getattr(engine.stats, name)) for name in _EVOLUTION_COUNTERS
            )
            if payload is not None and reply_ref is not None and attach is not None:
                view = attach.array(reply_ref[1:])
                view[...] = payload
                payload = None
            out = result if payload is None else payload
            conn.send_bytes(pickle.dumps(("ok", out, stats), _PICKLE_PROTOCOL))
        except Exception as exc:  # pragma: no cover - worker-side failures
            import traceback

            conn.send_bytes(
                pickle.dumps(
                    ("err", f"{exc}\n{traceback.format_exc()}", None),
                    _PICKLE_PROTOCOL,
                )
            )


class _Handle:
    """One live pool member: a local worker process or a remote host.

    ``conn`` is the parent end of its pipe or its framed socket, ``stats``
    its ``worker_stats`` entry (``slot`` indexes it), and ``label`` names
    it in errors.  ``process`` is ``None`` for a remote host, which no
    local pid can reap (:func:`~repro.utils.workers.stop_worker_pool`
    then only sends the stop and closes the socket).
    """

    __slots__ = ("conn", "stats", "slot", "label", "process")

    def __init__(
        self, conn, stats: EngineStats, slot: int, label: str, process=None
    ) -> None:
        self.conn = conn
        self.stats = stats
        self.slot = slot
        self.label = label
        self.process = process


class MultiprocessDMSession(BatchedDMSession):
    """Warm-started session whose commits are broadcast to the worker pool.

    The parent keeps the committed trajectory exactly like
    :class:`BatchedDMSession` (values, ``gain=None`` commits and win-min
    prefix probes are single-column work, cheapest done locally); each
    round's ``marginal_gains`` fans the candidate chunks out with the
    session id, and each ``commit`` tells every worker to fold the chosen
    seed into its local copy of the committed trajectory (under the shm
    transport the parent's trajectory is published through the commit
    slab, so workers adopt it by one memcpy).
    """

    def __init__(self, engine: "MultiprocessDMEngine", base: SeedSet = ()) -> None:
        super().__init__(engine, base)
        self._base = tuple(self._seeds)
        self._sid = engine._next_session_id()

    def marginal_gains(self, candidates: SeedSet) -> np.ndarray:
        self._ensure_fresh()  # a delta may have scheduled a lazy rebuild
        values = self.engine.session_extension_values(
            self._sid, self._base, tuple(self._seeds), self._traj, candidates
        )
        return values - self._value

    def coalesced_gains(self, candidates: SeedSet) -> np.ndarray:
        """Batch-stable gains over the pool: fanned rows, parent scoring.

        Workers return unscored extension rows (bitwise identical to the
        single-process engine's at every worker count); the parent scores
        each through the canonical width-1 path, so coalesced responses
        match serial ones byte for byte across transports and pool sizes.
        """
        self._ensure_fresh()
        rows = self.engine.session_extension_rows(
            self._sid, self._base, tuple(self._seeds), self._traj, candidates
        )
        values = np.array(
            [self.engine.score_target_row(row) for row in rows],
            dtype=np.float64,
        )
        return values - self._value

    def commit(self, seed: int, *, gain: float | None = None) -> float:
        before = tuple(self._seeds)
        value = super().commit(seed, gain=gain)
        self.engine.broadcast_commit(
            self._sid, self._base, before, int(seed), self._traj
        )
        return value

    def _on_delta(self, report, mode: str = "auto") -> None:
        # Workers rebuild their committed trajectories from the seed
        # sequence after a delta, so the parent must rebuild too: a
        # patched (floating-point-corrected) parent trajectory would
        # disagree bitwise with the worker-side rebuilds that fanned-out
        # rounds read from.
        super()._on_delta(report, "rebuild")


class MultiprocessDMEngine(BatchedDMEngine):
    """Exact DM evaluation sharded across a persistent process pool.

    Parameters
    ----------
    problem:
        The FJ-Vote instance (shipped to each worker once, at pool start).
    workers:
        Pool size (the ``dm-mp:<workers>`` CLI suffix); must be >= 1.
    start_method:
        ``multiprocessing`` start method: ``"fork"`` (default where
        available — matrices are inherited for free), ``"forkserver"`` or
        ``"spawn"`` (the problem is pickled to the worker instead, or
        mapped from shared memory under the shm transport).
    transport:
        ``"pipe"`` (default) pickles payload arrays into the messages;
        ``"shm"`` (the ``dm-mp:<W>:shm`` spec suffix) maps the problem,
        request/reply payloads and commit broadcasts through a
        :class:`~repro.core.shm.ShmArena` so only array descriptors cross
        the pipe — see the module docstring.  Results are bitwise
        identical either way; :attr:`EngineStats.ipc_bytes` measures the
        difference.
    min_fanout:
        Below this many seed sets per call the parent — itself a full
        batched engine holding the same state — evaluates locally: a CELF
        stale-entry refresh is one column, not worth a round-trip.
        Results are bitwise identical either way.  Default ``2 * workers``.
    kwargs:
        Forwarded to :class:`BatchedDMEngine` in the parent *and* every
        worker (``batch_rows``, ``densify_threshold``, ...).

    The pool starts lazily on the first fanned-out call and is released by
    :meth:`close` (also via ``with``, garbage collection, or interpreter
    exit — shared-memory segments are additionally guarded by
    ``weakref.finalize``, so a crashed worker or an abandoned engine never
    leaks ``/dev/shm``).  The engine keeps per-worker
    :class:`EngineStats` in ``worker_stats`` — the max dense-column-step
    share across workers is the round's critical path, the deterministic
    scaling metric of ``benchmarks/bench_engine_mp.py``.
    """

    #: Transports this class accepts, and what its pool members are
    #: called in errors (:class:`~repro.core.engine_net.HostPool`: tcp
    #: hosts).
    _TRANSPORTS: tuple[str, ...] = TRANSPORTS
    _MEMBER = "worker"

    def __init__(
        self,
        problem: FJVoteProblem,
        *,
        workers: int = 2,
        start_method: str | None = None,
        min_fanout: int | None = None,
        transport: str = "pipe",
        **kwargs: object,
    ) -> None:
        super().__init__(problem, **kwargs)
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"dm-mp needs at least one worker, got {workers}")
        if transport not in self._TRANSPORTS:
            raise ValueError(
                f"transport must be one of {self._TRANSPORTS}, got {transport!r}"
            )
        self.workers = workers
        self.transport = str(transport)
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = str(start_method)
        self.min_fanout = (
            2 * workers if min_fanout is None else max(1, int(min_fanout))
        )
        self.worker_stats = [EngineStats() for _ in range(workers)]
        #: Fan-out rounds dispatched and wall time spent inside them,
        #: cumulative across pool restarts (``pool_stats`` derives idle
        #: time from the pool's uptime).
        self.pool_rounds = 0
        self.pool_busy_s = 0.0
        self._pool_started: float | None = None
        self._engine_kwargs = dict(kwargs)
        self._handles: list[_Handle] | None = None
        self._session_counter = 0
        self._arena = None
        self._request_slabs = None
        self._reply_slabs = None
        self._commit_view: np.ndarray | None = None
        self._shared_refs: dict | None = None
        self._shm_info: dict | None = None
        #: Supervision state: worker slots detected dead (healed by
        #: respawn at the next dispatch) and the coordinator-side journal
        #: a respawned worker replays — committed seed sequences per live
        #: session plus the recent delta broadcasts.
        self._dead: set[int] = set()
        self._session_journal: dict[int, tuple[tuple, tuple]] = {}
        self._delta_journal: list[tuple] = []

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> list[_Handle]:
        if self._handles is None:
            ctx = mp.get_context(self.start_method)
            problem_payload = self.problem
            shm_info = None
            if self.transport == "shm":
                from repro.core.shm import ShmArena, ShmSlab

                arena = ShmArena()
                skeleton, arrays = self.problem.share_arrays()
                refs = {key: arena.share_array(a) for key, a in arrays.items()}
                problem_payload = (skeleton, refs)
                # Retained so a later delta broadcast can patch the mapped
                # problem arrays in place (or re-share structurally
                # changed ones) instead of re-shipping the problem.
                self._shared_refs = refs
                shape = (self.problem.horizon + 1, self.problem.n)
                segment = arena.create(8 * shape[0] * shape[1])
                self._commit_view = np.ndarray(
                    shape, dtype=np.float64, buffer=segment.buf
                )
                shm_info = {
                    "commit": (segment.name, np.dtype(np.float64).str, shape, 0)
                }
                self._arena = arena
                self._request_slabs = [ShmSlab(arena) for _ in range(self.workers)]
                self._reply_slabs = [ShmSlab(arena) for _ in range(self.workers)]
            self._shm_info = shm_info
            self._handles = [
                self._spawn_worker(ctx, problem_payload, shm_info, index)
                for index in range(self.workers)
            ]
            self._dead = set()
            self._pool_started = time.monotonic()
        return self._handles

    def _spawn_worker(self, ctx, problem_payload, shm_info, index: int) -> _Handle:
        """Start pool member ``index`` and hand back its handle."""
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, problem_payload, self._engine_kwargs, shm_info),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Handle(
            parent_conn, self.worker_stats[index], index, f"worker {index}", process
        )

    def close(self) -> None:
        """Stop the pool and unlink its shm segments (idempotent).

        Robust to workers that died mid-round: sends are guarded, joins
        escalate ``join -> terminate -> kill`` with bounded timeouts so a
        dead or wedged pipe can never hang the caller, and the arena
        teardown runs in a ``finally`` (it is additionally guarded by
        ``weakref.finalize``, so even a close that never runs cannot leak
        segments).  The engine restarts lazily if used again.
        """
        handles, self._handles = self._handles, None
        arena, self._arena = self._arena, None
        self._pool_started = None
        self._request_slabs = None
        self._reply_slabs = None
        self._commit_view = None
        self._shared_refs = None
        self._shm_info = None
        self._dead = set()
        try:
            if handles:
                stop_worker_pool(
                    handles, lambda conn: conn.send_bytes(_STOP_BYTES)
                )
        finally:
            if arena is not None:
                arena.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass

    def ping(self) -> list[tuple[int, str]]:
        """Round-trip every worker; returns ``(pid, process name)`` pairs."""
        return self._run([("ping",)] * len(self._ensure_pool()))

    def pool_stats(self) -> dict[str, object]:
        """Live pool accounting (the serving layer's ``stats`` op).

        ``rounds`` counts fan-out dispatches, ``busy_s`` the wall time
        spent inside them, ``idle_s`` the remainder of the running pool's
        uptime.  ``shm_segments`` names the arena's live segments — the
        serving crash tests poll these to prove a killed server leaks
        nothing.  Round/busy counters are cumulative across pool
        restarts; only the uptime window resets.
        """
        started = self._handles is not None
        uptime = 0.0
        if started and self._pool_started is not None:
            uptime = time.monotonic() - self._pool_started
        busy = float(self.pool_busy_s)
        segments: list[str] = []
        if self._arena is not None:
            segments = sorted(self._arena.names)
        return {
            "backend": type(self).__name__,
            "workers": self.workers,
            "transport": self.transport,
            "started": started,
            "rounds": int(self.pool_rounds),
            "busy_s": round(busy, 6),
            "idle_s": round(max(uptime - busy, 0.0), 6),
            "shm_segments": segments,
            "workers_lost": int(self.stats.workers_lost),
            "workers_respawned": int(self.stats.workers_respawned),
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _run(self, messages: Sequence[tuple], pending: Sequence | None = None) -> list:
        """Supervised dispatch: send, gather, survive member deaths.

        The one dispatch loop for every transport — worker pipes, shm
        descriptors and TCP hosts alike; subclasses only supply the pool
        lifecycle hooks (:meth:`_ensure_pool`, :meth:`_heal_pool`,
        :meth:`_inject_faults`, :meth:`_lose`).  ``messages[i]`` goes to
        the ``i``-th live handle.  Members compute concurrently — all
        sends complete before the first receive — and replies are folded
        into ``stats`` and the member's ``worker_stats`` entry.
        ``pending[i]``, when set, names the reply-slab region reserved for
        message ``i`` (the shm transport); the result is copied out of the
        slab on receipt.  Every byte actually crossing a pipe or socket,
        in either direction, lands in ``stats.ipc_bytes``.

        A member whose connection fails mid-round (EOF, broken pipe,
        reset) is handed to :meth:`_lose`: its chunked message
        re-dispatches to a survivor in the same round
        (``stats.chunks_resharded`` — slots are kept, so ``results[i]``
        always answers ``messages[i]`` and the chunk-order concatenation
        never observes the loss), while broadcast copies are simply
        dropped.  :meth:`_heal_pool` restores lost members at the start
        of a later dispatch with journal-replayed state.  A member-side
        ``err`` status still raises — the evaluation itself failed on a
        live member and would fail anywhere.
        """
        self._ensure_pool()
        self._heal_pool()
        self._inject_faults()
        handles = list(self._handles or [])
        refs = list(pending) if pending is not None else [None] * len(messages)
        round_start = time.monotonic()
        try:
            live = list(handles)
            results: dict[int, object] = {}
            failed: list[int] = []
            dispatched: list[tuple[int, _Handle]] = []
            for index, message in enumerate(messages):
                handle = handles[index]
                try:
                    self.stats.ipc_bytes += _send_message(handle.conn, message)
                    dispatched.append((index, handle))
                except (BrokenPipeError, ConnectionError, OSError):
                    live.remove(handle)
                    self._lose(handle)
                    failed.append(index)
            for index, handle in dispatched:
                try:
                    results[index] = self._receive(handle, refs[index])
                except (EOFError, ConnectionError, OSError):
                    live.remove(handle)
                    self._lose(handle)
                    failed.append(index)
            if failed and messages[failed[0]][0] not in _BROADCAST_OPS:
                self._redispatch(messages, sorted(failed), results, refs, live)
            elif not live:
                # Survivors already served a broadcast and the journal
                # replay covers lost members — unless nobody survived.
                raise self._all_lost()
            return [results[index] for index in sorted(results)]
        finally:
            self.pool_rounds += 1
            self.pool_busy_s += time.monotonic() - round_start

    def _redispatch(
        self,
        messages: Sequence[tuple],
        queue: list[int],
        results: dict[int, object],
        refs: list,
        live: list[_Handle],
    ) -> None:
        """Re-shard lost members' chunks across the survivors, in waves.

        Each wave assigns at most one queued message per survivor; a
        survivor that dies mid-wave sends its message back into the
        queue.  Slab copy-out always uses the *message*'s reply ref — the
        shm refs baked into a message name the originating slot's slabs,
        and segments attach by name, so any worker can fill them.
        """
        while queue:
            if not live:
                raise self._all_lost()
            wave: list[tuple[int, _Handle]] = []
            for handle, index in zip(list(live), list(queue)):
                try:
                    self.stats.ipc_bytes += _send_message(
                        handle.conn, messages[index]
                    )
                except (BrokenPipeError, ConnectionError, OSError):
                    live.remove(handle)
                    self._lose(handle)
                    continue
                self.stats.chunks_resharded += 1
                wave.append((index, handle))
                queue.remove(index)
            for index, handle in wave:
                try:
                    results[index] = self._receive(handle, refs[index])
                except (EOFError, ConnectionError, OSError):
                    live.remove(handle)
                    self._lose(handle)
                    queue.append(index)

    def _receive(self, handle: _Handle, reply_ref: tuple | None = None):
        """One reply off ``handle``: account it, raise on a member ``err``.

        Transport failures (EOF/OSError) propagate to the caller — the
        *member* died and its message can be re-dispatched; an ``err``
        status means the evaluation itself failed on a live member.  With
        ``reply_ref`` set the payload is copied out of the reply slab.
        """
        reply, nbytes = _recv_message(handle.conn)
        self.stats.ipc_bytes += nbytes
        status, result, stats = reply
        if status != "ok":
            self.close()
            raise RuntimeError(f"dm-mp {handle.label} failed:\n{result}")
        for name, value in zip(_EVOLUTION_COUNTERS, stats):
            setattr(self.stats, name, getattr(self.stats, name) + value)
            setattr(handle.stats, name, getattr(handle.stats, name) + value)
        if reply_ref is not None:
            result = np.array(self._arena.view(reply_ref))
        return result

    def _all_lost(self) -> RuntimeError:
        """Tear the pool down; the error for a round no member can run."""
        self.close()
        return RuntimeError(f"dm-mp: every {self._MEMBER} of the pool was lost")

    def _lose(self, handle: _Handle) -> None:
        """Mark a failed worker's slot dead; the next dispatch respawns it."""
        self._dead.add(handle.slot)
        self.stats.workers_lost += 1
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def _heal_pool(self) -> None:
        """Respawn every dead slot before the next round dispatches."""
        if not self._dead or self._handles is None:
            return
        for index in sorted(self._dead):
            self._respawn_worker(index)
        self._dead = set()

    def _respawn_worker(self, index: int) -> None:
        """Replace a dead pool member and replay the journal onto it.

        The replacement gets the *current* problem: re-pickled under the
        pipe transport, or a fresh skeleton around the existing shared
        segments under shm (``_shared_refs`` is patched in place by delta
        republishing, so the refs are always current — re-sharing would
        orphan the commit view).  Journal replay then registers committed
        session seed sequences (``adopt`` — trajectories rebuild lazily,
        bitwise identical) and re-sends recent delta broadcasts
        (idempotent on the already-current problem).
        """
        handles = self._handles
        if handles is None:  # pragma: no cover - close raced the heal
            return
        stop_worker_pool([handles[index]], lambda conn: conn.send_bytes(_STOP_BYTES))
        ctx = mp.get_context(self.start_method)
        problem_payload = self.problem
        if self.transport == "shm":
            skeleton, _ = self.problem.share_arrays()
            problem_payload = (skeleton, self._shared_refs)
        handles[index] = self._spawn_worker(ctx, problem_payload, self._shm_info, index)
        self.stats.workers_respawned += 1
        self._replay_journal(handles[index])

    def _replay_journal(self, handle: _Handle) -> None:
        """Ship the coordinator-side journal to one (re)joined member."""
        replay: list[tuple] = []
        for sid, (base, seeds) in self._session_journal.items():
            replay.append(("adopt", sid, base, seeds))
        replay.extend(self._delta_journal)
        for message in replay:
            self.stats.ipc_bytes += _send_message(handle.conn, message)
        for _ in replay:
            self._receive(handle)

    def _inject_faults(self) -> None:
        """The ``mp-kill-worker`` fault point: SIGKILL a planned victim.

        The kill is real — detection and recovery then run the exact
        production path (EOF on the pipe, re-shard, respawn), which is
        the point of injecting here rather than faking a dead handle.
        """
        if faults.active() is None or self._handles is None:
            return
        for handle in self._handles:
            spec = faults.maybe_fail(
                "mp-kill-worker", worker=handle.slot, round=self.pool_rounds
            )
            if spec is not None:
                handle.process.kill()
                # Reap before dispatch so the death is visible this round.
                handle.process.join(timeout=5.0)

    def _chunk_indices(self, count: int) -> list[np.ndarray]:
        """Deterministic contiguous index chunks, one per worker, no empties."""
        return [
            idx
            for idx in np.array_split(np.arange(count), self.workers)
            if idx.size
        ]

    def _slab_request(
        self,
        worker: int,
        arrays: Sequence[np.ndarray],
        reply_shape: tuple[int, ...],
    ) -> tuple[list[tuple], tuple]:
        """One shm request: write ``arrays`` to the worker's request slab
        and reserve its float64 reply region.

        Returns the tagged array refs (message fields, in order) and the
        reserved reply ref — the single place the slab protocol (begin,
        pre-``ensure`` of the full message, aligned writes, reservation)
        is spelled out for every fan-out op.
        """
        request = self._request_slabs[worker]
        request.begin()
        request.ensure(sum(a.nbytes for a in arrays) + 8 * len(arrays))
        refs = [(_SHM_TAG, *request.write(a)) for a in arrays]
        reply = self._reply_slabs[worker]
        reply.begin()
        reply.ensure(8 * int(np.prod(reply_shape, dtype=np.int64)))
        return refs, reply.reserve(np.float64, reply_shape)

    def _fan_out(
        self,
        op: str,
        head: tuple,
        count: int,
        arrays: Callable[[np.ndarray], Sequence[np.ndarray]],
        row_shape: tuple[int, ...] = (),
    ) -> np.ndarray:
        """One fanned-out round: chunk, encode, dispatch, concatenate.

        The ``count`` items split into contiguous chunks, one per live
        member; chunk ``idx`` becomes the request
        ``(op, *head, *arrays(idx), reply)``.  This is the one place the
        data plane is chosen: under shm the arrays land in the member's
        request slab and ``reply`` reserves a ``(chunk, *row_shape)``
        float64 region of its reply slab, so the message is a few
        descriptor tuples; otherwise arrays ride inline and ``reply`` is
        ``None``.  Replies concatenate in chunk order, which keeps
        results byte-identical at every pool size.
        """
        self._ensure_pool()  # the chunk count follows the live members
        messages, pending = [], []
        for worker, idx in enumerate(self._chunk_indices(count)):
            fields = arrays(idx)
            if self.transport == "shm":
                refs, reply_ref = self._slab_request(
                    worker, fields, (idx.size, *row_shape)
                )
                messages.append((op, *head, *refs, (_SHM_TAG, *reply_ref)))
                pending.append(reply_ref)
            else:
                messages.append((op, *head, *fields, None))
                pending.append(None)
        return np.concatenate(self._run(messages, pending))

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    def open_session(self, base: SeedSet = ()) -> MultiprocessDMSession:
        return MultiprocessDMSession(self, base)

    def _next_session_id(self) -> int:
        self._session_counter += 1
        return self._session_counter

    def evaluate(self, seed_sets: Iterable[SeedSet]) -> np.ndarray:
        sets = self._normalize_sets(seed_sets)
        self.stats.evaluate_calls += 1
        self.stats.sets_evaluated += len(sets)
        if not sets:
            return np.empty(0, dtype=np.float64)
        if len(sets) < self.min_fanout:
            return self._chunked_scores(sets)
        return self._fan_out(
            "chunk", (), len(sets), lambda idx: _flatten_sets([sets[i] for i in idx])
        )

    def target_opinion_rows(self, seed_sets: Iterable[SeedSet]) -> np.ndarray:
        """``(C, n)`` horizon opinion rows, fanned out across the pool.

        Chunks of seed sets evolve concurrently and each worker writes its
        dense block straight into its reply slab under the shm transport —
        the canonical "dense payload" case the zero-copy data plane
        exists for.  Small requests run locally, like ``evaluate``.
        """
        sets = self._normalize_sets(seed_sets)
        if len(sets) < self.min_fanout:
            return super().target_opinion_rows(sets)
        return self._fan_out(
            "rows",
            (),
            len(sets),
            lambda idx: _flatten_sets([sets[i] for i in idx]),
            (self.problem.n,),
        )

    def session_extension_values(
        self,
        sid: int,
        base: tuple,
        seeds: tuple,
        traj: np.ndarray,
        candidates: SeedSet,
    ) -> np.ndarray:
        """One session round: candidate chunks fanned out with the session id.

        Small rounds (CELF refreshes) run on the parent's own committed
        trajectory; both paths produce bitwise-identical values.
        """
        cand = check_index_array(candidates, "candidates")
        if cand.size == 0:
            return np.empty(0, dtype=np.float64)
        if cand.size < self.min_fanout:
            return self.extension_values(
                traj, np.asarray(seeds, dtype=np.int64), cand
            )
        return self._fan_out(
            "ext", (sid, base, seeds), cand.size, lambda idx: [cand[idx]]
        )

    def session_extension_rows(
        self,
        sid: int,
        base: tuple,
        seeds: tuple,
        traj: np.ndarray,
        candidates: SeedSet,
    ) -> np.ndarray:
        """Unscored extension rows for one session round, fanned out.

        The rows counterpart of :meth:`session_extension_values`: workers
        evolve their candidate chunks against the session's committed
        trajectory and reply with the ``(chunk, n)`` horizon rows (written
        straight into the reply slab under shm), so the parent can score
        each row through the canonical width-1 path
        (:meth:`MultiprocessDMSession.coalesced_gains`).  Rows are
        bitwise identical to the local :meth:`BatchedDMEngine.extension_rows`
        at every worker count and batch size.
        """
        cand = check_index_array(candidates, "candidates")
        n = self.problem.n
        if cand.size == 0:
            return np.empty((0, n), dtype=np.float64)
        if cand.size < self.min_fanout:
            return self.extension_rows(
                traj, np.asarray(seeds, dtype=np.int64), cand
            )
        return self._fan_out(
            "extrows", (sid, base, seeds), cand.size, lambda idx: [cand[idx]], (n,)
        )

    def apply_delta(self, report, *, sessions: str = "auto") -> None:
        """Broadcast a delta to the pool, then refresh the parent engine.

        Workers patch their problem state in place instead of being
        restarted with a re-shipped problem: under ``pipe`` the broadcast
        carries only the touched columns' post-delta bytes (and changed
        opinion rows); under ``shm`` the parent patches the mapped
        segments directly — workers observe the new bytes without any
        message payload — re-sharing only matrices whose sparsity
        structure changed.  Warm sessions are rebuilt (never patched):
        workers reconstruct committed trajectories from seed sequences,
        and parent/worker state must stay bitwise identical.  A pool that
        has not started yet needs no broadcast — it forks from the
        already-patched problem.
        """
        if report.empty:
            return
        if self._handles is not None:
            columns_by_gid = None
            opinions = None
            new_refs = None
            if self.transport == "shm":
                new_refs = self._republish_delta(report)
            else:
                state = self.problem.state
                graphs = _unique_graphs(state)
                gid_of = {id(g): i for i, g in enumerate(graphs)}
                columns_by_gid = {}
                for q, touched in report.touched_by_candidate.items():
                    graph = state.graph(int(q))
                    gid = gid_of[id(graph)]
                    if gid in columns_by_gid:
                        continue
                    columns_by_gid[gid] = {
                        int(t): tuple(
                            np.array(part)
                            for part in graph.in_neighbors(int(t))
                        )
                        for t in np.asarray(touched, dtype=np.int64)
                    }
                if report.opinions_by_candidate:
                    b0 = state.initial_opinions
                    opinions = [
                        (
                            int(q),
                            np.asarray(nodes, dtype=np.int64),
                            np.array(b0[int(q), np.asarray(nodes, dtype=np.int64)]),
                        )
                        for q, nodes in report.opinions_by_candidate.items()
                    ]
            # Journaled before dispatch so a worker that dies *during*
            # this broadcast still sees the delta on respawn replay
            # (idempotent: respawns re-ship the already-patched problem).
            self._delta_journal.append(
                ("delta", report, columns_by_gid, opinions, new_refs)
            )
            del self._delta_journal[:-_DELTA_JOURNAL_CAP]
            self._run([self._delta_journal[-1]] * self.workers)
        super().apply_delta(report, sessions=sessions)

    def _republish_delta(self, report) -> dict | None:
        """Patch the shared problem segments in place; re-share on growth.

        Returns ``{gid: {"csr.data": tagged ref, ...}}`` for graphs whose
        arrays changed shape (structural deltas) — workers rebuild those
        matrix views; everything else was patched inside the live
        segments and needs no message payload at all.
        """
        refs = self._shared_refs
        arena = self._arena
        if refs is None or arena is None:
            return None
        state = self.problem.state
        graphs = _unique_graphs(state)
        gid_of = {id(g): i for i, g in enumerate(graphs)}
        touched_gids = sorted(
            {gid_of[id(state.graph(int(q)))] for q in report.touched_by_candidate}
        )
        new_refs: dict[int, dict[str, tuple]] = {}
        for gid in touched_gids:
            graph = graphs[gid]
            replaced = False
            for orient in ("csr", "csc"):
                matrix = getattr(graph, orient)
                for part in ("data", "indices", "indptr"):
                    key = f"g{gid}.{orient}.{part}"
                    ref = refs[key]
                    array = np.ascontiguousarray(getattr(matrix, part))
                    if (
                        tuple(ref[2]) == tuple(array.shape)
                        and np.dtype(ref[1]) == array.dtype
                    ):
                        arena.view(ref)[...] = array
                    else:
                        old_name = ref[0]
                        refs[key] = arena.share_array(array)
                        arena.release(old_name)
                        replaced = True
            if replaced:
                # Ship the full matrix ref set so the worker re-maps both
                # orientations coherently (some parts may be unreplaced
                # in-place segments — the refs are current either way).
                new_refs[gid] = {
                    f"{orient}.{part}": (
                        _SHM_TAG,
                        *refs[f"g{gid}.{orient}.{part}"],
                    )
                    for orient in ("csr", "csc")
                    for part in ("data", "indices", "indptr")
                }
        if report.opinions_by_candidate:
            ref = refs["initial_opinions"]
            arena.view(ref)[...] = state.initial_opinions
        return new_refs or None

    def broadcast_commit(
        self,
        sid: int,
        base: tuple,
        before: tuple,
        seed: int,
        traj: np.ndarray | None = None,
    ) -> None:
        """Tell every worker to fold ``seed`` into session ``sid``'s state.

        ``traj`` is the parent's post-commit committed trajectory; under
        the shm transport it is published through the commit slab so
        workers adopt it by one copy (no per-worker re-extension, nothing
        dense pickled).  A no-op while the pool has not started: the first
        fan-out message carries the full seed sequence and workers rebuild
        from it.
        """
        if self._handles is None:
            return
        self._journal_commit(sid, tuple(base), tuple(before) + (int(seed),))
        if self._commit_view is not None:
            if traj is None:
                raise ValueError("shm commit broadcasts need the committed trajectory")
            self._commit_view[...] = traj
        self._run([("commit", sid, base, before, seed)] * self.workers)

    def _journal_commit(self, sid: int, base: tuple, seeds: tuple) -> None:
        """Record session ``sid``'s committed seed sequence (FIFO-capped).

        The journal is what a respawned worker replays (as ``adopt``
        messages) to recover every live session's committed state; the
        cap mirrors the worker-side session cache, so the journal never
        promises more sessions than a worker would retain anyway.
        """
        journal = self._session_journal
        journal.pop(sid, None)
        journal[sid] = (base, seeds)
        while len(journal) > _WORKER_SESSION_CACHE:
            journal.pop(next(iter(journal)))
