"""The ``dm-mp`` engine: exact DM sharded across hosts (``--engine dm-mp:tcp=...``).

:class:`HostPool` shards the candidate columns that
:meth:`~repro.core.engine.BatchedDMEngine._evolve_blocks` would evolve in
one process across remote ``repro net-worker`` hosts.  Per-candidate
delta evolutions are independent (each column of the ``(n, C)`` delta
matrix depends only on its own pinned seeds), so a greedy round splits into
one contiguous candidate chunk per host that evolve and score concurrently;
the coordinator concatenates the per-chunk score vectors in chunk order,
which keeps selections byte-identical to
:class:`~repro.core.engine.BatchedDMEngine` no matter how many hosts run.
On one machine ``dm-batched`` already splits a wide call over every core,
so every local ``dm-mp`` spelling builds that engine instead.

Problem state is shipped once per host, in the connection handshake (see
:mod:`repro.core.engine_net`): the pickled
:class:`~repro.core.problem.FJVoteProblem` (minus its session-specific
seeded-trajectory cache, see ``FJVoteProblem.__getstate__``).  Each host
builds its own private :class:`BatchedDMEngine` from it — per-round
messages then carry only seed id chunks and score vectors, never matrices.
Every message is one framed pickle; :func:`_worker_loop` is the host side
of the protocol (``chunk``, ``ext``, ``delta``, ``ping``, ``stop``).
The coordinator concatenates the hosts' scored chunks, and every chunk
is scored column by column exactly as a one-candidate call is, so a
value does not depend on the host count or on what shared its round.

The wire cost is measured, not guessed:
:attr:`~repro.core.engine.EngineStats.ipc_bytes` counts every payload
byte the coordinator actually moves through host sockets (both
directions; the engine frames messages itself, so the counter is exact
and deterministic).

Deltas reach the hosts as replays: ``HostPool.apply_delta`` broadcasts
the delta as the coordinator's problem applied it (the
:class:`~repro.core.problem.DeltaReport`'s argument rows, candidate and
post-delta versions), and each host runs the same
:meth:`~repro.core.problem.FJVoteProblem.apply_delta` and
:meth:`~repro.core.engine.BatchedDMEngine.apply_delta` on its own copy.
Hosts compute every value with the coordinator's float kernels, so the
replayed renormalisation and cache refresh are bitwise the coordinator's.

Selection sessions fan out too, and hosts keep no session state:
:class:`MultiprocessDMSession` keeps the coordinator-side committed
trajectory (for values, commits and win-min prefix probes) exactly like
its base class, and a commit sends nothing.  Every ``ext`` message
carries the session's ``(base, seeds)`` pair; a host looks the
committed trajectory up by that pair, or grows it from the longest cached
prefix by the same one-seed extensions a commit performs, so it is
bitwise the coordinator's trajectory whichever host computes it.

Failure model
-------------
Connects retry until ``connect_timeout`` (hosts may still be starting).
After the handshake, a host that dies mid-round is dropped from the pool
(``stats.hosts_lost``) and its unanswered chunks are re-dispatched to the
survivors (``stats.chunks_resharded``); later rounds shard across the
survivors while the coordinator keeps re-dialing the lost address on a
deterministic backoff schedule — a host that comes back is re-handshaken
with the current problem and restored to its original shard slot
(``stats.hosts_rejoined``); it needs nothing else, since every fan-out
carries the seed sequence it evolves against.  A pool reused after
:meth:`HostPool.close` reconnects every host and shards across all of
them again, whatever was lost before.  Broadcast ops (``ping`` /
``delta``) are simply dropped for dead hosts.  Losing the
*last* host raises.  A host-side evaluation error (as opposed to a
transport failure) still raises immediately.  Re-sharding only moves
*which* connection evaluates a chunk, never the chunk contents or their
concatenation order, so selections stay byte-identical through losses.
"""

from __future__ import annotations

import os
import pickle
import socket
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
from repro.core.engine_net import _PICKLE_PROTOCOL, _dial_host, _split_address
from repro.core.problem import FJVoteProblem
from repro.utils.retry import backoff_schedule
from repro.utils.validation import check_index_array
from repro.utils.workers import stop_worker_pool

#: Work counters folded from host deltas into the coordinator's ``stats``
#: (and per-host into ``worker_stats``).  Probe accounting
#: (``evaluate_calls`` / ``sets_evaluated``) is *not* in this list: the
#: coordinator counts probes itself, exactly as the single-process engine
#: would, so the counters stay comparable across host counts.  Hosts
#: reply with these counters as a plain tuple in this order.
_EVOLUTION_COUNTERS = (
    "sparse_steps",
    "sparse_nnz",
    "dense_column_steps",
    "trajectory_steps",
    "repin_steps",
    "repin_inserted",
)

#: Committed trajectories kept per host, keyed by ``(base, seeds)``
#: (FIFO eviction); mirrors ``FJVoteProblem.SEEDED_TRAJECTORY_CACHE``.
_WORKER_SESSION_CACHE = 8

#: One identical message per host; a lost host's copy is dropped, not
#: re-dispatched (survivors already received theirs, and a rejoined host
#: is handshaken with the current problem).
_BROADCAST_OPS = frozenset({"ping", "delta"})

#: Re-dial ladder for lost hosts (seconds between rejoin attempts);
#: deterministic — the attempt count indexes it, the tail repeats.
_REJOIN_DELAYS = tuple(backoff_schedule(retries=6, base_delay=0.1, max_delay=2.0))

#: Per-attempt connect budget while re-dialing a lost host; short so a
#: still-dead host costs one refused dial per due attempt, not a stall.
_REJOIN_DIAL_TIMEOUT = 0.25

_STOP_BYTES = pickle.dumps(("stop",), _PICKLE_PROTOCOL)


def _send_message(conn, message: tuple) -> int:
    """Frame and send one message; returns its exact serialized size.

    The engine pickles messages itself (``send_bytes``) so the
    ``ipc_bytes`` accounting measures precisely what crosses the socket.
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
    along.
    """
    lengths = np.array([s.size for s in sets], dtype=np.int64)
    if sets:
        values = np.concatenate(sets).astype(np.int64, copy=False)
    else:
        values = np.empty(0, dtype=np.int64)
    return lengths, values


def _split_sets(lengths: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """Inverse of :func:`_flatten_sets`."""
    bounds = np.cumsum(np.asarray(lengths, dtype=np.int64))[:-1]
    return [
        np.array(chunk, dtype=np.int64)
        for chunk in np.split(np.asarray(values, dtype=np.int64), bounds)
    ]


def _committed_trajectory(
    engine: BatchedDMEngine, trajectories: dict, base: tuple, seeds: tuple
) -> np.ndarray:
    """The committed trajectory of ``seeds``, grown from ``base``.

    Content-addressed by ``(base, seeds)``.  A miss resumes from the
    longest cached prefix of ``seeds`` over the same base (else the base
    trajectory) and applies the one-seed extensions a
    :class:`BatchedDMSession` commit performs, so the result is bitwise
    the coordinator's trajectory whichever host computes it.
    """
    key = (base, seeds)
    traj = trajectories.get(key)
    if traj is not None:
        return traj
    done = len(base)
    for (cached_base, cached_seeds), cached in trajectories.items():
        size = len(cached_seeds)
        if cached_base == base and done < size and seeds[:size] == cached_seeds:
            done, traj = size, cached
    if traj is None:
        traj = engine.problem.target_trajectory(base)
    for i in range(done, len(seeds)):
        traj = engine.extend_trajectory(
            traj,
            np.asarray(seeds[:i], dtype=np.int64),
            np.array([seeds[i]], dtype=np.int64),
        )
    while len(trajectories) >= _WORKER_SESSION_CACHE:
        trajectories.pop(next(iter(trajectories)))
    trajectories[key] = traj
    return traj


def _worker_loop(conn, problem: FJVoteProblem, engine: BatchedDMEngine) -> None:
    """The dm-mp host command loop (what ``repro net-worker`` serves).

    ``conn`` is anything with the ``recv_bytes`` / ``send_bytes`` byte
    surface: the net worker's framed TCP socket.  Every reply carries the
    delta of the host engine's evolution counters (as a tuple ordered like
    ``_EVOLUTION_COUNTERS``) so the coordinator can account the work each
    host actually performed; payload arrays are pickled into the ack.  A
    coordinator that goes away arrives as EOF and ends the loop.  The only
    state kept between messages is the problem, the engine and the
    ``(base, seeds)``-keyed committed trajectories.  A ``delta`` message
    is replayed through ``problem.apply_delta`` and
    ``engine.apply_delta`` unless the problem is already at its
    versions, so a re-broadcast is a no-op.
    """
    trajectories: dict[tuple[tuple, tuple], np.ndarray] = {}
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, KeyboardInterrupt, OSError):
            break
        op = message[0]
        if op == "stop":
            break
        try:
            engine.stats.reset()
            result = None
            if op == "ping":
                result = (os.getpid(), socket.gethostname())
            elif op == "chunk":
                _, lengths, values = message
                result = engine.evaluate(_split_sets(lengths, values))
            elif op == "ext":
                _, base, seeds, cand = message
                result = engine.extension_values(
                    _committed_trajectory(engine, trajectories, base, seeds),
                    np.asarray(seeds, dtype=np.int64),
                    np.asarray(cand, dtype=np.int64),
                )
            elif op == "delta":
                _, graph_version, opinion_version, candidate, *rows = message
                # Replay unless the handshake already shipped the
                # post-delta problem (a host that rejoined on this round).
                if (
                    problem.graph_version < graph_version
                    or problem.opinion_version < opinion_version
                ):
                    report = problem.apply_delta(*rows, candidate=candidate)
                    engine.apply_delta(report)
                    if problem.target in report.dirty:
                        trajectories.clear()  # regrown from seed sequences
            else:
                raise ValueError(f"unknown dm-mp host op {op!r}")
            stats = tuple(
                int(getattr(engine.stats, name)) for name in _EVOLUTION_COUNTERS
            )
            conn.send_bytes(pickle.dumps(("ok", result, stats), _PICKLE_PROTOCOL))
        except Exception as exc:  # pragma: no cover - host-side failures
            import traceback

            conn.send_bytes(
                pickle.dumps(
                    ("err", f"{exc}\n{traceback.format_exc()}", None),
                    _PICKLE_PROTOCOL,
                )
            )


class _Handle:
    """One connected host: its framed socket and its slot, which indexes
    both its address in ``hosts`` and its ``worker_stats`` entry."""

    __slots__ = ("conn", "slot")

    def __init__(self, conn, slot: int) -> None:
        self.conn = conn
        self.slot = slot


class MultiprocessDMSession(BatchedDMSession):
    """Warm-started session whose wide rounds fan out to the hosts.

    The coordinator keeps the committed trajectory exactly like
    :class:`BatchedDMSession` (values, commits and win-min prefix probes
    are single-column work, cheapest done locally); each round's
    ``marginal_gains`` fans the candidate chunks out with the session's
    ``(base, seeds)`` pair, from which every host finds or regrows the
    same committed trajectory.  A commit sends nothing.
    """

    def __init__(self, engine: "HostPool", base: SeedSet = ()) -> None:
        super().__init__(engine, base)
        self._base = tuple(self._seeds)

    def marginal_gains(self, candidates: SeedSet) -> np.ndarray:
        self._ensure_fresh()  # a delta may have scheduled a lazy rebuild
        values = self.engine.session_extension_values(
            self._base, tuple(self._seeds), self._traj, candidates
        )
        return values - self._value


class HostPool(BatchedDMEngine):
    """Exact DM evaluation sharded across remote ``net-worker`` hosts.

    Parameters
    ----------
    problem:
        The FJ-Vote instance, shipped once per host in the handshake.
    hosts:
        ``host:port`` targets (the ``dm-mp:tcp=<host:port,...>`` spec);
        one candidate shard per connected host.
    connect_timeout:
        Seconds to keep retrying each host's connect before giving up.
    min_fanout:
        Below this many seed sets per call the coordinator — itself a
        full batched engine holding the same state — evaluates locally: a
        greedy round's first call (its top bound) or a CELF stale-entry
        refresh is one column, not worth a round-trip.
        Results are bitwise identical either way.  Default
        ``2 * len(hosts)``.
    kwargs:
        Forwarded to :class:`BatchedDMEngine` locally *and* to every
        host's engine through the handshake (``batch_rows``,
        ``densify_threshold``, ...).

    The pool connects lazily on the first fanned-out call and is released
    by :meth:`close` (also via ``with``, garbage collection, or
    interpreter exit).  The engine keeps per-host :class:`EngineStats` in
    ``worker_stats`` — the max dense-column-step share across hosts is
    the round's critical path, the deterministic scaling metric of
    ``benchmarks/bench_net.py``.
    """

    def __init__(
        self,
        problem: FJVoteProblem,
        *,
        hosts: Sequence[str],
        connect_timeout: float = 10.0,
        min_fanout: int | None = None,
        **kwargs: object,
    ) -> None:
        super().__init__(problem, **kwargs)
        hosts = tuple(str(h) for h in hosts)
        if not hosts:
            raise ValueError("dm-mp tcp needs at least one host:port")
        for entry in hosts:
            _split_address(entry)  # fail fast on malformed addresses
        self.hosts = hosts
        self.connect_timeout = float(connect_timeout)
        #: Connected hosts: the shard count of the next fan-out.
        self.workers = len(hosts)
        self.min_fanout = (
            2 * len(hosts) if min_fanout is None else max(1, int(min_fanout))
        )
        self.worker_stats = [EngineStats() for _ in hosts]
        #: Fan-out rounds dispatched and wall time spent inside them,
        #: cumulative across reconnects (``pool_stats`` derives idle
        #: time from the pool's uptime).
        self.pool_rounds = 0
        self.pool_busy_s = 0.0
        self._pool_started: float | None = None
        self._engine_kwargs = dict(kwargs)
        self._handles: list[_Handle] | None = None
        #: Lost addresses pending rejoin: address -> [attempts, next_retry].
        self._lost_hosts: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def _handshake(self, address: str, timeout: float) -> _Handle:
        """Dial one host and ship the hello (problem + engine kwargs).

        The handshake always carries the *current* problem, so a host
        rejoining after deltas starts from patched state.
        """
        conn, nbytes = _dial_host(address, timeout, self.problem, self._engine_kwargs)
        self.stats.ipc_bytes += nbytes
        return _Handle(conn, self.hosts.index(address))

    def _connected(self) -> int:
        """Connect the pool and re-dial due lost hosts; the host count.

        The first connect (or the first after :meth:`close`) handshakes
        every host, all-or-nothing, so a reused pool shards across every
        host again however many were lost before.  Every dispatch sizes
        its messages from the count returned *after* the re-dial, so a
        host that rejoins on this round gets its own broadcast copy or
        shard.
        """
        if self._handles is None:
            handles: list[_Handle] = []
            try:
                for address in self.hosts:
                    handles.append(self._handshake(address, self.connect_timeout))
            except BaseException:
                for handle in handles:
                    handle.conn.close()
                raise
            self._handles = handles
            self.workers = len(handles)
            self._lost_hosts = {}
            self._pool_started = time.monotonic()
        self._heal_pool()
        return self.workers

    def close(self) -> None:
        """Send stop frames, close every socket, forget pending rejoins.

        Idempotent and safe on hosts that already died (the stop send is
        guarded).  The pool reconnects lazily if used again.
        """
        handles, self._handles = self._handles, None
        self._pool_started = None
        self._lost_hosts = {}
        if handles:
            stop_worker_pool(handles, lambda conn: conn.send_bytes(_STOP_BYTES))

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass

    def ping(self) -> list[tuple[int, str]]:
        """Round-trip every host; returns ``(pid, hostname)`` pairs."""
        return self._run([("ping",)] * self._connected())

    def pool_stats(self) -> dict[str, object]:
        """Live pool accounting (the serving layer's ``stats`` op).

        ``rounds`` counts fan-out dispatches, ``busy_s`` the wall time
        spent inside them, ``idle_s`` the remainder of the connected
        pool's uptime; round/busy counters are cumulative across
        reconnects, only the uptime window resets.  The host fields name
        the fleet, the hosts connected now, and the loss / rejoin /
        re-shard counts.
        """
        started = self._handles is not None
        uptime = 0.0
        if started and self._pool_started is not None:
            uptime = time.monotonic() - self._pool_started
        busy = float(self.pool_busy_s)
        return {
            "backend": type(self).__name__,
            "workers": self.workers,
            "started": started,
            "rounds": int(self.pool_rounds),
            "busy_s": round(busy, 6),
            "idle_s": round(max(uptime - busy, 0.0), 6),
            "hosts": list(self.hosts),
            "hosts_connected": [self.hosts[h.slot] for h in (self._handles or [])],
            "hosts_lost": int(self.stats.hosts_lost),
            "hosts_rejoined": int(self.stats.hosts_rejoined),
            "chunks_resharded": int(self.stats.chunks_resharded),
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _run(self, messages: Sequence[tuple]) -> list:
        """Supervised dispatch: send, gather, survive host losses.

        ``messages[i]`` goes to the ``i``-th connected host (callers size
        ``messages`` from :meth:`_connected`).  Hosts
        compute concurrently — all sends complete before the first
        receive — and replies are folded into ``stats`` and the host's
        ``worker_stats`` entry.  Every payload byte actually crossing a
        socket, in either direction, lands in ``stats.ipc_bytes``.

        A host whose connection fails mid-round (EOF, broken pipe, reset)
        is handed to :meth:`_lose`: its chunked message re-dispatches to a
        survivor in the same round (``stats.chunks_resharded`` — slots are
        kept, so ``results[i]`` always answers ``messages[i]`` and the
        chunk-order concatenation never observes the loss), while
        broadcast copies are simply dropped.  :meth:`_heal_pool` re-dials
        lost hosts before a later dispatch.  A host-side ``err`` status
        still raises — the evaluation itself failed on a live host and
        would fail anywhere.
        """
        self._inject_faults()
        handles = list(self._handles or [])
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
                    results[index] = self._receive(handle)
                except (EOFError, ConnectionError, OSError):
                    live.remove(handle)
                    self._lose(handle)
                    failed.append(index)
            if failed and messages[failed[0]][0] not in _BROADCAST_OPS:
                self._redispatch(messages, sorted(failed), results, live)
            elif not live:
                # Survivors already served a broadcast and a rejoining
                # host gets the current problem — unless nobody survived.
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
        live: list[_Handle],
    ) -> None:
        """Re-shard lost hosts' chunks across the survivors, in waves.

        Each wave assigns at most one queued message per survivor; a
        survivor that dies mid-wave sends its message back into the
        queue.
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
                    results[index] = self._receive(handle)
                except (EOFError, ConnectionError, OSError):
                    live.remove(handle)
                    self._lose(handle)
                    queue.append(index)

    def _receive(self, handle: _Handle):
        """One reply off ``handle``: account it, raise on a host ``err``.

        Transport failures (EOF/OSError) propagate to the caller — the
        *host* died and its message can be re-dispatched; an ``err``
        status means the evaluation itself failed on a live host.
        """
        reply, nbytes = _recv_message(handle.conn)
        self.stats.ipc_bytes += nbytes
        status, result, stats = reply
        if status != "ok":
            self.close()
            raise RuntimeError(
                f"dm-mp tcp host {self.hosts[handle.slot]} failed:\n{result}"
            )
        host_stats = self.worker_stats[handle.slot]
        for name, value in zip(_EVOLUTION_COUNTERS, stats):
            setattr(self.stats, name, getattr(self.stats, name) + value)
            setattr(host_stats, name, getattr(host_stats, name) + value)
        return result

    def _all_lost(self) -> RuntimeError:
        """Tear the pool down; the error for a round no host can run."""
        self.close()
        return RuntimeError("dm-mp: every host of the pool was lost")

    def _lose(self, handle: _Handle) -> None:
        """Drop a dead host: later rounds shard across the survivors
        while the rejoin schedule re-dials its address."""
        handles = self._handles or []
        if handle in handles:
            handles.remove(handle)
        handle.conn.close()
        self.stats.hosts_lost += 1
        if handles:
            self.workers = len(handles)
        self._lost_hosts.setdefault(
            self.hosts[handle.slot], [0, time.monotonic() + _REJOIN_DELAYS[0]]
        )

    def _heal_pool(self) -> None:
        """Re-dial lost hosts whose backoff deadline has passed.

        A successful dial re-runs the full handshake (current problem)
        and restores the host to its original shard slot — nothing else
        is replayed, and selections stay byte-identical throughout
        because chunk contents and concatenation order never depended on
        *which* connection evaluates a chunk.
        """
        if not self._lost_hosts or self._handles is None:
            return
        for address, entry in list(self._lost_hosts.items()):
            if time.monotonic() < entry[1]:
                continue
            try:
                handle = self._handshake(address, _REJOIN_DIAL_TIMEOUT)
            except (RuntimeError, OSError, EOFError):
                entry[0] += 1
                delay = _REJOIN_DELAYS[min(int(entry[0]), len(_REJOIN_DELAYS) - 1)]
                entry[1] = time.monotonic() + delay
                continue
            del self._lost_hosts[address]
            self._handles.append(handle)
            self._handles.sort(key=lambda h: h.slot)
            self.workers = len(self._handles)
            self.stats.hosts_rejoined += 1

    def _inject_faults(self) -> None:
        """The ``net-sever-host`` fault point: cut a planned host's socket.

        Closing the coordinator side mid-round makes the next send fail
        with a real transport error, driving the production lose /
        re-shard / rejoin path (the remote net-worker sees EOF and loops
        back to ``accept``, ready for the rejoin dial).
        """
        if faults.active() is None or self._handles is None:
            return
        for handle in list(self._handles):
            spec = faults.maybe_fail(
                "net-sever-host",
                host=self.hosts[handle.slot],
                round=self.pool_rounds,
            )
            if spec is not None:
                handle.conn.close()

    def _fan_out(
        self,
        op: str,
        head: tuple,
        count: int,
        arrays: Callable[[np.ndarray], Sequence[np.ndarray]],
    ) -> np.ndarray:
        """One fanned-out round: chunk, dispatch, concatenate.

        The ``count`` items split into deterministic contiguous chunks,
        one per connected host (no empties); chunk ``idx`` becomes the
        request ``(op, *head, *arrays(idx))``.  Replies concatenate in
        chunk order, which keeps results byte-identical at every pool
        size.
        """
        messages = [
            (op, *head, *arrays(idx))
            for idx in np.array_split(np.arange(count), self._connected())
            if idx.size
        ]
        return np.concatenate(self._run(messages))

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    def open_session(self, base: SeedSet = ()) -> MultiprocessDMSession:
        return MultiprocessDMSession(self, base)

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

    def session_extension_values(
        self,
        base: tuple,
        seeds: tuple,
        traj: np.ndarray,
        candidates: SeedSet,
    ) -> np.ndarray:
        """One session round: candidate chunks fanned out with the seed pair.

        Small rounds (a round's top bound, CELF refreshes) run on the
        coordinator's own committed trajectory; both paths produce
        bitwise-identical values.
        """
        cand = check_index_array(candidates, "candidates")
        if cand.size == 0:
            return np.empty(0, dtype=np.float64)
        if cand.size < self.min_fanout:
            return self.extension_values(
                traj, np.asarray(seeds, dtype=np.int64), cand
            )
        return self._fan_out("ext", (base, seeds), cand.size, lambda idx: [cand[idx]])

    def apply_delta(self, report) -> None:
        """Replay a delta on the hosts, then refresh the local engine.

        The broadcast carries the delta as the coordinator's problem
        applied it (the report's argument rows, candidate and post-delta
        versions), and every host runs the same
        :meth:`FJVoteProblem.apply_delta` on the same state, so host and
        coordinator state stay bitwise identical without re-shipping the
        problem.  A host already at the post-delta versions (one that
        rejoined on this round: its handshake shipped the patched
        problem) skips the replay.  A pool that has not connected yet
        needs no broadcast.
        """
        if report.empty:
            return
        if self._handles is not None:
            self._run(
                [
                    (
                        "delta",
                        report.graph_version,
                        report.opinion_version,
                        report.candidate,
                        report.added_edges,
                        report.removed_edges,
                        report.changed_opinions,
                    )
                ]
                * self._connected()
            )
        super().apply_delta(report)
