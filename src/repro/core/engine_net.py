"""Multi-host candidate sharding over TCP (``--engine dm-mp:tcp=...``).

:class:`HostPool` is the coordinator.  It is a
:class:`~repro.core.engine_mp.MultiprocessDMEngine` whose pool members are
remote hosts instead of local processes, and it owns only the
connections: dialing and handshaking hosts, closing them, re-dialing lost
ones, the ``net-sever-host`` fault point and the hook that drops a lost
host from the shard set.  Everything else is the multiprocess engine's
own code, run unchanged: the chunking, the framed ops (``chunk``,
``rows``, ``ext``, ``extrows``, ``commit``, ``delta``, ``adopt``,
``ping``, ``stop``), the one supervised dispatch loop with its re-shard
waves, and the exact :attr:`~repro.core.engine.EngineStats.ipc_bytes`
accounting.  Only the bytes travel differently: frames ride
length-prefixed TCP sockets (:class:`FramedSocket`) instead of pipes.
Each host runs ``repro net-worker`` (:func:`run_net_worker`): an accept
loop that handshakes one coordinator at a time, builds the same private
:class:`~repro.core.engine.BatchedDMEngine` a forked pool member would
(or a whole host-side ``dm-mp`` pool with ``--workers``), and serves the
shared :func:`~repro.core.engine_mp._worker_loop`.

Determinism is inherited, not re-proved: chunks are ``np.array_split``
contiguous ranges concatenated in chunk order, so selections are
byte-identical to ``dm`` at every host count — and stay byte-identical
when a host is lost mid-run, because re-sharding only moves *which*
connection evaluates a chunk, never the chunk contents or their
concatenation order.

Failure model
-------------
Connects retry until ``connect_timeout`` (hosts may still be starting).
After the handshake, a host that dies mid-round is dropped from the pool
(``stats.hosts_lost``) and its unanswered chunks are re-dispatched to the
survivors (``stats.chunks_resharded``); later rounds shard across the
survivors while the coordinator keeps re-dialing the lost address on a
deterministic backoff schedule — a host that comes back is re-handshaken
with the current problem, journal-replayed, and restored to its original
shard slot (``stats.hosts_rejoined``).  A pool reused after
:meth:`HostPool.close` reconnects every host and shards across all of
them again, whatever was lost before.  Broadcast ops (``ping`` /
``commit`` / ``delta``) are simply dropped for dead hosts — a worker
that misses a commit rebuilds its session trajectory lazily from the
``(base, seeds)`` pair every fan-out message carries, bitwise identical
either way.  Losing the *last* host raises.  A worker-side evaluation
error (as opposed to a transport failure) still raises immediately, like
the process pool.

The handshake ships the pickled problem once per connection, mirroring
the process pool's ship-once-at-start contract.  When the net worker was
started with ``--store-dir``, it opens the shared
:class:`~repro.core.walk_store.WalkStore` against the coordinator's
problem first — the store manifest's identity check rejects coordinators
whose problem does not match the walks on disk, so a fleet can only ever
agree on one problem identity.
"""

from __future__ import annotations

import os
import pickle
import select
import socket
import struct
import time
from typing import Callable, Sequence

from repro.core import faults
from repro.core.engine import BatchedDMEngine
from repro.core.engine_mp import (
    _PICKLE_PROTOCOL,
    MultiprocessDMEngine,
    _Handle,
    _recv_message,
    _worker_loop,
)
from repro.core.problem import FJVoteProblem
from repro.utils.retry import backoff_schedule, with_backoff

#: Re-dial ladder for lost hosts (seconds between rejoin attempts);
#: deterministic — the attempt count indexes it, the tail repeats.
_REJOIN_DELAYS = tuple(backoff_schedule(retries=6, base_delay=0.1, max_delay=2.0))

#: Per-attempt connect budget while re-dialing a lost host; short so a
#: still-dead host costs one refused dial per due attempt, not a stall.
_REJOIN_DIAL_TIMEOUT = 0.25

#: Frame header: unsigned 64-bit big-endian payload length.
_FRAME_HEADER = struct.Struct("!Q")

#: recv() slice cap; large frames arrive in pieces regardless.
_RECV_CHUNK = 1 << 20


class FramedSocket:
    """``mp.Connection`` byte surface over one TCP socket.

    Frames are length-prefixed (8-byte big-endian header) so
    ``recv_bytes`` returns exactly one peer ``send_bytes`` payload —
    the same whole-message semantics a pipe gives the worker loop.  The
    header is transport framing, not payload: ``ipc_bytes`` counts the
    pickled payload only, keeping the counter comparable across pipe,
    shm and tcp transports for identical messages.
    """

    __slots__ = ("_sock",)

    def __init__(self, sock: socket.socket) -> None:
        sock.settimeout(None)  # blocking frames; liveness is EOF-based
        self._sock = sock

    def send_bytes(self, payload: bytes) -> None:
        self._sock.sendall(_FRAME_HEADER.pack(len(payload)) + payload)

    def recv_bytes(self) -> bytes:
        (length,) = _FRAME_HEADER.unpack(self._recv_exact(_FRAME_HEADER.size))
        return self._recv_exact(length)

    def _recv_exact(self, count: int) -> bytes:
        parts: list[bytes] = []
        remaining = count
        while remaining:
            part = self._sock.recv(min(remaining, _RECV_CHUNK))
            if not part:
                raise EOFError("dm-mp tcp peer closed the connection")
            parts.append(part)
            remaining -= len(part)
        return b"".join(parts)

    def poll(self, timeout: float = 0.0) -> bool:
        ready, _, _ = select.select([self._sock], [], [], timeout)
        return bool(ready)

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass


def _split_address(entry: str) -> tuple[str, int]:
    """``host:port`` -> ``(host, port)``; the EngineSpec grammar's shape."""
    host, sep, port = entry.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"malformed dm-mp tcp host {entry!r}; expected host:port"
        )
    return host, int(port)


def _connect(address: str, timeout: float) -> FramedSocket:
    """Dial one host, retrying with backoff until ``timeout`` elapses.

    Hosts are commonly started in parallel with the coordinator, so a
    refused connection is retried (the listener may not be up yet);
    only the deadline turns persistent failure into an error.
    """
    host, port = _split_address(address)
    deadline = time.monotonic() + timeout
    # Enough capped delays to span the timeout; the dial itself uses the
    # remaining budget, so the last attempt cannot overshoot.
    schedule: list[float] = []
    total = 0.0
    for delay in backoff_schedule(retries=64, base_delay=0.05, max_delay=0.5):
        if total >= timeout:
            break
        schedule.append(delay)
        total += delay

    def dial() -> FramedSocket:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ConnectionError("connect deadline exhausted")
        sock = socket.create_connection((host, port), timeout=max(remaining, 0.05))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return FramedSocket(sock)

    try:
        return with_backoff(dial, exceptions=(OSError,), schedule=schedule)
    except OSError as exc:
        raise RuntimeError(
            f"cannot reach dm-mp tcp host {address} within {timeout:.1f}s: {exc}"
        ) from exc


class HostPool(MultiprocessDMEngine):
    """Exact DM evaluation sharded across remote ``net-worker`` hosts.

    Parameters
    ----------
    problem:
        The FJ-Vote instance, shipped once per host in the handshake.
    hosts:
        ``host:port`` targets (the ``dm-mp:tcp=<host:port,...>`` spec);
        one candidate shard per host, ``workers == len(hosts)``.
    connect_timeout:
        Seconds to keep retrying each host's connect before giving up.
    kwargs:
        Forwarded to :class:`BatchedDMEngine` locally *and* to every
        host's engine through the handshake, exactly like the process
        pool ships its ``engine_kwargs``.

    Everything above the connections is inherited from
    :class:`MultiprocessDMEngine` — chunking, the pipe-style message
    bodies (arrays pickled into frames, no shm slabs), the supervised
    dispatch loop with its re-shard waves, session commit broadcasts,
    delta shipping and ``min_fanout``.  This class owns only the
    connections: handshake, connect, close, rejoin, the sever fault
    point and the lose hook that drops a host from the shard set.
    """

    _TRANSPORTS = ("tcp",)
    _MEMBER = "host"

    def __init__(
        self,
        problem: FJVoteProblem,
        *,
        hosts: Sequence[str],
        connect_timeout: float = 10.0,
        min_fanout: int | None = None,
        **kwargs: object,
    ) -> None:
        hosts = tuple(str(h) for h in hosts)
        if not hosts:
            raise ValueError("dm-mp tcp needs at least one host:port")
        for entry in hosts:
            _split_address(entry)  # fail fast on malformed addresses
        super().__init__(
            problem,
            workers=len(hosts),
            transport="tcp",
            min_fanout=min_fanout,
            **kwargs,
        )
        self.hosts = hosts
        self.connect_timeout = float(connect_timeout)
        #: Lost addresses pending rejoin: address -> [attempts, next_retry].
        self._lost_hosts: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def _handshake(self, address: str, timeout: float) -> _Handle:
        """Dial one host and ship the hello (problem + engine kwargs).

        The handshake always carries the *current* problem, so a host
        rejoining after deltas starts from patched state (journal replay
        of the deltas is then an idempotent no-op).
        """
        conn = _connect(address, timeout)
        try:
            hello = pickle.dumps(
                ("hello", self.problem, self._engine_kwargs), _PICKLE_PROTOCOL
            )
            conn.send_bytes(hello)
            self.stats.ipc_bytes += len(hello)
            reply, nbytes = _recv_message(conn)
            self.stats.ipc_bytes += nbytes
            status, result, _ = reply
            if status != "ok":
                raise RuntimeError(
                    f"dm-mp tcp host {address} rejected the handshake:\n{result}"
                )
        except BaseException:
            conn.close()
            raise
        slot = self.hosts.index(address)
        return _Handle(conn, self.worker_stats[slot], slot, f"tcp host {address}")

    def _ensure_pool(self) -> list[_Handle]:
        """Connect and handshake every host (idempotent, all-or-nothing).

        The shard count is re-derived from the connected hosts, so a pool
        reused after :meth:`close` shards across every host again however
        many were lost before.
        """
        if self._handles is None:
            handles: list[_Handle] = []
            try:
                for address in self.hosts:
                    handles.append(
                        self._handshake(address, self.connect_timeout)
                    )
            except BaseException:
                for handle in handles:
                    handle.conn.close()
                raise
            self._handles = handles
            self.workers = len(handles)
            self._lost_hosts = {}
            self._pool_started = time.monotonic()
        return self._handles

    def close(self) -> None:
        """Send stop frames, close every socket, forget pending rejoins.

        The inherited teardown applies as is: host handles carry no local
        process, so only the guarded stop send and the socket close run.
        """
        self._lost_hosts = {}
        super().close()

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

        A successful dial re-runs the full handshake (current problem),
        replays the coordinator journal, and restores the host to its
        original shard slot — selections stay byte-identical throughout
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
            self._replay_journal(handle)

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

    def pool_stats(self) -> dict[str, object]:
        """The process pool's snapshot plus host fleet accounting."""
        stats = super().pool_stats()
        stats["hosts"] = list(self.hosts)
        stats["hosts_connected"] = [self.hosts[h.slot] for h in (self._handles or [])]
        stats["hosts_lost"] = int(self.stats.hosts_lost)
        stats["hosts_rejoined"] = int(self.stats.hosts_rejoined)
        stats["chunks_resharded"] = int(self.stats.chunks_resharded)
        return stats


# ----------------------------------------------------------------------
# The host side: ``repro net-worker``
# ----------------------------------------------------------------------
def _net_worker_connection(
    conn: FramedSocket,
    *,
    workers: int,
    store_dir: str | None,
    store_seed: int,
    engine_overrides: dict | None,
) -> None:
    """Serve one coordinator: handshake, then the shared dm-mp worker loop.

    The hello frame carries the pickled problem and engine kwargs.  With
    ``store_dir`` set, the shared :class:`WalkStore` is opened against
    that problem *before* the ok goes back — its manifest identity check
    turns a mismatched coordinator into a structured ``err`` reply
    instead of silently answering for the wrong problem.  ``--workers``
    > 1 builds a host-side ``dm-mp`` pool, so chunks fan out again
    locally (bitwise identical results either way).
    """
    try:
        message = pickle.loads(conn.recv_bytes())
    except (EOFError, OSError, pickle.UnpicklingError):
        return
    if not (
        isinstance(message, tuple) and len(message) == 3 and message[0] == "hello"
    ):
        conn.send_bytes(
            pickle.dumps(
                ("err", "expected a ('hello', problem, kwargs) handshake", None),
                _PICKLE_PROTOCOL,
            )
        )
        return
    _, problem, engine_kwargs = message
    engine_kwargs = {**engine_kwargs, **(engine_overrides or {})}
    try:
        if store_dir is not None:
            from repro.core.walk_store import store_for_problem

            store_for_problem(problem, seed=store_seed, store_dir=store_dir)
        if workers > 1:
            engine: BatchedDMEngine = MultiprocessDMEngine(
                problem, workers=workers, **engine_kwargs
            )
        else:
            engine = BatchedDMEngine(problem, **engine_kwargs)
        # A pool member: the coordinator (or the host-side pool) spreads
        # candidates over the cores, so the engine runs one thread.
        engine._threads = 1
    except (ValueError, TypeError, OSError) as exc:
        conn.send_bytes(
            pickle.dumps(
                ("err", f"handshake rejected: {exc}", None), _PICKLE_PROTOCOL
            )
        )
        return
    try:
        conn.send_bytes(
            pickle.dumps(
                ("ok", (os.getpid(), socket.gethostname()), None),
                _PICKLE_PROTOCOL,
            )
        )
        _worker_loop(conn, problem, engine, watch_parent=False)
    finally:
        engine.close()


def run_net_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    workers: int = 1,
    store_dir: str | None = None,
    store_seed: int = 0,
    connections: int | None = None,
    on_ready: Callable[[str, int], None] | None = None,
    engine_overrides: dict | None = None,
) -> int:
    """Listen for ``HostPool`` coordinators and serve their chunks.

    One coordinator is served at a time (a coordinator holds its
    connection for the engine's lifetime); when it stops or disconnects
    the loop returns to ``accept``, so a long-lived host outlives many
    selection runs.  ``port=0`` binds a free port; ``on_ready`` receives
    the bound ``(host, port)`` before the first accept (the CLI prints
    its readiness line from it).  ``connections`` bounds how many
    coordinators are served before returning (``None`` = serve forever);
    returns the number served.
    """
    if workers < 1:
        raise ValueError(f"net-worker needs at least one worker, got {workers}")
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    served = 0
    try:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((host, port))
        server.listen(8)
        bound_host, bound_port = server.getsockname()[:2]
        if on_ready is not None:
            on_ready(bound_host, bound_port)
        while connections is None or served < connections:
            sock, _ = server.accept()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = FramedSocket(sock)
            try:
                _net_worker_connection(
                    conn,
                    workers=workers,
                    store_dir=store_dir,
                    store_seed=store_seed,
                    engine_overrides=engine_overrides,
                )
            except (OSError, EOFError, ConnectionError):
                # A coordinator that dies mid-serve (socket reset, severed
                # link) must not take the host down: the loop returns to
                # ``accept`` so the coordinator can rejoin.
                pass
            finally:
                conn.close()
            served += 1
    finally:
        server.close()
    return served


__all__ = [
    "FramedSocket",
    "HostPool",
    "run_net_worker",
]
