"""The tcp transport of ``dm-mp:tcp=...``: framing, dialing, ``net-worker``.

The coordinator, :class:`~repro.core.engine_mp.HostPool`, owns the
supervised dispatch loop, the chunking and the framed ops; this module
owns only how the bytes travel and who answers them:

* :class:`FramedSocket` — length-prefixed frames over one TCP socket,
  the ``recv_bytes`` / ``send_bytes`` surface the host loop reads;
* :func:`_dial_host` — connect with retries and run the ``hello``
  handshake that ships the pickled problem and engine kwargs once per
  connection;
* :func:`run_net_worker` — the host side (``repro net-worker``): an
  accept loop that handshakes one coordinator at a time, builds a plain
  :class:`~repro.core.engine.BatchedDMEngine` (which splits wide calls
  over the host's own cores) and serves
  :func:`~repro.core.engine_mp._worker_loop`.

A host evaluates exact DM only and never reads a walk, so it opens no
walk store.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import time
from typing import Callable

from repro.core.engine import BatchedDMEngine
from repro.core.problem import FJVoteProblem
from repro.utils.retry import backoff_schedule, with_backoff

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Frame header: unsigned 64-bit big-endian payload length.
_FRAME_HEADER = struct.Struct("!Q")

#: recv() slice cap; large frames arrive in pieces regardless.
_RECV_CHUNK = 1 << 20


class FramedSocket:
    """Whole-message ``send_bytes`` / ``recv_bytes`` over one TCP socket.

    Frames are length-prefixed (8-byte big-endian header) so
    ``recv_bytes`` returns exactly one peer ``send_bytes`` payload.  The
    header is transport framing, not payload: ``ipc_bytes`` counts the
    pickled payload only.
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

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass


def _split_address(entry: str) -> tuple[str, int]:
    """``host:port`` -> ``(host, port)``: the one tcp host validator.

    ``EngineSpec`` and ``HostPool`` both call it, so a malformed entry
    (no port, a port outside [1, 65535], a comma) fails at construction
    with one message instead of dialing until ``connect_timeout``.
    """
    host, sep, port = entry.rpartition(":")
    if (
        not sep
        or not host
        or "," in entry
        or not port.isdigit()
        or not 0 < int(port) < 65536
    ):
        raise ValueError(
            f"malformed dm-mp:tcp host {entry!r}; expected "
            "host:port with a port in [1, 65535]"
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


def _dial_host(
    address: str, timeout: float, problem: FJVoteProblem, engine_kwargs: dict
) -> tuple[FramedSocket, int]:
    """Dial one host and ship the hello (problem + engine kwargs).

    Returns the connected socket and the handshake's payload bytes (both
    directions, for ``ipc_bytes``).  A host that answers ``err`` — a bad
    kwarg — raises ``RuntimeError`` naming it.
    """
    conn = _connect(address, timeout)
    try:
        hello = pickle.dumps(("hello", problem, engine_kwargs), _PICKLE_PROTOCOL)
        conn.send_bytes(hello)
        reply = conn.recv_bytes()
        status, result, _ = pickle.loads(reply)
        if status != "ok":
            raise RuntimeError(
                f"dm-mp tcp host {address} rejected the handshake:\n{result}"
            )
    except BaseException:
        conn.close()
        raise
    return conn, len(hello) + len(reply)


# ----------------------------------------------------------------------
# The host side: ``repro net-worker``
# ----------------------------------------------------------------------
def _net_worker_connection(conn: FramedSocket) -> None:
    """Serve one coordinator: handshake, then the dm-mp host loop.

    The hello frame carries the pickled problem and engine kwargs; kwargs
    the host engine rejects turn into a structured ``err`` reply.
    """
    from repro.core.engine_mp import _worker_loop  # imports this module

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
    try:
        engine = BatchedDMEngine(problem, **engine_kwargs)
    except (ValueError, TypeError) as exc:
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
        _worker_loop(conn, problem, engine)
    finally:
        engine.close()


def run_net_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    connections: int | None = None,
    on_ready: Callable[[str, int], None] | None = None,
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
                _net_worker_connection(conn)
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
    "run_net_worker",
]
