"""Shared teardown for a pool of worker connections (the dm-mp hosts).

Send a guarded stop to every member, then close its connection.  A
member that already died (its socket reset, or already closed by the
supervisor) must never make the caller raise or hang, so every failure
of either step is swallowed here, in one place.
"""

from __future__ import annotations

from typing import Callable


def stop_worker_pool(handles, send_stop: Callable[[object], None]) -> None:
    """Stop every worker in ``handles``; never raises, never hangs.

    ``handles`` are objects with a ``conn`` attribute; ``send_stop(conn)``
    delivers the pool's stop message (failures on a dead connection are
    swallowed).  The stop frame — or the close itself — returns a remote
    ``net-worker`` to its accept loop.

    Idempotent: calling it again with the same handles — or with a
    member whose peer died or whose connection was already closed — is
    a no-op for that handle, never an error.  Supervised pools rely on
    this: a host loss can race the engine's own teardown against an
    outer ``close()``.
    """
    for handle in handles:
        try:
            send_stop(handle.conn)
        except (BrokenPipeError, ConnectionError, OSError, ValueError):
            pass
    for handle in handles:
        try:
            handle.conn.close()
        except (OSError, ValueError):
            pass
