"""Online serving layer: a request-coalescing query service over warm engines.

The paper frames opinion maximization as interactive decision support —
"which k seeds win target c under rule R?" — and this package answers it
without the cold-start tax of the batch CLI: one process loads the graph
(and, optionally, a persisted :class:`~repro.core.walk_store.WalkStore`
directory) once, keeps engines and per-campaign
:class:`~repro.core.engine.SelectionSession`\\ s hot, and serves queries
over a newline-delimited JSON protocol on a plain TCP socket (stdlib
``asyncio.start_server`` — no new runtime dependencies).

Layout
------
:mod:`repro.serve.protocol`
    The wire format: request/response framing, op names, structured
    error codes.
:mod:`repro.serve.batcher`
    :class:`~repro.serve.batcher.EngineHub` (warm engines, session and
    top-k caches, delta application) and
    :class:`~repro.serve.batcher.CoalescingBatcher` (merges compatible
    queries into one engine round).
:mod:`repro.serve.server`
    The asyncio front end: connection handling, the single dispatcher
    task whose drain loop *is* the micro-batch window, signal-routed
    shutdown through :func:`repro.utils.workers.stop_worker_pool`.
:mod:`repro.serve.client`
    An asyncio client, a synchronous one-shot helper, and the
    load-generator used by ``repro serve-load`` and the benchmarks.

Coalescing semantics
--------------------
Requests that arrive within the batch window — or while a previous round
is in flight — and target the same (graph version, committed prefix)
state are answered by **one** engine round: marginal-gain requests
sharing a prefix evolve the union of their candidates as a single
(n, C) block, win/value probes for distinct seed sets share one
:meth:`~repro.core.engine.ObjectiveEngine.query_sets` call, and duplicate
top-k requests run greedy once.  Responses are *batch-stable*: byte
identical whether a request was coalesced or served alone, on every
backend and host count (every engine's gains and values calls are
bitwise independent of what else shares the call).  Deltas are
serialized through the same queue, acting as barriers — every response
carries the ``graph_version``/``opinion_version`` it was computed
against.
"""

from repro.serve.batcher import CoalescingBatcher, EngineHub, ServeStats
from repro.serve.client import LoadReport, ServeClient, request_once, run_load
from repro.serve.protocol import ProtocolError
from repro.serve.server import QueryServer, run_server

__all__ = [
    "CoalescingBatcher",
    "EngineHub",
    "LoadReport",
    "ProtocolError",
    "QueryServer",
    "ServeClient",
    "ServeStats",
    "request_once",
    "run_load",
    "run_server",
]
