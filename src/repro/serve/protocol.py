"""Wire protocol of the serving layer: newline-delimited JSON.

One request per line, one response line per request, over a plain TCP
stream.  Requests are JSON objects::

    {"id": 7, "op": "marginal_gain", "seeds": [3], "candidates": [1, 2]}

``id`` is echoed verbatim in the response so clients may pipeline
requests on one connection; responses arrive in completion order.
Responses are JSON objects with deterministic encoding (sorted keys,
compact separators, shortest round-trip floats), so a response's bytes
are a pure function of its content — the coalescing tests assert
byte-identity on these lines::

    {"graph_version": 0, "id": 7, "ok": true, "opinion_version": 0,
     "result": {...}}

Failures keep the connection open and answer with a structured error
instead (``ok`` false)::

    {"error": {"code": "bad-engine-spec", "message": "unknown engine ..."},
     "id": 7, "ok": false, ...}

Ops
---
``ping``
    Liveness probe; result echoes an optional ``payload``.
``stats``
    Serving counters, per-engine pool accounting (including live shm
    segment names) and problem versions.
``top_k_seeds``
    Greedy selection: ``k`` (required), optional ``candidates``,
    ``lazy``, ``engine``.
``marginal_gain``
    Gains of extending the committed prefix ``seeds`` by each of
    ``candidates``; optional ``engine``.
``prefix_win_probability``
    Problem-2 winner check (and objective value) of ``seeds``; the
    "probability" is 1.0/0.0 for the exact engines, honestly named for
    estimator backends.  Optional ``engine``.
``apply_delta``
    Graph/opinion churn, mirroring the CLI's delta-journal step format:
    ``edges_added`` as ``[u, v, weight]`` rows, ``edges_removed`` as
    ``[u, v]`` rows, ``opinions_changed`` as ``[candidate, node, value]``
    rows, optional default ``candidate``.  Serialized through the query
    queue — a barrier; later responses carry the bumped versions.

Error codes
-----------
``bad-request``
    Malformed JSON line, missing/ill-typed parameter, out-of-range node.
``unknown-op``
    ``op`` is not one of :data:`OPS`.
``bad-engine-spec``
    ``engine`` failed :meth:`repro.core.engine.EngineSpec.parse`; the
    registry's message is carried verbatim.
``engine-not-loaded``
    A well-formed spec this server was not started with.
``overloaded``
    The server shed the request: the dispatch queue was at its
    ``queue_cap`` (or the server is draining for shutdown).  Shedding
    happens at admission — a shed request costs no engine work — and is
    counted in ``ServeStats.requests_shed``.  Clients should back off
    and retry.
``deadline-exceeded``
    The request's deadline (its own ``deadline_ms``, or the server's
    default request timeout) expired while it sat in the dispatch queue;
    it was dropped before reaching an engine.
``internal``
    Unexpected server-side failure (the exception text is included).

Any request may carry ``deadline_ms`` (a positive number): the time the
client is willing to wait for its response, measured from admission.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

ENCODING = "utf-8"

#: Hard cap on one request line; longer lines fail fast as bad-request
#: instead of buffering without bound.
MAX_LINE_BYTES = 8 * 1024 * 1024

OPS = (
    "ping",
    "stats",
    "top_k_seeds",
    "marginal_gain",
    "prefix_win_probability",
    "apply_delta",
)

ERROR_BAD_REQUEST = "bad-request"
ERROR_UNKNOWN_OP = "unknown-op"
ERROR_BAD_ENGINE_SPEC = "bad-engine-spec"
ERROR_ENGINE_NOT_LOADED = "engine-not-loaded"
ERROR_OVERLOADED = "overloaded"
ERROR_DEADLINE_EXCEEDED = "deadline-exceeded"
ERROR_INTERNAL = "internal"


class ProtocolError(Exception):
    """A request failure with a structured (code, message) payload."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass
class Request:
    """One parsed request: the echoed id, the op, and its parameters.

    ``deadline_ms`` is the envelope-level patience budget (see the
    module docstring); ``None`` defers to the server's default.
    """

    id: Any
    op: str
    params: dict
    deadline_ms: float | None = None


def encode(payload: dict) -> bytes:
    """One deterministic response/request line, newline-terminated.

    Sorted keys + compact separators + shortest-round-trip floats make
    the bytes a pure function of the content, which is what lets the
    coalescing tests assert byte-identity of coalesced vs serial
    responses.
    """
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode(ENCODING)


def decode_line(line: bytes) -> dict:
    """Parse one request line into a JSON object (or raise bad-request)."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            ERROR_BAD_REQUEST,
            f"request line exceeds {MAX_LINE_BYTES} bytes",
        )
    try:
        payload = json.loads(line.decode(ENCODING))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            ERROR_BAD_REQUEST, f"request is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            ERROR_BAD_REQUEST,
            f"request must be a JSON object, got {type(payload).__name__}",
        )
    return payload


def parse_request(payload: dict) -> Request:
    """Validate the envelope (op known, id JSON-scalar) of one request."""
    op = payload.get("op")
    if not isinstance(op, str):
        raise ProtocolError(ERROR_BAD_REQUEST, "request needs a string 'op'")
    if op not in OPS:
        raise ProtocolError(
            ERROR_UNKNOWN_OP, f"unknown op {op!r}; expected one of {OPS}"
        )
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (str, int, float)):
        raise ProtocolError(
            ERROR_BAD_REQUEST, "request 'id' must be a JSON scalar"
        )
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not deadline_ms > 0
        ):
            raise ProtocolError(
                ERROR_BAD_REQUEST, "'deadline_ms' must be a positive number"
            )
        deadline_ms = float(deadline_ms)
    params = {
        k: v for k, v in payload.items() if k not in ("op", "id", "deadline_ms")
    }
    return Request(
        id=request_id, op=op, params=params, deadline_ms=deadline_ms
    )


def ok_response(
    request_id: Any,
    result: Any,
    *,
    graph_version: int,
    opinion_version: int,
) -> dict:
    return {
        "id": request_id,
        "ok": True,
        "result": result,
        "graph_version": int(graph_version),
        "opinion_version": int(opinion_version),
    }


def error_response(
    request_id: Any,
    code: str,
    message: str,
    *,
    graph_version: int | None = None,
    opinion_version: int | None = None,
) -> dict:
    payload: dict[str, Any] = {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if graph_version is not None:
        payload["graph_version"] = int(graph_version)
    if opinion_version is not None:
        payload["opinion_version"] = int(opinion_version)
    return payload
