"""Tests for the serving layer (repro.serve).

The central contract: coalescing is *answer-preserving byte for byte*.
A request's encoded response line must be identical whether it was
answered alone or merged into a shared engine round — across backends
(``dm``, ``dm-batched`` and the local ``dm-mp`` spellings that build it),
with deltas interleaved mid-stream, and over the real socket server.  On
top of that: structured protocol errors (a malformed engine spec answers
with the registry's own message instead of dropping the connection;
non-finite numbers, unknown parameters and ill-typed flags are
``bad-request``), the deterministic coalescing counters, and a clean
SIGTERM shutdown.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineSpec
from repro.core.problem import FJVoteProblem
from repro.serve.batcher import CoalescingBatcher, EngineHub
from repro.serve.protocol import (
    ERROR_BAD_ENGINE_SPEC,
    ERROR_BAD_REQUEST,
    ERROR_ENGINE_NOT_LOADED,
    ERROR_UNKNOWN_OP,
    OP_PARAMS,
    OPS,
    ProtocolError,
    Request,
    decode_line,
    encode,
    error_response,
    parse_request,
)
from repro.voting.scores import CumulativeScore, PluralityScore
from tests.conftest import random_instance

SCORES = {"cumulative": CumulativeScore, "plurality": PluralityScore}

#: One spec per coalescing code path (per-set fallback, vectorized
#: extension rows) plus two local ``dm-mp`` spellings, which build the
#: vectorized engine.
COALESCING_SPECS = ("dm", "dm-batched", "dm-mp:2", "dm-mp:2:shm")


def make_problem(seed=0, score="cumulative", horizon=4, *, n=13, r=3):
    return FJVoteProblem(
        random_instance(n=n, r=r, seed=seed), 0, horizon, SCORES[score]()
    )


def make_request(rid, op, **params):
    return Request(id=rid, op=op, params=params)


def run_serial(spec, requests, *, seed=0, score="cumulative"):
    """Fresh hub, one request per batch: the no-coalescing reference."""
    hub = EngineHub(make_problem(seed, score), [spec], rng=7)
    try:
        batcher = CoalescingBatcher(hub)
        lines = []
        for request in requests:
            (response,) = batcher.execute([request])
            lines.append(encode(response))
        return lines, batcher.stats
    finally:
        hub.close()


def run_coalesced(spec, requests, *, seed=0, score="cumulative"):
    """Fresh hub, every request in one batch: maximal coalescing."""
    hub = EngineHub(make_problem(seed, score), [spec], rng=7)
    try:
        batcher = CoalescingBatcher(hub)
        responses = batcher.execute(list(requests))
        return [encode(r) for r in responses], batcher.stats
    finally:
        hub.close()


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------
def test_encode_is_deterministic():
    line = encode({"b": 1, "a": [1.5, None], "c": {"y": True, "x": "s"}})
    assert line == b'{"a":[1.5,null],"b":1,"c":{"x":"s","y":true}}\n'
    # Key order of the input dict must not matter.
    assert line == encode({"c": {"x": "s", "y": True}, "a": [1.5, None], "b": 1})


def test_decode_line_rejects_junk():
    with pytest.raises(ProtocolError) as err:
        decode_line(b"{not json\n")
    assert err.value.code == ERROR_BAD_REQUEST
    with pytest.raises(ProtocolError) as err:
        decode_line(b"[1, 2]\n")
    assert err.value.code == ERROR_BAD_REQUEST


def test_parse_request_envelope():
    request = parse_request({"id": 3, "op": "ping", "payload": "x"})
    assert (request.id, request.op, request.params) == (3, "ping", {"payload": "x"})
    with pytest.raises(ProtocolError) as err:
        parse_request({"op": "frobnicate"})
    assert err.value.code == ERROR_UNKNOWN_OP
    with pytest.raises(ProtocolError) as err:
        parse_request({"id": [1], "op": "ping"})
    assert err.value.code == ERROR_BAD_REQUEST
    with pytest.raises(ProtocolError) as err:
        parse_request({"id": 1})
    assert err.value.code == ERROR_BAD_REQUEST


# ----------------------------------------------------------------------
# Coalescing determinism: byte-identical to serial, across backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", COALESCING_SPECS)
@pytest.mark.parametrize("score", sorted(SCORES))
def test_coalesced_matches_serial_bytes(spec, score):
    """N concurrent queries answered in one batch must produce the exact
    response bytes of N serial batches — gains sharing a prefix (with
    overlapping candidate lists), win probes, and a top-k request."""
    requests = [
        make_request(0, "marginal_gain", seeds=[3], candidates=[1]),
        make_request(1, "marginal_gain", seeds=[3], candidates=[2, 4]),
        make_request(2, "marginal_gain", seeds=[3], candidates=[4, 1]),
        make_request(3, "marginal_gain", seeds=[], candidates=[5]),
        make_request(4, "prefix_win_probability", seeds=[1, 3]),
        make_request(5, "prefix_win_probability", seeds=[3, 1, 1]),
        make_request(6, "prefix_win_probability", seeds=[6]),
        make_request(7, "top_k_seeds", k=2),
    ]
    serial_lines, serial_stats = run_serial(spec, requests, score=score)
    coalesced_lines, stats = run_coalesced(spec, requests, score=score)
    assert coalesced_lines == serial_lines
    # The shared-prefix gains merged (3 requests, union of 4 candidates),
    # as did the win probes (3 requests, 2 distinct sets after dedup).
    assert stats.engine_rounds == 4
    assert stats.rounds_coalesced == 2
    assert stats.requests_coalesced == 6
    assert stats.evolution_sets_saved >= 2
    # Serial never coalesces anything.
    assert serial_stats.rounds_coalesced == 0
    assert serial_stats.engine_rounds == 8


@pytest.mark.parametrize("spec", COALESCING_SPECS)
def test_delta_mid_batch_is_a_barrier(spec):
    """A delta inside a batch splits it: queries before answer against the
    old graph_version, queries after against the bumped one — and both
    halves stay byte-identical to the serial replay."""
    query = {"seeds": [3], "candidates": [1, 5]}
    requests = [
        make_request(0, "marginal_gain", **query),
        make_request(1, "apply_delta", edges_added=[[0, 5, 0.4]]),
        make_request(2, "marginal_gain", **query),
    ]
    serial_lines, _ = run_serial(spec, requests)
    coalesced_lines, stats = run_coalesced(spec, requests)
    assert coalesced_lines == serial_lines
    assert stats.deltas_applied == 1
    before = json.loads(coalesced_lines[0])
    report = json.loads(coalesced_lines[1])
    after = json.loads(coalesced_lines[2])
    assert all(r["ok"] for r in (before, report, after))
    assert after["graph_version"] == before["graph_version"] + 1
    assert report["graph_version"] == after["graph_version"]
    # The structural edge actually moved the answer.
    assert after["result"]["gains"] != before["result"]["gains"]


def test_coalesced_gains_independent_of_batch_composition():
    """The same request must get the same bytes whatever *else* happens
    to share its round (the batch-stability contract end to end)."""
    probe = make_request(9, "marginal_gain", seeds=[2], candidates=[4, 7])
    alone, _ = run_coalesced("dm-mp:2:shm", [probe])
    crowded, _ = run_coalesced(
        "dm-mp:2:shm",
        [
            make_request(0, "marginal_gain", seeds=[2], candidates=[1]),
            make_request(1, "marginal_gain", seeds=[2], candidates=[5, 6, 8]),
            probe,
            make_request(3, "marginal_gain", seeds=[2], candidates=[7]),
        ],
    )
    assert crowded[2] == alone[0]


# ----------------------------------------------------------------------
# Structured errors
# ----------------------------------------------------------------------
def test_bad_engine_spec_is_a_structured_error():
    """A malformed spec answers with EngineSpec.parse's own message as a
    protocol error — not a dropped connection, not a server crash."""
    hub = EngineHub(make_problem(), ["dm-batched"])
    try:
        batcher = CoalescingBatcher(hub)
        for bad_spec in ("dm-mp:0", "warp-drive", "rw-store:"):
            with pytest.raises(ValueError) as registry_err:
                EngineSpec.parse(bad_spec)
            (response,) = batcher.execute(
                [make_request(0, "marginal_gain", seeds=[], candidates=[1],
                              engine=bad_spec)]
            )
            assert response["ok"] is False
            assert response["error"]["code"] == ERROR_BAD_ENGINE_SPEC
            assert response["error"]["message"] == str(registry_err.value)
        # Well-formed but not loaded by this server.
        (response,) = batcher.execute(
            [make_request(1, "prefix_win_probability", seeds=[1], engine="dm")]
        )
        assert response["error"]["code"] == ERROR_ENGINE_NOT_LOADED
        assert "dm-batched" in response["error"]["message"]
        assert batcher.stats.errors == 4
    finally:
        hub.close()


def test_parameter_validation_errors():
    hub = EngineHub(make_problem(), ["dm-batched"])
    try:
        batcher = CoalescingBatcher(hub)
        cases = [
            make_request(0, "marginal_gain", seeds=[], candidates=[]),
            make_request(1, "marginal_gain", seeds=[1], candidates=[99]),
            make_request(2, "marginal_gain", seeds="3", candidates=[1]),
            make_request(3, "marginal_gain", seeds=[1.5], candidates=[1]),
            make_request(4, "top_k_seeds", k=0),
            make_request(5, "top_k_seeds", k="two"),
            make_request(6, "apply_delta", edges_added=[[1, 2]]),
            make_request(7, "apply_delta", candidate=99),
            make_request(8, "prefix_win_probability", seeds=[1], engine=7),
        ]
        responses = batcher.execute(cases)
        for response in responses:
            assert response["ok"] is False
            assert response["error"]["code"] == ERROR_BAD_REQUEST
        # Failed requests never mutate: versions unchanged.
        assert hub.problem.graph_version == 0
    finally:
        hub.close()


@pytest.mark.parametrize("weight", ["Infinity", "NaN"])
def test_non_finite_delta_weight_is_a_bad_request(weight):
    """``Infinity``/``NaN`` are not JSON, though Python's decoder parses
    them as floats; an edge weight of either would renormalize its column
    to NaN and poison every later answer."""
    hub = EngineHub(make_problem(), ["dm-batched"], rng=7)
    try:
        batcher = CoalescingBatcher(hub)
        gains = make_request(0, "marginal_gain", seeds=[1], candidates=[2, 3])
        (before,) = batcher.execute([gains])
        line = '{"id":1,"op":"apply_delta","edges_added":[[0,1,%s]]}\n' % weight
        # Strict JSON: the constant never gets past the line decoder ...
        with pytest.raises(ProtocolError) as err:
            decode_line(line.encode())
        assert err.value.code == ERROR_BAD_REQUEST
        # ... and the batcher's own weight check still guards in-process
        # callers that build requests directly.
        request = make_request(
            1, "apply_delta", edges_added=[[0, 1, float(weight)]]
        )
        (response,) = batcher.execute([request])
        assert response["ok"] is False
        assert response["error"]["code"] == ERROR_BAD_REQUEST
        assert hub.problem.graph_version == 0
        assert batcher.execute([gains]) == [before]
    finally:
        hub.close()


def answer_line(batcher, line: bytes) -> bytes:
    """One request line through the whole in-process path — decode,
    envelope check, batcher — as the socket server runs it."""
    request_id = None
    try:
        payload = decode_line(line)
        request_id = payload.get("id")
        request = parse_request(payload)
    except ProtocolError as exc:
        return encode(error_response(request_id, exc.code, exc.message))
    (response,) = batcher.execute([request])
    return encode(response)


def strict_json(line: bytes) -> dict:
    """Parse a reply line, refusing the non-JSON constants."""

    def reject(name):
        raise ValueError(f"reply line carries {name}")

    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize(
    "line, names",
    [
        # Non-finite numbers: the constants Python's decoder accepts and a
        # float literal that overflows to infinity.
        (b'{"op":"ping","id":NaN}', "NaN"),
        (b'{"op":"ping","deadline_ms":Infinity}', "Infinity"),
        (b'{"op":"ping","payload":[-Infinity]}', "-Infinity"),
        (b'{"op":"ping","deadline_ms":1e999}', "1e999"),
        # Unknown parameters: a misspelt key must not fall back to a default.
        (b'{"op":"marginal_gain","base":"x","candidates":[2]}', "'base'"),
        (b'{"op":"top_k_seeds","k":2,"lazzy":true}', "'lazzy'"),
        (b'{"op":"apply_delta","opinion_changed":[[0,1,0.5]]}', "'opinion_changed'"),
        (b'{"op":"stats","engine":"dm-batched"}', "'engine'"),
        (b'{"op":"ping","seeds":[1]}', "'seeds'"),
        # Ill-typed flags: "no" is truthy, 0 is not a boolean.
        (b'{"op":"top_k_seeds","k":2,"lazy":"no"}', "'lazy'"),
        (b'{"op":"top_k_seeds","k":2,"lazy":0}', "'lazy'"),
    ],
)
def test_request_line_validation(line, names):
    """Each malformed line answers a structured ``bad-request`` naming
    what is wrong, in a reply line that is itself strict JSON, and costs
    no engine work."""
    hub = EngineHub(make_problem(), ["dm-batched"], rng=7)
    try:
        batcher = CoalescingBatcher(hub)
        reply = strict_json(answer_line(batcher, line))
        assert reply["ok"] is False
        assert reply["error"]["code"] == ERROR_BAD_REQUEST
        assert names in reply["error"]["message"]
        assert batcher.stats.engine_rounds == 0
    finally:
        hub.close()


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 16),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=6,
)
#: Values that often pass validation, so the success paths get exercised.
_PLAUSIBLE = st.one_of(
    st.lists(st.integers(0, 12), max_size=4),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 12), st.floats(0, 1)).map(list),
        max_size=2,
    ),
    st.integers(1, 3),
    st.booleans(),
    st.just("dm-batched"),
)
_STRAY_KEYS = st.sampled_from(["id", "deadline_ms", "base", "seed", "op"])


@st.composite
def _requests(draw):
    """A JSON object that is mostly a plausible request for its op (so
    the success paths run), with stray keys and arbitrary values mixed in."""
    op = draw(st.sampled_from([*OPS, "frobnicate", None]))
    keys = sorted(OP_PARAMS.get(op, ()))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    if draw(st.integers(0, 4)) == 0:
        chosen.append(draw(_STRAY_KEYS))
    obj = {} if op is None else {"op": op}
    for key in chosen:
        value = draw(st.one_of(_PLAUSIBLE, _PLAUSIBLE, _JSON_VALUES))
        obj[key] = value
    if op == "marginal_gain" and "candidates" not in obj:
        obj["candidates"] = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))
    if op == "top_k_seeds" and "k" not in obj:
        obj["k"] = draw(st.integers(1, 3))
    return obj


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(objects=st.lists(_requests(), min_size=1, max_size=6))
def test_arbitrary_json_objects_answer_structured_or_serial(objects):
    """Arbitrary JSON objects through the whole in-process path: every
    reply is strict JSON and either a structured error or byte-equal to
    the serial answer (the same engine on its own hub, one request per
    batch).  ``stats`` replies describe each hub's own counters, so only
    their shape is compared."""
    lines = [encode(obj) for obj in objects]
    hub = EngineHub(make_problem(), ["dm-batched"], rng=7)
    serial_hub = EngineHub(make_problem(), ["dm-batched"], rng=7)
    try:
        batcher = CoalescingBatcher(hub)
        serial = CoalescingBatcher(serial_hub)
        # The coalesced path: every line that parses shares one batch.
        replies: list[bytes | None] = [None] * len(lines)
        parsed = []
        for i, line in enumerate(lines):
            try:
                parsed.append((i, parse_request(decode_line(line))))
            except ProtocolError:
                replies[i] = answer_line(batcher, line)
        responses = batcher.execute([request for _, request in parsed])
        for (i, _), response in zip(parsed, responses):
            replies[i] = encode(response)
        for obj, line, reply in zip(objects, lines, replies):
            assert reply is not None
            expected = answer_line(serial, line)
            answer = strict_json(reply)
            if not answer["ok"]:
                assert set(answer["error"]) == {"code", "message"}
                assert answer["error"]["code"] in (
                    ERROR_BAD_REQUEST,
                    ERROR_BAD_ENGINE_SPEC,
                    ERROR_ENGINE_NOT_LOADED,
                    ERROR_UNKNOWN_OP,
                )
            elif obj["op"] == "stats":
                assert strict_json(expected)["ok"]
            else:
                assert reply == expected
    finally:
        hub.close()
        serial_hub.close()


# ----------------------------------------------------------------------
# Caches and counters
# ----------------------------------------------------------------------
def test_topk_cache_and_delta_invalidation():
    hub = EngineHub(make_problem(), ["dm-batched"])
    try:
        batcher = CoalescingBatcher(hub)
        first, second = (
            batcher.execute([make_request(i, "top_k_seeds", k=2)])[0]
            for i in range(2)
        )
        assert first["result"] == second["result"]
        assert batcher.stats.topk_cache_hits == 1
        assert batcher.stats.engine_rounds == 1
        # Duplicates inside one batch compute once.
        third = batcher.execute(
            [make_request(3, "top_k_seeds", k=3),
             make_request(4, "top_k_seeds", k=3)]
        )
        assert third[0]["result"] == third[1]["result"]
        assert batcher.stats.engine_rounds == 2
        # A delta invalidates the cache: same query recomputes.
        batcher.execute([make_request(5, "apply_delta",
                                      edges_added=[[0, 1, 0.5]])])
        batcher.execute([make_request(6, "top_k_seeds", k=2)])
        assert batcher.stats.topk_cache_hits == 1
        assert batcher.stats.engine_rounds == 3
    finally:
        hub.close()


def test_session_reuse_across_batches():
    """The warm per-prefix session carries across batches: a second batch
    on the same prefix opens no new session (LRU hit)."""
    hub = EngineHub(make_problem(), ["dm-batched"])
    try:
        batcher = CoalescingBatcher(hub)
        batcher.execute([make_request(0, "marginal_gain", seeds=[3],
                                      candidates=[1])])
        session = next(iter(hub._sessions.values()))
        batcher.execute([make_request(1, "marginal_gain", seeds=[3],
                                      candidates=[2])])
        assert next(iter(hub._sessions.values())) is session
        assert len(hub._sessions) == 1
    finally:
        hub.close()


# ----------------------------------------------------------------------
# The socket server
# ----------------------------------------------------------------------
def _asyncio_run(coro):
    return asyncio.run(coro)


def test_server_concurrent_clients_match_serial_bytes():
    """Concurrent clients over real sockets get byte-identical response
    lines to the serial in-process reference (ids aligned), and malformed
    lines answer a structured error without killing the connection."""
    from repro.serve.client import ServeClient
    from repro.serve.server import QueryServer

    queries = [
        (0, {"op": "marginal_gain", "seeds": [3], "candidates": [1]}),
        (1, {"op": "marginal_gain", "seeds": [3], "candidates": [2, 4]}),
        (2, {"op": "prefix_win_probability", "seeds": [1, 3]}),
        (3, {"op": "top_k_seeds", "k": 2}),
    ]
    reference, _ = run_serial(
        "dm-batched",
        [make_request(rid, payload["op"],
                      **{k: v for k, v in payload.items() if k != "op"})
         for rid, payload in queries],
    )

    async def main():
        hub = EngineHub(make_problem(), ["dm-batched"], rng=7)
        server = QueryServer(hub)
        host, port = await server.start()
        clients = [await ServeClient.connect(host, port) for _ in queries]
        try:
            outcomes = await asyncio.gather(
                *(
                    client.request_raw(
                        payload["op"],
                        **{k: v for k, v in payload.items() if k != "op"},
                    )
                    for client, (_, payload) in zip(clients, queries)
                )
            )
            # Client ids all start at 0 per connection; align with the
            # reference by re-stamping the reference ids to 0.
            for (payload, line), expected in zip(outcomes, reference):
                expected_payload = json.loads(expected)
                expected_payload["id"] = 0
                assert line == encode(expected_payload)
                assert payload["ok"]
            # Malformed line: structured error, connection survives.
            raw_client = clients[0]
            raw_client._writer.write(b"this is not json\n")
            await raw_client._writer.drain()
            follow_up = await raw_client.request("ping")
            assert follow_up["ok"]
        finally:
            for client in clients:
                await client.close()
            await server.aclose()

    _asyncio_run(main())


def test_server_rejects_unknown_op_and_keeps_serving():
    from repro.serve.client import request_once
    from repro.serve.server import QueryServer

    async def main():
        hub = EngineHub(make_problem(), ["dm-batched"])
        server = QueryServer(hub)
        host, port = await server.start()
        try:
            loop = asyncio.get_running_loop()
            bad = await loop.run_in_executor(
                None, lambda: request_once(host, port, "frobnicate")
            )
            assert bad["ok"] is False
            assert bad["error"]["code"] == ERROR_UNKNOWN_OP
            good = await loop.run_in_executor(
                None, lambda: request_once(host, port, "ping")
            )
            assert good["ok"]
        finally:
            await server.aclose()

    _asyncio_run(main())


# ----------------------------------------------------------------------
# Clean shutdown
# ----------------------------------------------------------------------
def _spawn_cli_server(tmp_path=None, extra=()):
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--dataset", "yelp", "--users", "60", "--horizon", "4",
        "--score", "cumulative", "--engine", "dm-mp:2:shm", "--seed", "5",
        *extra,
    ]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    port = None
    deadline = time.time() + 120
    assert proc.stdout is not None
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.match(r"serving on \S+?:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        proc.kill()
        pytest.fail("server never printed its readiness line")
    return proc, port


def test_sigterm_shutdown_drains_and_exits_cleanly():
    """The signal-routed shutdown path: a server started on a local
    dm-mp spelling answers, then SIGTERM drains it to exit code 0 with
    the final counters line."""
    from repro.serve.client import request_once

    proc, port = _spawn_cli_server()
    try:
        stats = request_once("127.0.0.1", port, "stats")
        assert stats["ok"]
        assert list(stats["result"]["engines"]) == ["dm-batched"]
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "serve:" in out  # final counters line still printed
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)
