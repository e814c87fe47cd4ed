"""Tests for the multi-host engine (repro.core.engine_mp, engine_net).

The central contracts: ``dm-mp:tcp=...`` selections are byte-identical to
the in-process batched engine at every host count, a host lost mid-round
degrades gracefully (its chunks re-shard to survivors, counted in
``EngineStats``, results still byte-identical), deltas reach the hosts
bit for bit, and the structured :class:`EngineSpec` API round-trips the
whole spec grammar — every local ``dm-mp`` spelling is ``dm-batched``.
"""

from __future__ import annotations

import re
import socket
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import (
    ENGINE_NAMES,
    EngineSpec,
    make_engine,
    spec_is_exact_dm,
)
from repro.core.engine_mp import HostPool
from repro.core.engine_net import FramedSocket
from repro.core.greedy import greedy_engine
from repro.eval.harness import select_seeds
from tests.conftest import start_worker
from tests.test_core_engine import make_problem


# ----------------------------------------------------------------------
# Thread-hosted net workers (2 sockets pretending to be 2 hosts)
# ----------------------------------------------------------------------
@pytest.fixture
def two_hosts():
    """Two single-connection loopback workers; yields their addresses."""
    a, ta = start_worker()
    b, tb = start_worker()
    yield [a, b]
    ta.join(10)
    tb.join(10)
    assert not ta.is_alive() and not tb.is_alive()


def _tcp_engine(problem, hosts, **kwargs):
    kwargs.setdefault("min_fanout", 1)  # fan every round out, even tiny ones
    return make_engine(f"dm-mp:tcp={','.join(hosts)}", problem, **kwargs)


# ----------------------------------------------------------------------
# Byte-identical evaluation and sessions at hosts 1 and 2
# ----------------------------------------------------------------------
@pytest.mark.parametrize("host_count", [1, 2])
def test_tcp_evaluate_matches_batched_at_one_and_two_hosts(host_count):
    problem = make_problem(3, "cumulative", 12)
    sets = [np.array([i, (i + 3) % 13]) for i in range(13)]
    with make_engine("dm-batched", problem) as ref:
        expected = ref.evaluate(sets)
    started = [start_worker() for _ in range(host_count)]
    hosts = [addr for addr, _ in started]
    with _tcp_engine(problem, hosts) as engine:
        got = engine.evaluate(sets)
        assert np.array_equal(expected, got)
        assert engine.stats.ipc_bytes > 0
        assert engine.stats.hosts_lost == 0
        stats = engine.pool_stats()
        assert stats["backend"] == "HostPool"
        assert stats["hosts_connected"] == hosts
    for _, thread in started:
        thread.join(10)
        assert not thread.is_alive()


def test_tcp_two_host_parity_and_rows(two_hosts):
    problem = make_problem(5, "plurality", 10)
    sets = [np.array([i]) for i in range(13)]
    with make_engine("dm-batched", problem) as ref:
        expected = ref.evaluate(sets)
    with _tcp_engine(problem, two_hosts) as engine:
        assert np.array_equal(expected, engine.evaluate(sets))
        assert engine.workers == 2
        # ipc accounting counts payload bytes only, both directions
        assert engine.stats.ipc_bytes > 0


def test_tcp_session_commits_match_batched(two_hosts):
    problem = make_problem(7, "cumulative", 8)
    cands = np.arange(13)
    with make_engine("dm-batched", problem) as ref, _tcp_engine(
        problem, two_hosts
    ) as engine:
        s_ref = ref.open_session()
        s_net = engine.open_session()
        for _ in range(3):
            g_ref = s_ref.marginal_gains(cands)
            g_net = s_net.marginal_gains(cands)
            assert np.array_equal(g_ref, g_net)
            # A narrower round answers its candidates with the same bits.
            assert np.array_equal(s_net.marginal_gains(cands[:6]), g_ref[:6])
            seed = int(np.argmax(g_ref))
            assert s_ref.commit(seed) == s_net.commit(seed)


def test_tcp_selection_matches_dm(two_hosts):
    # Copeland certifies no gain bound, so every round is one call over all
    # remaining candidates: wide enough to fan out to both hosts, which the
    # fixture needs to see served.
    problem = make_problem(11, "copeland", 10)
    expected = select_seeds("dm", problem, 4, rng=np.random.default_rng(0))
    got = select_seeds(
        "dm",
        problem,
        4,
        rng=np.random.default_rng(0),
        engine=EngineSpec(name="dm-mp", hosts=tuple(two_hosts)),
    )
    assert list(map(int, expected)) == list(map(int, got))


def test_tcp_pruned_greedy_matches_batched(two_hosts):
    """The bound-pruned round loop over tcp hosts, every chunk fanned out,
    picks the in-process engine's seeds, gain bytes and objective, and
    evaluates the same candidates."""
    problem = make_problem(13, "plurality", 10)
    with make_engine("dm-batched", problem) as ref:
        expected = greedy_engine(ref, 4)
    with _tcp_engine(problem, two_hosts) as engine:
        got = greedy_engine(engine, 4)
        assert engine.stats.ipc_bytes > 0
    assert got.seeds.tolist() == expected.seeds.tolist()
    assert got.gains.tobytes() == expected.gains.tobytes()
    assert got.objective == expected.objective
    assert got.evaluations == expected.evaluations < expected.full_scan


def test_net_worker_host_engine_uses_every_core(monkeypatch):
    """A net worker builds a plain dm-batched engine from the hello: the
    host splits wide chunks over its own cores, like any local engine."""
    import pickle

    from repro.core import engine_mp
    from repro.core.engine import BatchedDMEngine
    from repro.core.engine_net import _net_worker_connection

    problem = make_problem(2, "cumulative", 9)
    built = []
    monkeypatch.setattr(
        engine_mp, "_worker_loop", lambda conn, problem, engine: built.append(engine)
    )

    class HelloConn:
        def recv_bytes(self):
            return pickle.dumps(("hello", problem, {"batch_rows": 8}))

        def send_bytes(self, data):
            pass

    _net_worker_connection(HelloConn())
    (engine,) = built
    assert type(engine) is BatchedDMEngine
    assert engine.batch_rows == 8
    assert engine._threads == BatchedDMEngine(problem)._threads


def test_tcp_opinion_delta_then_selection_matches_dm():
    """Regression: an opinion delta made every host reply ``err`` — the
    host's problem, unpickled from the handshake bytes, held a read-only
    opinion matrix.  After the delta a tcp selection must equal ``dm``
    on the post-delta problem byte for byte."""
    started = [start_worker() for _ in range(2)]
    hosts = [addr for addr, _ in started]
    problem = make_problem(5, "plurality", 6)
    reference = make_problem(5, "plurality", 6)
    delta = dict(opinions_changed=[(0, 4, 0.95), (1, 2, 0.05)])
    reference.apply_delta(**delta)
    expected = select_seeds("dm", reference, 3, rng=np.random.default_rng(0))
    with _tcp_engine(problem, hosts) as engine:
        engine.ping()  # connected pool: the delta must be broadcast
        ipc = engine.stats.ipc_bytes
        engine.apply_delta(problem.apply_delta(**delta))
        assert engine.stats.ipc_bytes > ipc
        got = select_seeds(
            "dm", problem, 3, rng=np.random.default_rng(0), engine=engine
        )
        assert engine.stats.hosts_lost == 0
        assert all(w.dense_column_steps > 0 for w in engine.worker_stats)
    assert list(map(int, got)) == list(map(int, expected))
    for _, thread in started:
        thread.join(10)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# Graceful degradation: lost hosts re-shard to survivors
# ----------------------------------------------------------------------
def test_lost_host_reshards_chunks_to_survivors(two_hosts):
    problem = make_problem(3, "cumulative", 12)
    sets = [np.array([i, (i + 3) % 13]) for i in range(13)]
    with make_engine("dm-batched", problem) as ref:
        expected = ref.evaluate(sets)
    engine = _tcp_engine(problem, two_hosts)
    try:
        assert np.array_equal(expected, engine.evaluate(sets))
        # Kill host 0's socket out from under the pool: the next round's
        # send fails, the chunk re-dispatches to the survivor, and the
        # concatenated result is still byte-identical.
        engine._handles[0].conn.close()
        assert np.array_equal(expected, engine.evaluate(sets))
        assert engine.stats.hosts_lost == 1
        assert engine.stats.chunks_resharded >= 1
        assert engine.workers == 1
        stats = engine.pool_stats()
        assert stats["hosts_lost"] == 1
        assert stats["hosts_connected"] == [two_hosts[1]]
        # Later rounds shard across the survivor only, still exact.
        assert np.array_equal(expected, engine.evaluate(sets))
    finally:
        engine.close()


def test_pool_reused_after_close_shards_across_every_host():
    """Regression: a host lost before ``close()`` must not leave the pool
    at reduced width — reconnecting re-derives the shard count from the
    connected hosts, so both hosts get work again."""
    # Each host serves the original connection and the reconnect.
    started = [start_worker(connections=2) for _ in range(2)]
    hosts = [addr for addr, _ in started]
    problem = make_problem(3, "cumulative", 12)
    sets = [np.array([i, (i + 3) % 13]) for i in range(13)]
    with make_engine("dm-batched", problem) as ref:
        expected = ref.evaluate(sets)
    engine = _tcp_engine(problem, hosts)
    try:
        assert np.array_equal(expected, engine.evaluate(sets))
        engine._handles[0].conn.close()
        assert np.array_equal(expected, engine.evaluate(sets))
        assert engine.workers == 1
        engine.close()
        work = [w.dense_column_steps + w.sparse_steps for w in engine.worker_stats]
        assert np.array_equal(expected, engine.evaluate(sets))
        assert engine.workers == 2
        assert engine.pool_stats()["hosts_connected"] == hosts
        after = [w.dense_column_steps + w.sparse_steps for w in engine.worker_stats]
        assert all(a > b for a, b in zip(after, work)), (work, after)
    finally:
        engine.close()
    for _, thread in started:
        thread.join(10)
        assert not thread.is_alive()


def test_lost_host_during_session_still_matches(two_hosts):
    problem = make_problem(9, "plurality", 8)
    cands = np.arange(13)
    with make_engine("dm-batched", problem) as ref, _tcp_engine(
        problem, two_hosts
    ) as engine:
        s_ref = ref.open_session()
        s_net = engine.open_session()
        g_ref = s_ref.marginal_gains(cands)
        assert np.array_equal(g_ref, s_net.marginal_gains(cands))
        seed = int(np.argmax(g_ref))
        s_ref.commit(seed)
        s_net.commit(seed)
        engine._handles[1].conn.close()
        # Mid-session loss: the survivor rebuilds the committed
        # trajectory from the (base, seeds) pair the fan-out carries.
        assert np.array_equal(
            s_ref.marginal_gains(cands), s_net.marginal_gains(cands)
        )
        assert engine.stats.hosts_lost == 1


def test_losing_every_host_raises():
    addr, thread = start_worker()
    problem = make_problem(1, "cumulative", 6)
    sets = [np.array([i]) for i in range(13)]
    engine = _tcp_engine(problem, [addr])
    engine.evaluate(sets)
    engine._handles[0].conn.close()
    with pytest.raises(RuntimeError, match="host"):
        engine.evaluate(sets)
    engine.close()
    thread.join(10)


def test_connect_timeout_names_the_host():
    # Bind (but never listen on) a port to guarantee refused connections.
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    blocker.close()
    problem = make_problem(0, "cumulative", 4)
    engine = HostPool(
        problem, hosts=[f"127.0.0.1:{port}"], connect_timeout=0.3, min_fanout=1
    )
    with pytest.raises(RuntimeError, match=f"127.0.0.1:{port}"):
        engine.evaluate([np.array([i]) for i in range(13)])


def test_host_pool_validates_hosts():
    problem = make_problem(0, "cumulative", 4)
    with pytest.raises(ValueError, match="at least one host"):
        HostPool(problem, hosts=[])
    with pytest.raises(ValueError, match="host"):
        HostPool(problem, hosts=["no-port-here"])


@pytest.mark.parametrize("bad", ["127.0.0.1:0", "127.0.0.1:70000", "127.0.0.1"])
def test_host_pool_rejects_bad_ports_at_construction(bad):
    """The EngineSpec validator guards HostPool too: a bad port fails at
    construction instead of dialing until ``connect_timeout``."""
    problem = make_problem(0, "cumulative", 4)
    with pytest.raises(ValueError, match=r"port in \[1, 65535\]"):
        HostPool(problem, hosts=[bad])


# ----------------------------------------------------------------------
# FramedSocket framing
# ----------------------------------------------------------------------
def test_framed_socket_round_trips_messages():
    a, b = socket.socketpair()
    left, right = FramedSocket(a), FramedSocket(b)
    payloads = [b"x", b"", b"y" * 100_000]
    for payload in payloads:
        left.send_bytes(payload)
    for payload in payloads:
        assert right.recv_bytes() == payload
    left.send_bytes(b"z")
    left.close()
    with pytest.raises(EOFError):
        right.recv_bytes()  # drains "z" header+payload... then EOF
        right.recv_bytes()
    right.close()


# ----------------------------------------------------------------------
# EngineSpec: structured parse / canonical / build
# ----------------------------------------------------------------------
#: Every local ``dm-mp`` spelling: bare, counted, and the retired
#: transports' suffixes.  All of them are ``dm-batched``.
LOCAL_DM_MP_SPELLINGS = (
    "dm-mp",
    "dm-mp:2",
    "dm-mp:pipe",
    "dm-mp:shm",
    "dm-mp:2:pipe",
    "dm-mp:2:shm",
    "dm-mp:64:shm",
)


def test_engine_spec_parses_the_full_grammar():
    spec = EngineSpec.parse("dm-mp:tcp=alpha:7001,beta:7002")
    assert spec.name == "dm-mp"
    assert spec.hosts == ("alpha:7001", "beta:7002")
    assert spec.kwargs() == {"hosts": ("alpha:7001", "beta:7002")}
    for spelling in LOCAL_DM_MP_SPELLINGS:
        local = EngineSpec.parse(spelling)
        assert (local.name, local.kwargs()) == ("dm-batched", {}), spelling
    # mmap paths keep their colons verbatim, to the end of the spec
    spec = EngineSpec.parse("rw-store:4:mmap=/tmp/a:b/c")
    assert spec.store_dir == "/tmp/a:b/c"


def test_engine_spec_canonical_drops_default_spellings():
    for spelling in LOCAL_DM_MP_SPELLINGS:
        assert EngineSpec.parse(spelling).canonical() == "dm-batched"
    assert str(EngineSpec.parse("dm-mp:2:shm")) == "dm-batched"
    assert (
        EngineSpec.parse("dm-mp:tcp=a:1,b:2").canonical() == "dm-mp:tcp=a:1,b:2"
    )
    assert EngineSpec.parse("rw-store:4").canonical() == "rw-store"
    assert EngineSpec.parse("rw-store:2:mmap=/x").canonical() == "rw-store:mmap=/x"


@pytest.mark.parametrize(
    "bad",
    [
        "dm-mp:tcp=",
        "dm-mp:2:tcp=a:1",
        "dm-mp:tcp=no-port",
        "dm-mp:tcp=:7001",
        "dm-mp:tcp=a:0",
        "dm-mp:tcp=a:99999",
        "dm-mp:pipe:2",
        "rw-store:tcp=a:1",
        "dm:pipe",
    ],
)
def test_engine_spec_rejects_malformed_tcp_forms(bad):
    with pytest.raises(ValueError) as excinfo:
        EngineSpec.parse(bad)
    # The single registry error names every engine, like the CLI tests pin.
    for name in ENGINE_NAMES:
        assert name in str(excinfo.value)


def test_engine_spec_constructor_validates_fields():
    with pytest.raises(ValueError):
        EngineSpec(name="warp-drive")
    with pytest.raises(ValueError):
        EngineSpec(name="dm", hosts=("a:1",))  # hosts only on dm-mp
    with pytest.raises(ValueError):
        EngineSpec(name="dm-mp", hosts=("no-port",))
    with pytest.raises(ValueError):
        EngineSpec(name="dm-batched", store_dir="/x")  # store_dir: rw-store
    with pytest.raises(ValueError):
        EngineSpec(name="rw-store", store_dir="")
    # A dm-mp spec without hosts is dm-batched.
    assert EngineSpec(name="dm-mp") == EngineSpec(name="dm-batched")


def test_engine_spec_parse_passthrough_and_exactness():
    spec = EngineSpec.parse("dm-mp:2")
    assert EngineSpec.parse(spec) is spec
    assert (spec.name, spec.kwargs()) == ("dm-batched", {})
    assert spec_is_exact_dm(spec)
    assert spec_is_exact_dm("dm-mp:tcp=a:1")
    assert not spec_is_exact_dm(EngineSpec.parse("rw"))


def test_make_engine_accepts_engine_spec_instances():
    problem = make_problem(0, "cumulative", 4)
    spec = EngineSpec.parse("dm-batched")
    with make_engine(spec, problem) as engine:
        assert type(engine).__name__ == "BatchedDMEngine"


_HOST_CHARS = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=".-"
    ),
    min_size=1,
    max_size=8,
)


@st.composite
def canonical_specs(draw):
    """Canonical spellings across the full grammar, including host lists
    and colon-bearing mmap paths (a canonical ``dm-mp`` names hosts)."""
    name = draw(st.sampled_from(ENGINE_NAMES))
    parts = [name]
    if name == "dm-mp":
        hosts = draw(
            st.lists(
                st.tuples(_HOST_CHARS, st.integers(1, 65535)),
                min_size=1,
                max_size=4,
            )
        )
        parts.append("tcp=" + ",".join(f"{h}:{p}" for h, p in hosts))
    elif name == "rw-store":
        if draw(st.booleans()):
            path = draw(
                st.text(
                    alphabet=st.characters(
                        whitelist_categories=("Ll", "Nd"),
                        whitelist_characters="/:._-",
                    ),
                    min_size=1,
                    max_size=20,
                )
            )
            parts.append(f"mmap={path}")
    return ":".join(parts)


@st.composite
def accepted_spellings(draw):
    """``(spelling, canonical)`` pairs: a canonical spec dressed in the
    accepted spellings that parse away — counts, ``:pipe``/``:shm`` and a
    hostless ``dm-mp``."""
    name = draw(st.sampled_from(["dm-mp", "rw-store"]))
    count = draw(st.one_of(st.none(), st.integers(1, 64)))
    parts = [name] + ([] if count is None else [str(count)])
    if name == "dm-mp":
        suffix = draw(st.sampled_from([None, "pipe", "shm"]))
        return ":".join(parts + ([suffix] if suffix else [])), "dm-batched"
    return ":".join(parts), "rw-store"


@settings(max_examples=200, deadline=None)
@given(spec=canonical_specs())
def test_engine_spec_canonical_round_trips(spec):
    parsed = EngineSpec.parse(spec)
    assert parsed.canonical() == spec
    # canonical() is a fixed point, and parse is total on its own output
    assert EngineSpec.parse(parsed.canonical()).canonical() == spec
    # kwargs() carries every field the spec sets
    assert EngineSpec(parsed.name, **parsed.kwargs()) == parsed


@settings(max_examples=100, deadline=None)
@given(pair=accepted_spellings())
def test_accepted_spellings_parse_to_their_canonical_spec(pair):
    spelling, canonical = pair
    parsed = EngineSpec.parse(spelling)
    assert parsed == EngineSpec.parse(canonical)
    assert parsed.canonical() == canonical


# ----------------------------------------------------------------------
# EngineHub: canonical keying dedups equivalent spellings
# ----------------------------------------------------------------------
def test_engine_hub_dedups_equivalent_spec_spellings():
    from repro.core.engine import BatchedDMEngine
    from repro.serve.batcher import EngineHub

    problem = make_problem(6, "cumulative", 6)
    hub = EngineHub(problem, [*LOCAL_DM_MP_SPELLINGS, "dm-batched"])
    try:
        # Regression: literal-string keying warmed one engine per
        # spelling; every local dm-mp spelling shares the one warm engine.
        assert hub.specs == ("dm-batched",)
        key, engine = hub.resolve("dm-mp:2:shm")
        assert key == "dm-batched"
        assert type(engine) is BatchedDMEngine
        for spelling in LOCAL_DM_MP_SPELLINGS:
            assert hub.resolve(spelling)[1] is engine
        assert hub.resolve(EngineSpec.parse("dm-mp:2"))[1] is engine
        assert hub.default_spec == "dm-batched"
    finally:
        hub.close()


def test_engine_hub_shares_one_store_across_rw_store_counts():
    """Regression: ``rw-store:2`` and ``rw-store:3`` over one shared store
    raised a shard-count conflict; both spell the same engine."""
    from repro.core.walk_store import store_for_problem
    from repro.serve.batcher import EngineHub

    problem = make_problem(6, "cumulative", 6)
    store = store_for_problem(problem)
    hub = EngineHub(problem, ["rw-store:2", "rw-store:3"], store=store)
    try:
        assert hub.specs == ("rw-store",)
        assert hub.resolve("rw-store:3")[1].store is store
    finally:
        hub.close()


def test_engine_hub_warms_a_net_engine(two_hosts):
    from repro.serve.batcher import EngineHub

    problem = make_problem(8, "cumulative", 6)
    spec = f"dm-mp:tcp={','.join(two_hosts)}"
    hub = EngineHub(problem, [spec, "dm-batched"])
    try:
        hub.warm()  # pings the hosts, starting the pool
        key, engine = hub.resolve(spec)
        assert key == spec
        assert engine.pool_stats()["hosts_connected"] == list(two_hosts)
        described = hub.describe()["engines"][spec]["pool"]
        assert described["started"] is True
        assert described["hosts_connected"] == list(two_hosts)
    finally:
        hub.close()


# ----------------------------------------------------------------------
# 2 processes pretending to be 2 hosts: the CLI integration path
# ----------------------------------------------------------------------
def _spawn_cli_worker(extra=()):
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "net-worker",
            "--port",
            "0",
            "--connections",
            "1",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.stdout is not None
    deadline = time.time() + 120
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.match(r"net-worker listening on (\S+?):(\d+)", line)
        if match:
            return proc, f"{match.group(1)}:{match.group(2)}"
    proc.kill()
    pytest.fail("net worker never printed its readiness line")


def _cli_select(engine_spec):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "select",
            "--dataset",
            "yelp",
            "--users",
            "60",
            "--horizon",
            "4",
            "--method",
            "dm",
            # A full-scan score: a bound-pruned cumulative round is one
            # column, which never fans out, so no host would be served.
            "--score",
            "copeland",
            "-k",
            "4",
            "--seed",
            "1",
            "--engine",
            engine_spec,
        ],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    seeds = [
        line for line in result.stdout.splitlines() if line.startswith("seeds:")
    ]
    assert seeds, result.stdout
    return seeds[0]


def test_cli_two_worker_processes_match_dm_selection():
    workers = [_spawn_cli_worker() for _ in range(2)]
    procs = [w[0] for w in workers]
    hosts = ",".join(w[1] for w in workers)
    try:
        expected = _cli_select("dm")
        got = _cli_select(f"dm-mp:tcp={hosts}")
        assert expected == got
        for proc in procs:
            assert proc.wait(timeout=60) == 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()


def test_cli_selection_survives_a_killed_worker_process():
    workers = [_spawn_cli_worker() for _ in range(2)]
    procs = [w[0] for w in workers]
    hosts = [w[1] for w in workers]
    try:
        problem = make_problem(13, "cumulative", 8)
        sets = [np.array([i, (i + 2) % 13]) for i in range(13)]
        with make_engine("dm-batched", problem) as ref:
            expected = ref.evaluate(sets)
        with _tcp_engine(problem, hosts) as engine:
            assert np.array_equal(expected, engine.evaluate(sets))
            procs[0].kill()
            procs[0].wait(timeout=30)
            # The dead process delivers EOF mid-round: its chunk
            # re-shards to the survivor, bitwise the same scores.
            assert np.array_equal(expected, engine.evaluate(sets))
            assert engine.stats.hosts_lost == 1
            assert engine.stats.chunks_resharded >= 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
