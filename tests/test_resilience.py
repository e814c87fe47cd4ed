"""End-to-end resilience tests: deterministic faults, identical answers.

The central contract: a failure injected through :mod:`repro.core.faults`
never changes *what* the system computes, only which counters tick while
it recovers.  Selections, evaluations and walk-store bytes under a
:class:`FaultPlan` must be identical to the fault-free run — severed tcp
hosts that re-shard and rejoin (also mid-commit-broadcast), corrupted
store blocks that quarantine and repair —
and the serve layer must degrade with *structured* errors (``overloaded``,
``deadline-exceeded``) instead of hangs or lost requests.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys

import numpy as np
import pytest

from repro.core import faults
from repro.core.engine import BatchedDMEngine, make_engine
from repro.core.faults import FAULT_IDS, FaultPlan, FaultSpec
from repro.core.greedy import greedy_engine
from repro.core.walk_store import WalkStore
from repro.serve.batcher import EngineHub
from repro.serve.protocol import (
    ERROR_DEADLINE_EXCEEDED,
    ERROR_OVERLOADED,
    Request,
)
from repro.serve.server import QueryServer
from tests.test_core_engine import make_problem
from tests.test_engine_net import _tcp_engine, start_worker


# ----------------------------------------------------------------------
# The fault plan itself: schema, fire-once semantics, replayability
# ----------------------------------------------------------------------
def test_fault_spec_validates_against_registry():
    with pytest.raises(ValueError, match="unknown fault id"):
        FaultSpec("made-up-fault")
    with pytest.raises(ValueError, match="context keys"):
        FaultSpec("net-sever-host", when={"shard": 1})
    # Registered ids accept any subset of their registered keys.
    for fault_id, keys in FAULT_IDS.items():
        FaultSpec(fault_id)
        if keys:
            FaultSpec(fault_id, when={keys[0]: 0})


def test_fault_plan_fires_each_spec_exactly_once():
    plan = FaultPlan(
        seed=3,
        faults=[
            FaultSpec("net-sever-host", when={"host": "b:2"}),
            FaultSpec("net-sever-host", when={"host": "b:2"}),
        ],
    )
    assert plan.maybe_fail("net-sever-host", host="a:1", round=0) is None
    assert plan.maybe_fail("net-sever-host", host="b:2", round=0) is not None
    assert plan.maybe_fail("net-sever-host", host="b:2", round=1) is not None
    # Both armed copies are spent now.
    assert plan.maybe_fail("net-sever-host", host="b:2", round=2) is None
    assert plan.fired == [
        ("net-sever-host", {"host": "b:2", "round": 0}),
        ("net-sever-host", {"host": "b:2", "round": 1}),
    ]
    with pytest.raises(ValueError, match="unregistered"):
        plan.maybe_fail("made-up-fault")


def test_fault_plan_json_round_trip(tmp_path):
    plan = FaultPlan(
        seed=11,
        faults=[
            FaultSpec("serve-delay", when={"batch": 0}, value=0.25),
            FaultSpec("store-corrupt-block", when={"candidate": 2, "block": 0}),
        ],
    )
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    loaded = FaultPlan.from_file(path)
    assert loaded.seed == plan.seed
    assert loaded.faults == plan.faults
    # The wire form is plain JSON a human can write by hand.
    payload = json.loads(path.read_text())
    assert payload["faults"][0]["value"] == 0.25


@pytest.mark.parametrize(
    "text, field",
    [
        ("{not json", "not valid JSON"),
        ("[1]", "must be a JSON object"),
        ('{"faults": 3}', "faults must be a list"),
        ('{"faults": [{"when": {}}]}', "faults[0] has no fault_id"),
        ('{"seed": "x"}', "seed must be an integer"),
        ('{"faults": [{"fault_id": "nope"}]}', "faults[0]: unknown fault id"),
        (None, "cannot read it"),
        ('{"faults": [{"fault_id": "serve-drop", "when": 5}]}', "faults[0].when"),
        ('{"seed": 2.5}', "seed must be an integer"),
        ('{"seed": true}', "seed must be an integer"),
        ('{"seed": -1}', "seed must be non-negative"),
        ('{"fault": []}', "unknown keys"),
        ('{"faults": [7]}', "faults[0] must be an object"),
        ('{"faults": [{"fault_id": 3}]}', "faults[0].fault_id"),
        ('{"faults": [{"fault_id": "serve-delay", "value": "1"}]}', "value"),
        ('{"faults": [{"fault_id": "serve-drop", "when": {"x": 1}}]}', "context"),
    ],
)
def test_malformed_fault_plan_is_one_value_error_naming_file_and_field(
    tmp_path, text, field
):
    """Every malformed plan file is refused with one ``ValueError`` that
    names the file and the bad field: no other exception type, and no
    silent truncation of a float or boolean seed."""
    path = tmp_path / "plan.json"
    if text is not None:  # None: the file does not exist
        path.write_text(text)
    with pytest.raises(ValueError) as info:
        FaultPlan.from_file(path)
    message = str(info.value)
    assert message.startswith(f"fault plan {path}: ")
    assert field in message
    assert "\n" not in message


def test_cli_malformed_fault_plan_exits_with_one_line(tmp_path):
    """``repro select --fault-plan`` on a malformed plan exits non-zero
    with the plan error on one line, never a traceback."""
    path = tmp_path / "plan.json"
    path.write_text('{"faults": [{"when": {"worker": 1}}]}')
    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "select",
            "--dataset", "yelp", "--users", "60", "--horizon", "4",
            "--method", "dm", "-k", "2", "--seed", "1",
            "--fault-plan", str(path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )  # fmt: skip
    assert result.returncode != 0
    assert "Traceback" not in result.stdout + result.stderr
    assert result.stderr.strip() == f"fault plan {path}: faults[0] has no fault_id"


def test_fault_plan_rng_and_corruption_are_deterministic(tmp_path):
    a = FaultPlan(seed=7).rng(1, 2, 3).integers(0, 1 << 30, size=4)
    b = FaultPlan(seed=7).rng(1, 2, 3).integers(0, 1 << 30, size=4)
    c = FaultPlan(seed=8).rng(1, 2, 3).integers(0, 1 << 30, size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    original = bytes(range(200))
    damaged = []
    for run in range(2):
        path = tmp_path / f"blob-{run}.bin"
        path.write_bytes(original)
        faults.corrupt_file(path, FaultPlan(seed=7).rng(0))
        damaged.append(path.read_bytes())
    assert damaged[0] != original  # guaranteed by the non-zero XOR masks
    assert damaged[0] == damaged[1]  # same plan, same damage


def test_injected_scopes_and_restores_the_active_plan():
    assert faults.active() is None
    assert faults.maybe_fail("serve-drop", request=0) is None  # no-op path
    outer = FaultPlan(seed=1)
    inner = FaultPlan(seed=2)
    with faults.injected(outer):
        assert faults.active() is outer
        with faults.injected(inner):
            assert faults.active() is inner
        assert faults.active() is outer
    assert faults.active() is None


# ----------------------------------------------------------------------
# tcp: planned host sever, re-shard, backoff rejoin
# ----------------------------------------------------------------------
def test_tcp_planned_sever_resharded_then_rejoined():
    """A planned socket sever re-shards the round to the survivor with
    byte-identical results; the backoff schedule then re-dials the lost
    host and restores it to its shard slot (``hosts_rejoined``)."""
    import time

    # The severed host serves two sequential connections: the original
    # and the rejoin dial.  The survivor only ever sees one.
    addr_a, thread_a = start_worker(connections=2)
    addr_b, thread_b = start_worker(connections=1)
    problem = make_problem(3, "cumulative", 8)
    sets = [np.array([i]) for i in range(13)]
    with make_engine("dm-batched", problem) as ref:
        expected = ref.evaluate(sets)
    plan = FaultPlan(
        seed=4, faults=[FaultSpec("net-sever-host", when={"host": addr_a})]
    )
    engine = _tcp_engine(problem, [addr_a, addr_b])
    try:
        with faults.injected(plan):
            # The sever fires before this round's dispatch; the chunk
            # re-shards to the survivor and the answer does not change.
            assert np.array_equal(expected, engine.evaluate(sets))
            assert plan.fired == [
                ("net-sever-host", {"host": addr_a, "round": 0})
            ]
        assert engine.stats.hosts_lost == 1
        assert engine.stats.chunks_resharded == 1
        assert engine.workers == 1
        # The rejoin schedule (decorrelated backoff, first delay 0.1s)
        # re-dials on a later round and restores the shard slot.
        deadline = time.monotonic() + 15.0
        while engine.stats.hosts_rejoined == 0:
            assert time.monotonic() < deadline, "host never rejoined"
            time.sleep(0.1)
            assert np.array_equal(expected, engine.evaluate(sets))
        assert engine.stats.hosts_rejoined == 1
        assert engine.workers == 2
        assert engine.pool_stats()["hosts_connected"] == [addr_a, addr_b]
        assert np.array_equal(expected, engine.evaluate(sets))
    finally:
        engine.close()
    thread_a.join(10)
    thread_b.join(10)
    assert not thread_a.is_alive() and not thread_b.is_alive()


def test_tcp_sever_during_commit_broadcast_stays_exact():
    """A sever landing on the commit-broadcast round: the survivor folds
    the commit, the rejoined host adopts the committed seed sequence from
    the journal, and every later marginal-gain round is byte-identical
    to dm-batched."""
    import time

    addr_a, thread_a = start_worker(connections=2)
    addr_b, thread_b = start_worker(connections=1)
    problem = make_problem(6, "cumulative", 3, n=12, r=2)
    reference = BatchedDMEngine(problem).open_session()
    engine = _tcp_engine(problem, [addr_a, addr_b])
    try:
        session = engine.open_session()
        candidates = np.arange(problem.n)
        np.testing.assert_array_equal(
            session.marginal_gains(candidates),
            reference.marginal_gains(candidates),
        )
        plan = FaultPlan(
            seed=2, faults=[FaultSpec("net-sever-host", when={"host": addr_a})]
        )
        with faults.injected(plan):
            session.commit(5)  # the sever fires on this broadcast round
        reference.commit(5)
        assert plan.fired and plan.fired[0][1]["host"] == addr_a
        assert engine.stats.hosts_lost == 1
        # Past the first backoff delay the next round re-dials host A,
        # which replays the journal (seeds only, lazy trajectory) and
        # must take the rebuild path for this commit.
        time.sleep(0.3)
        session.commit(9)
        reference.commit(9)
        assert engine.stats.hosts_rejoined == 1
        np.testing.assert_array_equal(
            session.marginal_gains(candidates),
            reference.marginal_gains(candidates),
        )
        assert session.value == pytest.approx(reference.value, abs=1e-10)
        assert all(w.dense_column_steps > 0 for w in engine.worker_stats)
    finally:
        engine.close()
    thread_a.join(10)
    thread_b.join(10)
    assert not thread_a.is_alive() and not thread_b.is_alive()


# ----------------------------------------------------------------------
# Walk store: corruption detected, quarantined, repaired byte-identically
# ----------------------------------------------------------------------
def _store_problem():
    return make_problem(2, "cumulative", 6, n=10, r=2)


def test_corrupt_block_on_disk_repairs_on_warm_open(tmp_path):
    """Bytes damaged *between* runs: the warm re-open's checksum pass
    quarantines the block and regenerates it from the store identity —
    ``blocks_generated == blocks_repaired`` and identical walk bytes."""
    problem = _store_problem()
    store_dir = tmp_path / "store"
    cold = WalkStore(problem.state, problem.horizon, seed=3, store_dir=store_dir)
    view = cold.per_node_view(0, 6)
    pristine = (
        np.array(view.walks).tobytes(),
        np.array(view.lengths).tobytes(),
    )
    assert cold.stats.blocks_generated > 0
    victim = sorted(store_dir.glob("*.walks.npy"))[0]
    faults.corrupt_file(victim, np.random.default_rng(0))
    warm = WalkStore(problem.state, problem.horizon, seed=3, store_dir=store_dir)
    view = warm.per_node_view(0, 6)
    assert np.array(view.walks).tobytes() == pristine[0]
    assert np.array(view.lengths).tobytes() == pristine[1]
    assert warm.stats.blocks_quarantined == 1
    assert warm.stats.blocks_repaired == 1
    # Repair is the only generation work a warm open should do.
    assert warm.stats.blocks_generated == warm.stats.blocks_repaired
    quarantined = list(store_dir.glob("*.quarantined"))
    assert quarantined, "damaged bytes must be preserved for forensics"


def test_store_corrupt_block_fault_plan_repairs_transparently(tmp_path):
    problem = _store_problem()
    store_dir = tmp_path / "store"
    cold = WalkStore(problem.state, problem.horizon, seed=3, store_dir=store_dir)
    pristine = np.array(cold.per_node_view(0, 6).walks).tobytes()
    plan = FaultPlan(
        seed=9,
        faults=[
            FaultSpec("store-corrupt-block", when={"candidate": 0, "block": 0})
        ],
    )
    with faults.injected(plan):
        warm = WalkStore(
            problem.state, problem.horizon, seed=3, store_dir=store_dir
        )
        assert np.array(warm.per_node_view(0, 6).walks).tobytes() == pristine
        assert warm.stats.blocks_quarantined == 1
        assert warm.stats.blocks_repaired == 1
    assert len(plan.fired) == 1
    assert plan.fired[0][0] == "store-corrupt-block"
    assert plan.fired[0][1]["candidate"] == 0


def test_rw_store_selection_identical_under_corruption_fault(tmp_path):
    """The acceptance bar for ``rw-store:mmap``: a faulted selection —
    block corrupted under the engine mid-run — picks identical seeds with
    identical gains, because the repair reproduces the recorded bytes."""
    problem = _store_problem()
    spec = f"rw-store:2:mmap={tmp_path / 'store'}"
    with make_engine(spec, problem, rng=11) as engine:
        baseline = greedy_engine(engine, 3)
    plan = FaultPlan(seed=6, faults=[FaultSpec("store-corrupt-block")])
    with faults.injected(plan):
        with make_engine(spec, problem, rng=11) as engine:
            faulted = greedy_engine(engine, 3)
            assert engine.store.stats.blocks_quarantined == 1
            assert engine.store.stats.blocks_repaired == 1
    assert plan.fired and plan.fired[0][0] == "store-corrupt-block"
    assert faulted.seeds.tolist() == baseline.seeds.tolist()
    np.testing.assert_array_equal(faulted.gains, baseline.gains)


# ----------------------------------------------------------------------
# Serve layer: shed, expire, drain — structured errors, no hangs
# ----------------------------------------------------------------------
def _request(rid, op="ping", deadline_ms=None, **params):
    return Request(id=rid, op=op, params=params, deadline_ms=deadline_ms)


def test_serve_queue_cap_sheds_with_structured_overloaded():
    """Admissions past ``queue_cap`` answer ``overloaded`` immediately —
    in admission time, without touching the dispatcher."""

    async def main():
        hub = EngineHub(make_problem(1, "cumulative", 2, n=10, r=2), ["dm"], rng=7)
        server = QueryServer(hub, queue_cap=2)
        loop = asyncio.get_running_loop()
        futures = []
        for i in range(4):  # dispatcher not started: the queue only fills
            future = loop.create_future()
            server._admit(_request(i), future)
            futures.append(future)
        assert not futures[0].done() and not futures[1].done()
        for future in futures[2:]:
            payload = future.result()  # already resolved, synchronously
            assert payload["ok"] is False
            assert payload["error"]["code"] == ERROR_OVERLOADED
        assert server.stats.requests_shed == 2
        await server.aclose()
        # Post-close admissions shed too (shutdown, not queue pressure).
        late = loop.create_future()
        server._admit(_request(9), late)
        assert late.result()["error"]["code"] == ERROR_OVERLOADED
        assert server.stats.requests_shed == 3

    asyncio.run(main())


def test_serve_drop_fault_sheds_the_planned_arrival():
    """The ``serve-drop`` fault point sheds exactly the planned arrival
    index over a real socket, and the connection keeps serving."""
    from repro.serve.client import ServeClient

    async def main():
        hub = EngineHub(
            make_problem(1, "cumulative", 2, n=10, r=2), ["dm"], rng=7
        )
        server = QueryServer(hub)
        host, port = await server.start()
        client = await ServeClient.connect(host, port)
        try:
            answers = [await client.request("ping") for _ in range(3)]
        finally:
            await client.close()
            await server.aclose()
        return answers, server.stats.requests_shed

    plan = FaultPlan(seed=1, faults=[FaultSpec("serve-drop", when={"request": 1})])
    with faults.injected(plan):
        answers, shed = asyncio.run(main())
    assert plan.fired == [("serve-drop", {"request": 1})]
    assert shed == 1
    assert [a["ok"] for a in answers] == [True, False, True]
    assert answers[1]["error"]["code"] == ERROR_OVERLOADED


def test_serve_deadline_expires_in_queue_before_engine_work():
    """A request whose deadline lapses while queued answers
    ``deadline-exceeded`` from the dispatcher without an engine round."""

    async def main():
        hub = EngineHub(make_problem(1, "cumulative", 2, n=10, r=2), ["dm"], rng=7)
        server = QueryServer(hub, request_timeout_ms=10_000.0)
        loop = asyncio.get_running_loop()
        doomed = loop.create_future()
        healthy = loop.create_future()
        # Admit before the dispatcher exists: the tiny per-request
        # deadline lapses deterministically during the sleep; the second
        # request rides the server-wide 10s default and survives.
        server._admit(_request(0, deadline_ms=5.0), doomed)
        server._admit(_request(1), healthy)
        await asyncio.sleep(0.05)
        host, port = await server.start()
        del host, port
        expired = await doomed
        answered = await healthy
        await server.aclose()
        return expired, answered, server.stats.deadlines_exceeded

    expired, answered, count = asyncio.run(main())
    assert expired["ok"] is False
    assert expired["error"]["code"] == ERROR_DEADLINE_EXCEEDED
    assert answered["ok"] is True
    assert count == 1


def test_serve_graceful_drain_answers_everything_admitted():
    """``aclose(drain=True)`` answers every request admitted before the
    close — the first-SIGTERM path — then sheds late arrivals."""

    async def main():
        hub = EngineHub(make_problem(1, "cumulative", 2, n=10, r=2), ["dm"], rng=7)
        server = QueryServer(hub)
        loop = asyncio.get_running_loop()
        futures = []
        for i in range(3):
            future = loop.create_future()
            server._admit(_request(i), future)
            futures.append(future)
        server._dispatcher = asyncio.create_task(server._dispatch_loop())
        await server.aclose(drain=True)
        return [future.result() for future in futures]

    answers = asyncio.run(main())
    assert [a["ok"] for a in answers] == [True, True, True]
    assert sorted(a["id"] for a in answers) == [0, 1, 2]


# ----------------------------------------------------------------------
# CLI: --fault-plan wires a plan file into a real selection run
# ----------------------------------------------------------------------
def test_cli_fault_plan_selection_matches_fault_free(tmp_path, loopback_hosts):
    """``repro select --fault-plan`` with a host-sever schedule exits 0
    and prints the same seeds line as the fault-free ``dm`` run."""
    hosts = loopback_hosts[:2]
    plan = FaultPlan(
        seed=1, faults=[FaultSpec("net-sever-host", when={"host": hosts[0]})]
    )
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(plan.to_json())

    def select(engine, extra=()):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "select",
                "--dataset", "yelp", "--users", "60", "--horizon", "4",
                "--method", "dm", "--score", "cumulative",
                "-k", "4", "--seed", "1", "--engine", engine,
                *extra,
            ],
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        seeds = [
            line
            for line in result.stdout.splitlines()
            if line.startswith("seeds:")
        ]
        assert seeds, result.stdout
        return seeds[0]

    expected = select("dm")
    faulted = select(
        f"dm-mp:tcp={','.join(hosts)}", ("--fault-plan", str(plan_path))
    )
    assert faulted == expected
