"""Resilience benchmark: one fixed chaos schedule, identical answers.

One deterministic :class:`~repro.core.faults.FaultPlan` per layer — a
``dm-mp`` tcp host severed mid-round (re-shard + backoff rejoin), a
walk-store block
corrupted on its first load (quarantine + in-place repair), and a burst
of serve admissions against a bounded queue with a planned drop — runs
the production recovery paths end to end.  The headline assertion is the
byte-identity contract: every faulted selection must match its
fault-free reference exactly (``dm`` for the exact engines, the same
store fault-free for ``rw-store:mmap``).

The gated metrics are the recovery counters themselves: the schedule is
fixed, so ``hosts_lost``/``hosts_rejoined``/``chunks_resharded``,
``blocks_quarantined``/``blocks_repaired`` and ``requests_shed`` are
exact constants on every host.  Drift in any of them is a real change to
the recovery paths — spurious losses, a rejoin or repair that stopped
happening, shedding that over- or under-fires — not noise.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py``.
Set ``REPRO_BENCH_TINY=1`` for the CI chaos smoke variant (tiny sizes,
same assertions, counters gated via ``BENCH_resilience.tiny.json``).
"""

import asyncio

import numpy as np

from benchmarks.conftest import BENCH_SEED, BENCH_TINY, run_once, start_net_worker
from repro.core import faults
from repro.core.engine import BatchedDMEngine, make_engine
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.greedy import greedy_engine
from repro.datasets.yelp import yelp_like
from repro.eval.reporting import format_series
from repro.serve.batcher import EngineHub
from repro.serve.protocol import Request
from repro.serve.server import QueryServer
from repro.voting.scores import CumulativeScore

TINY = BENCH_TINY
N = 120 if TINY else 400
HORIZON = 6
K = 3
#: Walk-store shard count: an accepted spelling of ``rw-store``.
SHARDS = 2
#: The fixed chaos schedule: one planned failure per layer.
# Round 2 is the third marginal-gains fan-out (a commit sends nothing,
# so every pool round is a fan-out), so the severed host dies holding a
# chunk and the re-shard path runs, not just the loss bookkeeping.
SEVER = FaultSpec("net-sever-host", when={"round": 2})
CORRUPT = FaultSpec("store-corrupt-block", when={"block": 0})
DROP = FaultSpec("serve-drop", when={"request": 0})
#: Serve burst: queue bound and admissions beyond it.
QUEUE_CAP = 2
BURST = 5


def _build_problem():
    dataset = yelp_like(n=N, r=3, rng=BENCH_SEED, horizon=HORIZON)
    return dataset.problem(CumulativeScore())


def _serve_burst() -> dict[str, int]:
    """Bounded-queue admission burst + one planned drop, then a drain.

    Everything is deterministic: the dispatcher is not running while the
    burst is admitted, so exactly ``BURST - QUEUE_CAP`` admissions
    overflow, the planned ``serve-drop`` sheds one more, and the drain
    answers precisely what was queued.
    """
    plan = FaultPlan(seed=BENCH_SEED, faults=[DROP])

    async def main():
        hub = EngineHub(_build_problem(), ["dm"], rng=7)
        server = QueryServer(hub, queue_cap=QUEUE_CAP)
        loop = asyncio.get_running_loop()
        futures = []
        for i in range(BURST):
            future = loop.create_future()
            server._admit(Request(id=i, op="ping", params={}), future)
            futures.append(future)
        server._dispatcher = asyncio.create_task(server._dispatch_loop())
        await server.aclose(drain=True)
        answers = [future.result() for future in futures]
        return {
            "requests_shed": int(server.stats.requests_shed),
            "answered": sum(1 for a in answers if a["ok"]),
        }

    with faults.injected(plan):
        counters = asyncio.run(main())
    assert plan.fired == [("serve-drop", {"request": 0})]
    return counters


def _chaos_round() -> dict[str, float]:
    problem = _build_problem()
    reference = greedy_engine(BatchedDMEngine(problem), K, lazy=False)
    expected = reference.seeds.tolist()
    counters: dict[str, float] = {"selection_mismatches": 0}

    # dm-mp tcp: planned sever, re-shard to the survivor, backoff rejoin.
    import time

    addr_a, thread_a = start_net_worker(connections=2)
    addr_b, thread_b = start_net_worker(connections=1)
    plan = FaultPlan(seed=BENCH_SEED, faults=[SEVER])
    engine = make_engine(f"dm-mp:tcp={addr_a},{addr_b}", problem, min_fanout=1)
    try:
        with faults.injected(plan):
            result = greedy_engine(engine, K, lazy=False)
        if result.seeds.tolist() != expected:
            counters["selection_mismatches"] += 1
        assert plan.fired, "the planned sever never fired"
        sets = [np.array([i]) for i in range(min(8, N))]
        check = BatchedDMEngine(problem).evaluate(sets)
        deadline = time.monotonic() + 30.0
        while engine.stats.hosts_rejoined == 0:
            assert time.monotonic() < deadline, "severed host never rejoined"
            time.sleep(0.1)
            assert np.array_equal(check, engine.evaluate(sets))
        counters["hosts_lost"] = int(engine.stats.hosts_lost)
        counters["hosts_rejoined"] = int(engine.stats.hosts_rejoined)
        counters["chunks_resharded"] = int(engine.stats.chunks_resharded)
    finally:
        engine.close()
    thread_a.join(30)
    thread_b.join(30)

    # rw-store:mmap: corrupt the first loaded block of a warm store; the
    # repair must reproduce the fault-free selection bit for bit.
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        spec = f"rw-store:{SHARDS}:mmap={tmp}/store"
        with make_engine(spec, problem, rng=11) as engine:
            store_expected = greedy_engine(engine, K).seeds.tolist()
        plan = FaultPlan(seed=BENCH_SEED, faults=[CORRUPT])
        with faults.injected(plan):
            with make_engine(spec, problem, rng=11) as engine:
                store_result = greedy_engine(engine, K).seeds.tolist()
                counters["blocks_quarantined"] = int(
                    engine.store.stats.blocks_quarantined
                )
                counters["blocks_repaired"] = int(
                    engine.store.stats.blocks_repaired
                )
        assert plan.fired, "the planned corruption never fired"
        if store_result != store_expected:
            counters["selection_mismatches"] += 1

    counters.update(_serve_burst())
    return counters


def test_resilience_chaos_schedule(benchmark, save_result, save_bench_json):
    row = run_once(benchmark, _chaos_round)
    # The whole point: two faulted selections, zero divergence.
    assert row["selection_mismatches"] == 0
    assert row["hosts_lost"] == 1 and row["hosts_rejoined"] == 1
    assert row["chunks_resharded"] >= 1
    assert row["blocks_quarantined"] == 1 and row["blocks_repaired"] == 1
    # One planned drop + the overflow past the queue bound; the drop
    # frees the slot its request would have taken, so the shed total is
    # exactly the burst's excess and the drain answers a full queue.
    assert row["requests_shed"] == BURST - QUEUE_CAP
    assert row["answered"] == QUEUE_CAP

    series = {
        "hosts lost / rejoined": [
            f"{row['hosts_lost']} / {row['hosts_rejoined']}"
        ],
        "chunks re-sharded": [row["chunks_resharded"]],
        "blocks quarantined / repaired": [
            f"{row['blocks_quarantined']} / {row['blocks_repaired']}"
        ],
        "serve requests shed": [row["requests_shed"]],
        "faulted selection mismatches": [row["selection_mismatches"]],
    }
    save_result("resilience", format_series("n", [N], series))
    save_bench_json(
        "resilience",
        {
            "selection_mismatches": {
                "value": float(row["selection_mismatches"]),
                "higher_is_better": False,
            },
            "hosts_rejoined": {
                "value": float(row["hosts_rejoined"]),
                "higher_is_better": True,
            },
            "chunks_resharded_after_sever": {
                "value": float(row["chunks_resharded"]),
                "higher_is_better": False,
            },
            "blocks_repaired": {
                "value": float(row["blocks_repaired"]),
                "higher_is_better": True,
            },
            "requests_shed_at_cap": {
                "value": float(row["requests_shed"]),
                "higher_is_better": False,
            },
        },
    )
