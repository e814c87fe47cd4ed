"""Engine benchmark: multi-host TCP sharding parity and degradation.

Part 1 — dm-mp:tcp fan-out.  One exhaustive greedy round (all ``n``
single-seed extensions, plurality score) through
:class:`~repro.core.engine.BatchedDMEngine` and through a
:class:`~repro.core.engine_mp.HostPool` sharding over two loopback
``net-worker`` hosts.  Gains must match the in-process engine **exactly**
(byte-identical, the transport moves final float64 bytes); the scaling
metric is deterministic, not a timer: the critical path of the fanned-out
dense phase is the largest per-host ``dense_column_steps`` share.  On a
single machine
the TCP loopback cannot beat in-process evaluation on wall-clock — the
counters are the cross-machine ceiling.

Part 2 — graceful degradation.  The same round with one host killed
mid-run: the lost host's chunk re-shards to the survivor, the results
stay byte-identical, and the deterministic degradation counters
(``hosts_lost``, ``chunks_resharded``) land in the gated JSON so a
regression in the re-shard path (double-dispatch, dropped chunks) fails
the perf-trajectory gate.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_net.py``.
Set ``REPRO_BENCH_TINY=1`` for the CI smoke variant (tiny size, parity +
degradation assertions, counters gated via ``BENCH_net.tiny.json``).
"""

import numpy as np

from benchmarks.conftest import BENCH_SEED, BENCH_TINY, run_once, start_net_worker
from repro.core.engine import BatchedDMEngine, EngineSpec
from repro.datasets.twitter import twitter_social_distancing
from repro.eval.reporting import format_series
from repro.utils.timing import Timer
from repro.voting.scores import PluralityScore

TINY = BENCH_TINY
NET_SIZE = 200 if TINY else 800
HORIZON = 20
HOSTS = 2


def _net_problem(n: int):
    dataset = twitter_social_distancing(n=n, rng=BENCH_SEED, horizon=HORIZON)
    problem = dataset.problem(PluralityScore())
    problem.others_by_user()  # shared inputs, warmed outside the timers
    problem.target_trajectory()
    return problem


def _net_round(n: int) -> dict[str, float]:
    problem = _net_problem(n)
    candidates = np.arange(n)
    batched = BatchedDMEngine(problem)
    with Timer() as ref_timer:
        reference = batched.marginal_gains((), candidates)
    total_dense = batched.stats.dense_column_steps

    started = [start_net_worker() for _ in range(HOSTS)]
    hosts = tuple(addr for addr, _ in started)
    spec = EngineSpec(name="dm-mp", hosts=hosts)
    with spec.build(problem, min_fanout=1) as engine:
        engine.ping()  # connect + handshake outside the timed region
        with Timer() as timer:
            gains = engine.marginal_gains((), candidates)
        assert np.array_equal(gains, reference), "tcp gains must be exact"
        critical = max(w.dense_column_steps for w in engine.worker_stats)
        ipc = int(engine.stats.ipc_bytes)
    for _, thread in started:
        thread.join(30)

    # Degradation: same fan-out, one host killed after the first round.
    started = [start_net_worker() for _ in range(HOSTS)]
    spec = EngineSpec(
        name="dm-mp", hosts=tuple(a for a, _ in started)
    )
    sets = [np.array([i]) for i in candidates]
    with spec.build(problem, min_fanout=1) as engine:
        before = engine.evaluate(sets)
        engine._handles[0].conn.close()  # the "host" dies mid-run
        after = engine.evaluate(sets)
        assert np.array_equal(before, after), "re-sharded results must match"
        hosts_lost = int(engine.stats.hosts_lost)
        resharded = int(engine.stats.chunks_resharded)
        survivors = int(engine.workers)
    for _, thread in started:
        thread.join(30)
    assert hosts_lost == 1 and survivors == HOSTS - 1

    return {
        "total_dense": int(total_dense),
        "critical_dense": int(critical),
        "cp_speedup": total_dense / max(critical, 1),
        "batched_s": ref_timer.elapsed,
        "net_s": timer.elapsed,
        "ipc_bytes": ipc,
        "hosts_lost": hosts_lost,
        "chunks_resharded": resharded,
    }


def test_net_fanout_parity_and_degradation(benchmark, save_result, save_bench_json):
    row = run_once(benchmark, lambda: _net_round(NET_SIZE))
    series = {
        "batched dense col-steps": [row["total_dense"]],
        f"critical dense col-steps ({HOSTS} hosts)": [row["critical_dense"]],
        "critical-path speedup x": [round(row["cp_speedup"], 3)],
        "batched wall s": [round(row["batched_s"], 4)],
        "tcp wall s (loopback)": [round(row["net_s"], 4)],
        "ipc bytes (informational)": [row["ipc_bytes"]],
        "hosts lost (forced)": [row["hosts_lost"]],
        "chunks re-sharded": [row["chunks_resharded"]],
    }
    save_result("net_fanout", format_series("n", [NET_SIZE], series))
    # Gated counters are deterministic work/degradation counts only —
    # ipc_bytes stays informational (pickle framing varies across Python
    # versions), wall times are never gated.
    save_bench_json(
        "net",
        {
            "cp_speedup_2h_x": {
                "value": round(row["cp_speedup"], 6),
                "higher_is_better": True,
            },
            "critical_dense_col_steps_2h": {
                "value": float(row["critical_dense"]),
                "higher_is_better": False,
            },
            "chunks_resharded_after_loss": {
                "value": float(row["chunks_resharded"]),
                "higher_is_better": False,
            },
        },
    )
