"""Serving benchmark: request coalescing over warm engines.

Part 1 — coalescing effectiveness, deterministic and gated.  A fixed
workload of 8 concurrent clients — marginal-gain requests sharing a
committed prefix (overlapping candidate lists) plus win/value probes —
is executed twice through :class:`~repro.serve.batcher.CoalescingBatcher`
on fresh hubs: serially (one request per batch, the no-coalescing
reference) and as one coalesced batch.  Responses must be **byte
identical** (the encoded protocol lines), on the per-set ``dm`` backend
and the vectorized ``dm-batched``.  The gated metrics are the deterministic counters:
``round_reduction_x`` (serial engine rounds / coalesced engine rounds —
the acceptance floor is >= 2x with 8 clients), ``requests_per_round``,
and ``evolution_sets_saved`` (candidate-union sharing).

Part 2 — warm-store serving start.  A hub over ``rw-store:2:mmap=DIR``
is built cold (walk blocks generated and spilled), closed, and rebuilt
warm: the second start must regenerate **zero** walk blocks
(``warm_blocks_generated``, gated at 0) and reuse every shard
(``warm_blocks_reused``).

Part 3 — socket latency, honest and unasserted.  The real CLI server
(``repro serve`` on ``dm-batched``), driven by the load generator over 8
pipelined connections vs 1 serial connection; p50/p99 latency and QPS go
to ``benchmarks/results/`` for trend reading (wall-clock on a shared CI
runner is noise, so nothing is asserted).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_serving.py``.
Set ``REPRO_BENCH_TINY=1`` for the CI smoke variant (smaller problem,
fewer bursts, same assertions and gated counters).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

from benchmarks.conftest import BENCH_SEED, BENCH_TINY
from repro.datasets.yelp import yelp_like
from repro.serve.batcher import CoalescingBatcher, EngineHub
from repro.serve.protocol import Request, encode
from repro.voting.scores import CumulativeScore

TINY = BENCH_TINY
N_USERS = 150 if TINY else 600
HORIZON = 6 if TINY else 10
CLIENTS = 8
#: Byte-identity is asserted on every backend; the gated counters come
#: from ``dm-batched`` (identical on all of them by construction).
SPECS = ("dm", "dm-batched")
MIN_ROUND_REDUCTION = 2.0
SOCKET_REQUESTS = 32 if TINY else 128
#: Bursts per mode row: one burst lasts tens of milliseconds, so a row
#: reports the median burst and the QPS spread.
SOCKET_BURSTS = 2 if TINY else 5
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _problem():
    dataset = yelp_like(n=N_USERS, rng=BENCH_SEED, horizon=HORIZON)
    problem = dataset.problem(CumulativeScore())
    problem.others_by_user()
    return problem


def _workload() -> list[Request]:
    """8 concurrent clients: gains sharing the prefix (overlapping
    candidate lists, so the union is smaller than the sum) + win probes."""
    requests = []
    for i in range(CLIENTS):
        requests.append(
            Request(
                id=i,
                op="marginal_gain",
                params={
                    "seeds": [3],
                    # 3 candidates each, stride-1 overlap with the next
                    # client: 8 requests x 3 = 24 requested, union = 17.
                    "candidates": [10 + 2 * i, 11 + 2 * i, 12 + 2 * i],
                },
            )
        )
    for i in range(CLIENTS):
        requests.append(
            Request(
                id=CLIENTS + i,
                op="prefix_win_probability",
                params={"seeds": [40 + i, 41 + i]},
            )
        )
    return requests


def _run(spec: str, coalesced: bool):
    hub = EngineHub(_problem(), [spec], rng=7)
    try:
        batcher = CoalescingBatcher(hub)
        if coalesced:
            responses = batcher.execute(_workload())
        else:
            responses = [batcher.execute([r])[0] for r in _workload()]
        return [encode(r) for r in responses], batcher.stats
    finally:
        hub.close()


def test_coalescing_round_reduction(save_result, save_bench_json):
    reference_lines = None
    gated = None
    rows = []
    for spec in SPECS:
        serial_lines, serial_stats = _run(spec, coalesced=False)
        coalesced_lines, stats = _run(spec, coalesced=True)
        # The headline contract: coalescing changes *no* response bytes.
        assert coalesced_lines == serial_lines, spec
        if reference_lines is None:
            reference_lines = serial_lines
        reduction = serial_stats.engine_rounds / stats.engine_rounds
        assert reduction >= MIN_ROUND_REDUCTION, (spec, reduction)
        assert stats.rounds_coalesced >= 1
        assert stats.evolution_sets_saved > 0
        rows.append(
            f"{spec:>12}: rounds {serial_stats.engine_rounds} -> "
            f"{stats.engine_rounds} ({reduction:.1f}x), "
            f"requests/round {stats.requests_total / stats.engine_rounds:.1f}, "
            f"sets requested {stats.sets_requested} evolved "
            f"{stats.sets_evolved} saved {stats.evolution_sets_saved}"
        )
        if spec == "dm-batched":
            gated = (serial_stats, stats)
    save_result(
        "serving_coalescing",
        f"{CLIENTS} concurrent clients, shared prefix + win probes "
        f"(n={N_USERS}, t={HORIZON}), byte-identical responses:\n"
        + "\n".join(rows),
    )
    serial_stats, stats = gated
    save_bench_json(
        "serving",
        {
            "round_reduction_x": {
                "value": serial_stats.engine_rounds / stats.engine_rounds,
                "higher_is_better": True,
            },
            "rounds_coalesced": {
                "value": stats.rounds_coalesced,
                "higher_is_better": True,
            },
            "requests_per_round": {
                "value": stats.requests_total / stats.engine_rounds,
                "higher_is_better": True,
            },
            "evolution_sets_saved": {
                "value": stats.evolution_sets_saved,
                "higher_is_better": True,
            },
            "coalesced_engine_rounds": {
                "value": stats.engine_rounds,
                "higher_is_better": False,
            },
        },
    )


def test_warm_store_serving_start(tmp_path, save_result, save_bench_json):
    """A restarted server over a persistent walk store regenerates zero
    walk blocks: the mmap blocks are the warm state."""
    from repro.core.walk_store import store_for_problem

    spec = f"rw-store:2:mmap={tmp_path}"

    def boot():
        problem = _problem()
        store = store_for_problem(problem, seed=BENCH_SEED, store_dir=str(tmp_path))
        hub = EngineHub(problem, [spec], rng=BENCH_SEED, store=store)
        hub.warm()
        # One real query so the warm engine actually answers from the
        # store-backed walks.
        response = CoalescingBatcher(hub).execute(
            [Request(id=0, op="prefix_win_probability", params={"seeds": [1]})]
        )[0]
        assert response["ok"]
        stats = store.stats
        cold = (stats.blocks_generated, stats.blocks_loaded, stats.blocks_reused)
        hub.close()
        return cold

    cold_generated, _, _ = boot()
    assert cold_generated > 0  # the first start did real generation work
    warm_generated, warm_loaded, warm_reused = boot()
    assert warm_generated == 0
    assert warm_reused > 0
    save_result(
        "serving_warm_store",
        f"cold start generated {cold_generated} walk blocks; warm restart "
        f"generated {warm_generated}, loaded {warm_loaded}, "
        f"reused {warm_reused}",
    )
    save_bench_json(
        "serving_store",
        {
            "warm_blocks_generated": {
                "value": warm_generated,
                "higher_is_better": False,
            },
            "warm_blocks_reused": {
                "value": warm_reused,
                "higher_is_better": True,
            },
        },
    )


def _spawn_server():
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--dataset", "yelp", "--users", str(N_USERS),
        "--horizon", str(HORIZON), "--score", "cumulative",
        "--engine", "dm-batched", "--seed", str(BENCH_SEED),
    ]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    assert proc.stdout is not None
    deadline = time.time() + 120
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.match(r"serving on \S+?:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    raise AssertionError("server never became ready")


def test_socket_latency(save_result):
    """Unasserted wall-clock: p50/p99/QPS over 8 pipelined connections
    (coalescible) vs 1 serial connection, ``SOCKET_BURSTS`` bursts each."""
    from repro.serve.client import run_load

    payloads = []
    for i in range(SOCKET_REQUESTS):
        if i % 4 == 3:
            payloads.append(
                {"op": "prefix_win_probability",
                 "seeds": [(7 * i) % N_USERS, (7 * i + 3) % N_USERS]}
            )
        else:
            payloads.append(
                {"op": "marginal_gain", "seeds": [3],
                 "candidates": [(5 * i) % N_USERS]}
            )
    rows = []
    proc, port = _spawn_server()
    try:
        for connections, label in ((1, "serial"), (CLIENTS, "coalesced")):
            reports = []
            for _ in range(SOCKET_BURSTS):
                report = run_load(
                    "127.0.0.1", port, payloads, connections=connections
                )
                assert all(r["ok"] for r in report.responses)
                reports.append(report)
            qps = sorted(r.qps for r in reports)
            median = sorted(reports, key=lambda r: r.qps)[len(reports) // 2]
            rows.append(
                f"{label:>9}: "
                f"qps={median.qps:8.1f} "
                f"p50={median.latency_percentile(50) * 1e3:7.2f}ms "
                f"p99={median.latency_percentile(99) * 1e3:7.2f}ms "
                f"(qps {qps[0]:.0f}-{qps[-1]:.0f})"
            )
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate(timeout=30)
    threads = " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in THREAD_ENV)
    save_result(
        "serving_latency",
        f"{SOCKET_REQUESTS} requests over dm-batched "
        f"(n={N_USERS}, t={HORIZON}; wall-clock, not gated)\n"
        f"host: nproc={os.cpu_count()} {threads}; each row is the median "
        f"of {SOCKET_BURSTS} bursts (qps range in brackets):\n"
        + "\n".join(rows),
    )
