"""The benchmark workloads: inputs, timed runs, oracles, layer metrics.

A selection workload's run is a few *rep* processes in a row
(``python -m benchmarks.e2e.workloads REQUEST_JSON``), each given an
equal slice of the run.  A rep builds the problem from the workload
seed, brings the engine up (its set-up, one ``setup_s`` sample), then
repeats the timed operation until its slice ends and prints one JSON
line of measurements.  Many short operations per run, each paired with
the host-speed probe run just before it (:mod:`.hostspeed`), not a few
long ones: the host's speed changes from minute to minute, and only a
probe taken beside each operation follows it.  The serving workload
runs ``repro serve`` as a subprocess and drives it from this process
with :mod:`.loadgen`.

Every workload seed comes from ``--seed``; the program only ever sees
the generated inputs (dataset seed, request stream).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import fields, replace
from pathlib import Path
from typing import Any, Callable

from . import hostspeed, loadgen
from .stats import percentile
from .trace import (
    END,
    START,
    Tracer,
    count,
    install_selection,
    load_spans,
    outermost,
    self_total_s,
    size_sum,
    total_s,
    within,
)

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

SELECTION = ("select-dense-mp", "select-sparse-celf", "walk-store")
SERVING = ("serve-mixed",)
WORKLOADS = (*SELECTION, *SERVING)

#: Workload sizes.  ``tiny`` is the smoke-test scale; only full-size runs
#: at the pinned seed compare against ``expected.json``.  ``procs`` is the
#: number of rep processes (set-ups) in an untraced selection run and
#: ``spawns`` the number of server start-ups in an untraced serving run.
#: A serving trace run's ladder doubles ``base_rps`` up to ``doublings``
#: times; its saturation burst offers ``saturation_requests`` at
#: ``saturation_rps``, about twice what the server completes per second.
FULL = {
    "select-dense-mp": {
        "n": 1000, "horizon": 20, "k": 5, "engine": "dm-mp:2:shm", "procs": 3,
    },
    "select-sparse-celf": {
        "n": 4000, "horizon": 20, "k": 20, "engine": "dm-batched", "procs": 3,
    },
    "walk-store": {"n": 1000, "horizon": 20, "k": 5, "shards": 2, "procs": 3},
    "serve-mixed": {
        "n": 2000,
        "horizon": 20,
        "base_rps": 200.0,
        "spawns": 3,
        "doublings": 3,
        "saturation_rps": 3200.0,
        "saturation_requests": 4000,
    },
}  # fmt: skip
TINY = {
    "select-dense-mp": {
        "n": 300, "horizon": 8, "k": 4, "engine": "dm-mp:2:shm", "procs": 2,
    },
    "select-sparse-celf": {
        "n": 800, "horizon": 8, "k": 8, "engine": "dm-batched", "procs": 2,
    },
    "walk-store": {"n": 300, "horizon": 8, "k": 4, "shards": 2, "procs": 2},
    "serve-mixed": {
        "n": 300,
        "horizon": 8,
        "base_rps": 50.0,
        "spawns": 2,
        "doublings": 1,
        "saturation_rps": 400.0,
        "saturation_requests": 200,
    },
}  # fmt: skip

#: Run length of a ``--tiny`` run, in seconds.
TINY_SECONDS = 2.0

#: Rep processes of a selection trace run: untraced and traced alternate,
#: so two of each.
TRACE_PROCS = 4

#: Seconds of load before a serving run's timed requests.
WARMUP_S = 1.0

#: Seconds an untraced serving run keeps back for its check requests and
#: the server's stop.
PROBE_S = 1.0

#: Share of the run length each server of a serving trace run spends at
#: its base rate.
BASE_SHARE = 0.3

#: ``walk-store`` warm selections must reach this share of the exact
#: greedy objective (ε = 0.1 walks measured 0.967 at n = 2000).
QUALITY_FLOOR = 0.9

#: Exact objectives must agree to this absolute tolerance.
OBJECTIVE_TOL = 1e-10

#: BLAS thread pools the program's processes may start: one thread each,
#: so the worker pool and the load generator are the only parallelism on
#: a host with few cores.  A value already in the environment wins.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def sizes(tiny: bool) -> dict[str, dict]:
    return TINY if tiny else FULL


def child_env() -> dict[str, str]:
    """Environment for every subprocess: ``src`` and the repo root
    importable, single-threaded BLAS."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for name in THREAD_ENV:
        env.setdefault(name, "1")
    return env


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _between_ops() -> float:
    """Untimed, before each operation: collect garbage and probe the
    host's speed (:mod:`.hostspeed`).

    A dropped walk engine keeps its mapped blocks until the cyclic
    collector runs, so without the collection peak RSS would grow by
    ~27 MiB per warm re-open and read the number of ops a run fitted.
    """
    gc.collect()
    return hostspeed.probe_ms()


def _medians(entries: list[dict[str, float]]) -> dict[str, float]:
    """Per key, the median over ``entries`` (one dict per operation)."""
    return {key: percentile([e[key] for e in entries], 50) for key in entries[0]}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def yelp_problem(cfg: dict, seed: int):
    """``yelp`` at ``n`` users, plurality score (dense-mp, walk-store, serve)."""
    from repro.datasets.yelp import yelp_like
    from repro.voting.scores import make_score

    dataset = yelp_like(n=cfg["n"], rng=seed, horizon=cfg["horizon"])
    return dataset.problem(make_score("plurality"))


def sparse_problem(cfg: dict, seed: int):
    """Table-III-density retweet graph, cumulative score (sparse-celf).

    The recipe of ``benchmarks/conftest.sparse_distancing_ds``: about 1.8
    edges per node, so a fresh seed's influence stays local for most of
    the horizon and the sparse phase dominates.
    """
    import numpy as np

    from repro.datasets.twitter import _twitter_base
    from repro.voting.scores import make_score

    dataset = _twitter_base(
        "twitter-social-distancing-sparse",
        ("For Social Distancing", "Against Social Distancing"),
        np.array([0.42, 0.60]),
        cfg["n"],
        10.0,
        2.5,
        cfg["horizon"],
        seed,
        min_degree=1,
        exponent=2.6,
    )
    return dataset.problem(make_score("cumulative"))


def _build(name: str, cfg: dict, seed: int):
    if name == "select-sparse-celf":
        return sparse_problem(cfg, seed)
    return yelp_problem(cfg, seed)


# ----------------------------------------------------------------------
# Child side: one rep
# ----------------------------------------------------------------------
def _stats_delta(after, before) -> dict[str, float]:
    return {
        f.name: getattr(after, f.name) - getattr(before, f.name) for f in fields(after)
    }


def round_durations(spans: list) -> list[float]:
    """Per greedy round: the previous commit's end (or the round driver's
    start) to this round's commit end."""
    commits = sorted(outermost(spans, ["engine.commit"]), key=lambda i: spans[i][START])
    out = []
    for r in outermost(spans, ["greedy.rounds"]):
        prev = spans[r][START]
        for i in commits:
            if spans[r][START] <= spans[i][START] <= spans[r][END]:
                out.append(spans[i][END] - prev)
                prev = spans[i][END]
    return out


def _engine_layers(
    spans: list, delta: dict, n: int, evaluations: int
) -> dict[str, float]:
    """Engine, score and greedy-driver metrics of one traced selection."""
    from repro.core.engine import EngineStats

    gains_s = self_total_s(spans, ["engine.gains"])
    calls = count(spans, ["engine.gains"])
    work = EngineStats(**delta).evolution_work(n)
    rounds = round_durations(spans) or [0.0]
    return {
        "engine.gains_s": gains_s,
        "engine.gains_calls": calls,
        "engine.cols_per_call": size_sum(spans, ["engine.gains"]) / max(calls, 1),
        "engine.commit_s": total_s(spans, ["engine.commit"]),
        "engine.sparse_nnz": delta["sparse_nnz"],
        "engine.sparse_steps": delta["sparse_steps"],
        "engine.repin_inserted": delta["repin_inserted"],
        "engine.dense_column_steps": delta["dense_column_steps"],
        "engine.trajectory_steps": delta["trajectory_steps"],
        "engine.evolution_work": work,
        "engine.work_rate": work / gains_s if gains_s > 0 else 0.0,
        "voting.score_s": total_s(spans, ["voting.score"]),
        "voting.cols_scored": size_sum(spans, ["voting.score"]),
        "greedy.round_p50_ms": percentile(rounds, 50) * 1e3,
        "greedy.round_max_ms": max(rounds) * 1e3,
        "greedy.evaluations": evaluations,
    }


def _setup(name: str, cfg: dict, seed: int, tracer: Tracer | None):
    """Problem build plus the caches every engine reads first."""
    with _span(tracer, "problem.build"):
        problem = _build(name, cfg, seed)
    with _span(tracer, "problem.caches"):
        problem.others_by_user()
        problem.target_trajectory()
    return problem


def _problem_layers(spans: list) -> dict[str, float]:
    return {
        "problem.build_s": total_s(spans, ["problem.build"]),
        "problem.caches_s": total_s(spans, ["problem.caches"]),
    }


def _mp_layers(
    engine, pool0: dict, workers0: list, delta: dict, select_s: float, n: int
) -> dict[str, float]:
    """Pool fan-out metrics of one selection over a ``dm-mp`` engine."""
    from repro.core.engine import EngineStats

    pool1 = engine.pool_stats()
    busy = pool1["busy_s"] - pool0["busy_s"]
    rounds = pool1["rounds"] - pool0["rounds"]
    deltas = [_stats_delta(w1, w0) for w1, w0 in zip(engine.worker_stats, workers0)]
    work = [EngineStats(**d).evolution_work(n) for d in deltas]
    mean_work = sum(work) / len(work)
    return {
        "mp.rounds": rounds,
        "mp.busy_s": busy,
        "mp.parent_s": select_s - busy,
        "mp.critical_col_steps": max(d["dense_column_steps"] for d in deltas),
        "mp.imbalance": max(work) / mean_work if mean_work else 0.0,
        "mp.ipc_bytes": delta["ipc_bytes"],
        "mp.ipc_bytes_per_round": delta["ipc_bytes"] / max(rounds, 1),
    }


def rep_exact(
    name: str, cfg: dict, seed: int, trace: bool, deadline: float
) -> dict[str, Any]:
    """``select-dense-mp`` / ``select-sparse-celf``: set-up, then k-seed
    selections on the one engine until ``deadline`` (at least one)."""
    from repro.core.engine import make_engine
    from repro.core.greedy import greedy_engine

    tracer = Tracer() if trace else None
    problem = _setup(name, cfg, seed, tracer)
    engine = make_engine(cfg["engine"], problem)
    pids = [pid for pid, _ in engine.ping()] if hasattr(engine, "ping") else []
    ready = time.monotonic()
    setup_probe = hostspeed.probe_median_ms()
    ops: list[dict[str, Any]] = []
    per_op: list[dict[str, float]] = []
    try:
        if tracer is not None:
            install_selection(tracer)  # after the pool is up: workers run unwrapped
        while not ops or time.monotonic() < deadline:
            probe = _between_ops()
            stats0 = replace(engine.stats)
            pool0 = engine.pool_stats()
            workers0 = [replace(w) for w in getattr(engine, "worker_stats", [])]
            m0, t0 = time.monotonic(), time.perf_counter()
            result = greedy_engine(engine, cfg["k"], lazy=name == "select-sparse-celf")
            select_s = time.perf_counter() - t0
            ops.append(
                {
                    "op_s": select_s,
                    "probe_ms": probe,
                    "seeds": [int(s) for s in result.seeds],
                    "objective": float(result.objective),
                }
            )
            if tracer is not None:
                window = within(tracer.spans, m0, time.monotonic())
                delta = _stats_delta(engine.stats, stats0)
                entry = _engine_layers(window, delta, problem.n, result.evaluations)
                if workers0:
                    entry.update(
                        _mp_layers(engine, pool0, workers0, delta, select_s, problem.n)
                    )
                per_op.append(entry)
        rss_mb = vm_hwm_mb(os.getpid()) + sum(vm_hwm_mb(pid) for pid in pids)
    finally:
        if tracer is not None:
            tracer.uninstall()
        engine.close()
    out: dict[str, Any] = {
        "ready": ready,
        "setup_probe_ms": setup_probe,
        "ops": ops,
        "dm_objective": float(problem.objective(ops[0]["seeds"])),
        "rss_mb": rss_mb,
    }
    if tracer is not None:
        out["layers"] = _problem_layers(tracer.spans) | _medians(per_op)
        out["spans"] = tracer.spans
    return out


def rep_walk(
    cfg: dict, seed: int, trace: bool, work_dir: Path, deadline: float
) -> dict[str, Any]:
    """``walk-store``: cold open plus the first selection, then warm
    re-opens until ``deadline`` (at least one).

    The set-up is the cold open (walk generation and block writes into a
    fresh directory) and the selection on it; each warm op is a
    ``make_engine`` over the persisted directory followed by one
    selection — what a later ``repro select --store-dir`` invocation pays
    on top of the problem build.
    """
    from repro.core.engine import EngineStats, make_engine
    from repro.core.greedy import greedy_engine

    tracer = Tracer() if trace else None
    if tracer is not None:
        install_selection(tracer)  # rw-store generates inline: no pool to fork
    store_dir = work_dir / f"store-{os.getpid()}"
    spec = f"rw-store:{cfg['shards']}:mmap={store_dir}"
    per_op: list[dict[str, float]] = []
    try:
        problem = _setup("walk-store", cfg, seed, tracer)
        with _span(tracer, "store.cold_open"):
            engine = make_engine(spec, problem, rng=seed)
        try:
            cold = greedy_engine(engine, cfg["k"])
        finally:
            engine.close()
        ready = time.monotonic()
        setup_probe = hostspeed.probe_median_ms()
        cold_stats = replace(engine.store.stats)
        disk_mb = sum(p.stat().st_size for p in store_dir.iterdir()) / 2**20
        ops: list[dict[str, Any]] = []
        while not ops or time.monotonic() < deadline:
            probe = _between_ops()
            t0 = time.perf_counter()
            warm = make_engine(spec, problem, rng=seed)
            t1, m1 = time.perf_counter(), time.monotonic()
            try:
                result = greedy_engine(warm, cfg["k"])
            finally:
                warm.close()
            t2, m2 = time.perf_counter(), time.monotonic()
            store = warm.store.stats
            ops.append(
                {
                    "op_s": t2 - t0,
                    "probe_ms": probe,
                    "seeds": [int(s) for s in result.seeds],
                    "blocks_generated": store.blocks_generated,
                }
            )
            if tracer is not None:
                window = within(tracer.spans, m1, m2)
                delta = _stats_delta(warm.stats, EngineStats())
                entry = _engine_layers(window, delta, problem.n, result.evaluations)
                entry.update(
                    {
                        "store.warm_open_s": t1 - t0,
                        "store.blocks_loaded": store.blocks_loaded,
                        "store.blocks_reused": store.blocks_reused,
                        "walk.prepare_budget_s": total_s(
                            window, ["walk.prepare_budget"]
                        ),
                        "walk.gains_s": total_s(window, ["walk.gains"]),
                        "walk.achieved_epsilon": warm.stats.achieved_epsilon,
                    }
                )
                per_op.append(entry)
        rss_mb = vm_hwm_mb(os.getpid())
        exact = float(problem.objective(ops[-1]["seeds"]))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(store_dir, ignore_errors=True)
    out: dict[str, Any] = {
        "ready": ready,
        "setup_probe_ms": setup_probe,
        "cold_seeds": [int(s) for s in cold.seeds],
        "ops": ops,
        "exact_objective": exact,
        "rss_mb": rss_mb,
    }
    if tracer is not None:
        layers = _problem_layers(tracer.spans) | _medians(per_op)
        layers.update(
            {
                "store.cold_open_s": total_s(tracer.spans, ["store.cold_open"]),
                "store.blocks_generated": cold_stats.blocks_generated,
                "store.walks_generated": cold_stats.walks_generated,
                "store.walk_steps_generated": cold_stats.walk_steps_generated,
                "store.blocks_written": cold_stats.blocks_written,
                "store.disk_mb": disk_mb,
                "store.warm_blocks_generated": sum(
                    op["blocks_generated"] for op in ops
                ),
            }
        )
        out["layers"] = layers
        out["spans"] = tracer.spans
    return out


def run_child(request: dict) -> dict[str, Any]:
    name = request["workload"]
    cfg = sizes(request["tiny"])[name]
    seed, trace, deadline = request["seed"], request["trace"], request["deadline"]
    if name == "walk-store":
        return rep_walk(cfg, seed, trace, Path(request["work_dir"]), deadline)
    return rep_exact(name, cfg, seed, trace, deadline)


# ----------------------------------------------------------------------
# Parent side: references and selection reps
# ----------------------------------------------------------------------
def reference(name: str, seed: int, tiny: bool, cache: dict) -> dict:
    """The exact greedy answer a selection workload is checked against.

    Full-size runs at the pinned seed read ``expected.json``; any other
    seed (or the tiny scale) runs the ``dm-batched`` greedy once,
    untimed.  ``walk-store`` solves ``select-dense-mp``'s problem, so it
    shares that reference.
    """
    exact = "select-sparse-celf" if name == "select-sparse-celf" else "select-dense-mp"
    key = (exact, seed, tiny)
    if key not in cache:
        pins = json.loads((HERE / "expected.json").read_text())
        if not tiny and seed == pins["seed"]:
            cache[key] = pins[exact]
        else:
            from repro.core.engine import make_engine
            from repro.core.greedy import greedy_engine

            cfg = sizes(tiny)[exact]
            lazy = exact == "select-sparse-celf"
            with make_engine("dm-batched", _build(exact, cfg, seed)) as engine:
                result = greedy_engine(engine, cfg["k"], lazy=lazy)
            cache[key] = {
                "seeds": [int(s) for s in result.seeds],
                "objective": float(result.objective),
            }
    return cache[key]


class SelectionRunner:
    """Rep processes of one selection workload run, each given an equal
    share of ``seconds`` for its set-up and operations."""

    def __init__(
        self,
        name: str,
        seed: int,
        trace: bool,
        tiny: bool,
        seconds: float,
        out_dir: Path,
    ) -> None:
        self.name = name
        self.seed = seed
        self.trace = trace
        self.tiny = tiny
        self.out_dir = out_dir
        self.procs = TRACE_PROCS if trace else sizes(tiny)[name]["procs"]
        self.share = seconds / self.procs
        self.reps: list[dict] = []
        self.elapsed = 0.0

    def done(self) -> bool:
        return len(self.reps) >= self.procs

    def run_rep(self) -> None:
        traced = self.trace and len(self.reps) % 2 == 1
        # What is left of this rep's share: an earlier rep's overrun is
        # taken back here, so the run as a whole keeps to its length.
        budget = max(0.0, self.share * (len(self.reps) + 1) - self.elapsed)
        started = time.monotonic()
        request = {
            "workload": self.name,
            "seed": self.seed,
            "trace": traced,
            "tiny": self.tiny,
            "work_dir": str(self.out_dir),
            "deadline": started + budget,
        }
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.workloads", json.dumps(request)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=budget + 60,
        )
        wall_s = time.monotonic() - started
        self.elapsed += wall_s
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            self.reps.append({"traced": traced, "error": f"exit {proc.returncode}"})
            return
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        rep["traced"] = traced
        # Spawn to ready, as for the server: both clocks are CLOCK_MONOTONIC.
        rep["setup_s"] = rep.pop("ready") - started
        spans = rep.pop("spans", None)
        if spans is not None:
            stem = f"spans-{self.name}-seed{self.seed}-rep{len(self.reps)}"
            (self.out_dir / f"{stem}.json").write_text(json.dumps({"spans": spans}))
        self.reps.append(rep)

    def check(self, cache: dict) -> tuple[int, int, list[str]]:
        """``(attempted, failed, messages)`` over every selection of every rep."""
        ref = reference(self.name, self.seed, self.tiny, cache)
        attempted = failed = 0
        messages: list[str] = []

        def fail(i: int, problems: list[str]) -> None:
            nonlocal failed
            if problems:
                failed += 1
                messages.append(f"rep {i}: " + "; ".join(problems))

        for i, rep in enumerate(self.reps):
            if "error" in rep:
                attempted += 1
                fail(i, [rep["error"]])
            elif self.name == "walk-store":
                attempted += 1 + len(rep["ops"])  # the cold selection, then warm ones
                for op in rep["ops"]:
                    problems = []
                    if op["seeds"] != rep["cold_seeds"]:
                        problems.append("warm seeds differ from cold seeds")
                    if op["blocks_generated"]:
                        generated = op["blocks_generated"]
                        problems.append(f"warm open generated {generated} blocks")
                    fail(i, problems)
                rep["quality_ratio"] = rep["exact_objective"] / ref["objective"]
                if rep["quality_ratio"] < QUALITY_FLOOR:
                    fail(i, [f"quality {rep['quality_ratio']:.3f} < {QUALITY_FLOOR}"])
            else:
                for op in rep["ops"]:
                    attempted += 1
                    problems = []
                    seeds, objective = op["seeds"], op["objective"]
                    if seeds != ref["seeds"]:
                        problems.append(f"seeds {seeds} != dm-batched {ref['seeds']}")
                    want = ref["objective"]
                    if abs(objective - want) > OBJECTIVE_TOL:
                        problems.append(f"objective {objective!r} != {want!r}")
                    fail(i, problems)
                if abs(rep["dm_objective"] - ref["objective"]) > OBJECTIVE_TOL:
                    fail(i, ["objective disagrees with per-set DM"])
        return attempted, failed, messages

    def samples(self) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        """Samples of every end-to-end and per-layer metric.

        End-to-end times are scaled to the reference host speed
        (:mod:`.hostspeed`); the raw ones ride along as ``raw.*``.
        """
        good = [rep for rep in self.reps if "error" not in rep]
        untraced = [rep for rep in good if not rep["traced"]]
        traced = [rep for rep in good if rep["traced"]]

        def scaled_ops(reps: list[dict]) -> list[float]:
            return [
                hostspeed.at_reference(op["op_s"] * 1e3, op["probe_ms"])
                for rep in reps
                for op in rep["ops"]
            ]

        def rep_probe(rep: dict) -> float:
            # A set-up lasts up to ~7 s: scale it by the probes of its whole
            # rep process, not only the set taken just after it.
            probes = [rep["setup_probe_ms"], *(op["probe_ms"] for op in rep["ops"])]
            return percentile(probes, 50)

        e2e = {
            "setup_s": [
                hostspeed.at_reference(rep["setup_s"], rep_probe(rep))
                for rep in untraced
            ],
            "op_ms": scaled_ops(untraced),
            "peak_rss_mb": [rep["rss_mb"] for rep in untraced],
            "raw.setup_s": [rep["setup_s"] for rep in untraced],
            "raw.op_ms": [op["op_s"] * 1e3 for rep in untraced for op in rep["ops"]],
            "host.probe_ms": [op["probe_ms"] for rep in untraced for op in rep["ops"]],
        }
        layers: dict[str, list[float]] = {}
        for rep in traced:
            for key, value in rep["layers"].items():
                layers.setdefault(key, []).append(value)
            if "quality_ratio" in rep:
                layers.setdefault("walk.quality_ratio", []).append(rep["quality_ratio"])
            layers.setdefault("host.probe_ms", []).extend(
                op["probe_ms"] for op in rep["ops"]
            )
        if traced and untraced:
            overhead = (
                percentile(scaled_ops(traced), 50) / percentile(e2e["op_ms"], 50) - 1.0
            )
            layers["trace.overhead_frac"] = [overhead]
        return e2e, layers


# ----------------------------------------------------------------------
# Parent side: the serving workload
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess, optionally under the span tracer.

    ``setup_s`` is spawn to the ``serving on`` line: interpreter start,
    imports, problem build and engine warm-up, as an operator sees it.
    """

    def __init__(self, cfg: dict, seed: int, spans_path: Path | None = None) -> None:
        serve_args = [
            "serve",
            "--dataset", "yelp",
            "--users", str(cfg["n"]),
            "--horizon", str(cfg["horizon"]),
            "--score", "plurality",
            "--engine", "dm-batched",
            "--seed", str(seed),
            "--port", "0",
        ]  # fmt: skip
        cmd = [sys.executable, "-m", "repro", *serve_args]
        if spans_path is not None:
            cmd[2:3] = ["benchmarks.e2e.serve_traced", str(spans_path)]
        started = time.monotonic()
        # Unbuffered bytes: select() then sees every line the server wrote.
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, bufsize=0
        )
        try:
            self.host, self.port = self._await_ready(deadline=started + 120)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def _await_ready(self, deadline: float) -> tuple[str, int]:
        out = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([out], [], [], 1.0)
            if not ready:
                continue
            line = out.readline().decode()
            if not line:
                raise RuntimeError(f"server exited early (code {self.proc.wait()})")
            if line.startswith("serving on "):
                host, port = line.split()[-1].rsplit(":", 1)
                return host, int(port)
        raise RuntimeError("server not ready within its deadline")

    def rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def check_requests(stream: loadgen.RequestStream) -> list[dict]:
    """The fixed requests sent after the load and checked byte for byte."""
    prefix = list(stream.prefix)
    return [
        {"op": "marginal_gain", "seeds": prefix, "candidates": list(range(8))},
        {"op": "prefix_win_probability", "seeds": prefix},
    ]


def serve_oracle(cfg: dict, seed: int, stream: loadgen.RequestStream) -> list[bytes]:
    """Check answers from an in-process batcher after the same deltas."""
    from repro.serve.batcher import CoalescingBatcher, EngineHub
    from repro.serve.protocol import encode, parse_request

    hub = EngineHub(yelp_problem(cfg, seed), ["dm-batched"], rng=seed)
    batcher = CoalescingBatcher(hub)
    try:
        for delta in stream.deltas:
            (response,) = batcher.execute([parse_request({"id": 0, **delta})])
            if not response["ok"]:
                raise RuntimeError(f"oracle delta failed: {response}")
        checks = check_requests(stream)
        requests = [parse_request({"id": i, **p}) for i, p in enumerate(checks)]
        return [encode(r) for r in batcher.execute(requests)]
    finally:
        hub.close()


def latencies(samples: list[loadgen.Sample], op: str | None = None) -> list[float]:
    return [s.latency_ms for s in samples if op is None or s.op == op]


def served_rate(samples: list[loadgen.Sample]) -> float:
    """Requests answered per second, from the first due time to the last
    reply: the server's throughput when the samples outran it."""
    return len(samples) / (max(s.done for s in samples) - min(s.due for s in samples))


def _serve(
    cfg: dict, seed: int, target: int, plan: Callable, spans_path: Path | None = None
) -> dict:
    """Start a server, run ``plan(generator)`` against it, send the check
    requests, stop it."""
    connections = max(1, min(2, os.cpu_count() or 1))
    stream = loadgen.RequestStream(seed, cfg["n"], target)
    server = Server(cfg, seed, spans_path)

    async def drive() -> dict:
        gen = await loadgen.LoadGenerator.connect(
            server.host, server.port, stream, connections
        )
        try:
            run = await plan(gen)
            run["checks"] = await gen.sequential(check_requests(stream))
            return run
        finally:
            await gen.close()

    try:
        run = asyncio.run(drive())
        run["rss_mb"] = server.rss_mb()
    finally:
        server.stop()
    run.update(setup_s=server.setup_s, stream=stream)
    return run


def run_serving(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool, out_dir: Path
) -> dict[str, Any]:
    """A serving workload (schedule in the README).

    Untraced: ``spawns - 1`` spawn-to-ready set-ups, each followed by a
    host-speed probe, then a last server takes serial requests — one in
    flight, the probe before each — for ``WARMUP_S`` and then until the
    run's ``seconds`` are up: the latency sample.  Traced: an untraced
    server runs an open-loop warm-up, ``BASE_SHARE * seconds`` at the
    base rate, the rate ladder and the saturation burst (client-side
    layer metrics), then a traced one the warm-up and the base rate
    (spans).
    """
    cfg = sizes(tiny)[name]
    rps = cfg["base_rps"]
    deadline = time.monotonic() + seconds
    base_requests = round(rps * BASE_SHARE * seconds)  # per server, trace runs
    target = yelp_problem(cfg, seed).target

    async def serve_stats(gen) -> dict:
        return (await gen.clients[0].request("stats"))["result"]["serve"]

    async def serial_plan(gen) -> dict:
        setup_probe = hostspeed.probe_median_ms()
        loop = asyncio.get_running_loop()
        warm = await gen.serial("warmup", loop.time() + WARMUP_S, hostspeed.probe_ms)
        until = max(deadline - PROBE_S, loop.time() + WARMUP_S)
        timed = await gen.serial("serial", until, hostspeed.probe_ms)
        return {
            "samples": [s for s, _ in warm + timed],
            "serial": timed,
            "setup_probe": setup_probe,
        }

    async def layer_plan(gen) -> dict:
        warm = await gen.open_loop("warmup", rps, round(rps * WARMUP_S), seed)
        before = await serve_stats(gen)
        base = await gen.open_loop("base", rps, base_requests, seed + 1)
        after = await serve_stats(gen)
        probe = hostspeed.probe_median_ms()
        steps = await gen.ladder(rps, cfg["doublings"], seed + 10)
        burst = await gen.open_loop(
            "saturation", cfg["saturation_rps"], cfg["saturation_requests"], seed + 20
        )
        return {
            "samples": warm + base + [s for _, step in steps for s in step] + burst,
            "base": base,
            "probe": probe,
            "steps": [(rps, base), *steps],
            "burst": burst,
            "moved": {key: after[key] - before[key] for key in after},
        }

    async def traced_plan(gen) -> dict:
        warm = await gen.open_loop("warmup", rps, round(rps * WARMUP_S), seed)
        base = await gen.open_loop("base", rps, base_requests, seed + 1)
        return {"samples": warm + base, "base": base}

    e2e: dict[str, list[float]] = {}
    layers: dict[str, list[float]] = {}
    if trace:
        plain = _serve(cfg, seed, target, layer_plan)
        spans_path = out_dir / f"spans-{name}-seed{seed}.json"
        traced = _serve(cfg, seed, target, traced_plan, spans_path)
        runs = [plain, traced]
        layers = serve_layers(plain, traced, load_spans(spans_path))
        by_op = plain["base"]
    else:
        setups = []
        for _ in range(cfg["spawns"] - 1):  # set-up samples only
            server = Server(cfg, seed)
            server.stop()
            setups.append((server.setup_s, hostspeed.probe_median_ms()))
        plain = _serve(cfg, seed, target, serial_plan)
        runs = [plain]
        setups.append((plain["setup_s"], plain["setup_probe"]))
        serial = plain["serial"]
        probes = [probe for _, probe in setups + serial]
        run_probe = percentile(probes, 50)
        e2e = {
            "setup_s": [hostspeed.at_reference(s, run_probe) for s, _ in setups],
            "op_ms": [hostspeed.at_reference(s.latency_ms, p) for s, p in serial],
            "peak_rss_mb": [plain["rss_mb"]],
            "raw.setup_s": [s for s, _ in setups],
            "raw.op_ms": [s.latency_ms for s, _ in serial],
            "host.probe_ms": probes,
        }
        by_op = [s for s, _ in serial]
    # Correctness: every request answered ok, every check answer byte-equal
    # to the in-process oracle, and an open-loop generator that kept to its
    # schedule.
    attempted = failed = 0
    messages = []
    for run in runs:
        bad = sum(1 for s in run["samples"] if not s.ok)
        attempted += len(run["samples"]) + len(run["checks"])
        if bad:
            failed += bad
            messages.append(f"{bad} requests failed")
        for got, want in zip(run["checks"], serve_oracle(cfg, seed, run["stream"])):
            if got != want:
                failed += 1
                messages.append(f"check mismatch: server {got!r} != oracle {want!r}")
        if "base" in run:
            lag_p50 = percentile([s.lag_ms for s in run["base"]], 50)
            if lag_p50 > loadgen.MAX_LAG_MS:
                failed += 1
                messages.append(
                    f"generator median lag {lag_p50:.1f} ms > {loadgen.MAX_LAG_MS} ms"
                )
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "by_op": {
            op: latencies(by_op, op)
            for op in ("marginal_gain", "prefix_win_probability", "apply_delta")
        },
    }


def serve_layers(plain: dict, traced: dict, spans: list) -> dict[str, list[float]]:
    """Per-layer serving metrics.

    Client-side latencies, the ladder, the saturation burst and the
    ``stats`` counters come from the untraced server; the span breakdown
    from the traced server's base-rate window.
    """
    base = plain["base"]
    rps = plain["steps"][0][0]
    layers = {
        f"serve.{op}.p50_ms": percentile(latencies(base, op), 50)
        for op in ("marginal_gain", "prefix_win_probability", "apply_delta")
        if latencies(base, op)  # a short tiny-scale window may miss the writes
    }
    layers |= {
        f"serve.x{rate / rps:g}.p95_ms": loadgen.tail_ms(step)
        for rate, step in plain["steps"]
    }
    moved = plain["moved"]
    traced_base = traced["base"]
    lo = min(s.due for s in traced_base)
    hi = max(s.done for s in traced_base)
    window = within(spans, lo, hi)
    execute_s = total_s(window, ["serve.execute"])
    layers |= {
        "serve.x1.p50_ms": percentile(latencies(base), 50),
        "serve.max_rps": loadgen.capacity(plain["steps"]),
        "serve.saturation_rps": served_rate(plain["burst"]),
        "serve.requests_per_round": moved["requests_total"]
        / max(moved["engine_rounds"], 1),
        "serve.rounds_coalesced": moved["rounds_coalesced"],
        "serve.evolution_sets_saved": moved["evolution_sets_saved"],
        "serve.batches": moved["batches"],
        "serve.deltas_applied": moved["deltas_applied"],
        "serve.execute_s": execute_s,
        "serve.dispatch_util": execute_s / (hi - lo),
        "serve.gains_round_s": total_s(window, ["serve.gains_round"]),
        "serve.wins_round_s": total_s(window, ["serve.wins_round"]),
        "serve.delta_s": total_s(window, ["serve.delta"]),
        "serve.codec_s": total_s(window, ["serve.codec"]),
        "serve.gen_lag_p99_ms": percentile([s.lag_ms for s in base], 99),
        "host.probe_ms": plain["probe"],
        "problem.build_s": total_s(spans, ["problem.build"]),
        "problem.caches_s": total_s(window, ["problem.caches"]),
        "engine.gains_s": self_total_s(window, ["engine.gains"]),
        "voting.score_s": total_s(window, ["voting.score"]),
        "voting.cols_scored": size_sum(window, ["voting.score"]),
        "trace.overhead_frac": percentile(latencies(traced_base), 50)
        / percentile(latencies(base), 50)
        - 1.0,
    }
    return {key: [value] for key, value in layers.items()}


if __name__ == "__main__":
    print(json.dumps(run_child(json.loads(sys.argv[1])), separators=(",", ":")))
