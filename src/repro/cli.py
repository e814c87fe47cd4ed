"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``select``      choose k seeds on a built-in dataset with any method/score
``winmin``      minimum seed set for the target to win (Problem 2)
``case-study``  the §VIII-B ACM-election case study
``serve``       run the request-coalescing query server over warm engines
``serve-load``  drive concurrent load against a running server
``net-worker``  serve dm-mp:tcp candidate chunks to remote coordinators
``datasets``    list built-in dataset recipes
``methods``     list seed-selection methods

Engine selection (``--engine``)
-------------------------------
The greedy-based methods evaluate the objective through a pluggable
backend (:mod:`repro.core.engine`); specs parse into a structured
:class:`~repro.core.engine.EngineSpec`:

===========================  =====  ================================================
spec                         exact  backend
===========================  =====  ================================================
``dm``                       yes    legacy per-set DM, one FJ evolution per seed set
``dm-batched``               yes    vectorized DM, all candidates at once, wide
                                    calls split over every core (default);
                                    ``dm-mp[:W][:pipe|:shm]`` is accepted and
                                    builds this engine
``dm-mp:tcp=H:P,...``        yes    ``dm-batched`` sharded across remote
                                    ``repro net-worker`` hosts over TCP
``rw``                       no     random-walk estimator (Algorithm 4)
``sketch``                   no     sketch estimator (Algorithm 5)
``rw-store[:mmap=DIR]``      no     shared walk store, Theorem 10's λ per node;
                                    ``:mmap=DIR`` = persistent on-disk blocks
===========================  =====  ================================================

All exact specs produce byte-identical selections; on one machine
``dm-batched`` already evolves a wide call's columns on every core, and
``dm-mp:tcp=...`` adds the cores of other machines.  ``rw-store`` keeps
walks in one shared store and binds Theorem 10's λ walks per node for
the requested ε once, when the engine is built, reusing every walk
across greedy rounds, budgets and win-min probes.

Data-plane suffixes: ``dm-mp:tcp=<host:port,...>`` shards candidate
chunks across ``repro net-worker`` hosts (one chunk per host, selections
byte-identical at every host count, lost hosts' chunks re-sharded to the
survivors — see the README's Multi-host section), and
``rw-store:mmap=<DIR>`` persists walk blocks as crc32-verified files
under ``DIR``.  ``--store-dir DIR`` and the ``:mmap=DIR`` suffix are two
spellings of one store: the CLI opens it once, seeded by ``--seed``, and
hands it to the sampling methods and every ``rw-store`` engine (naming
two different directories is an error), so a second invocation with the
same ``--seed`` re-opens the pools and regenerates **zero** walk blocks
(the ``store:`` line printed after selection shows the cold/warm
counters).  Persistence
covers *walk* pools (rw/rs); the ic/lt RR-set pools share the store
within one invocation but are in-memory only.

Incremental re-solve (``--apply-delta``)
----------------------------------------
``--apply-delta FILE`` replays graph/opinion churn against the freshly
built problem *before* seeds are selected.  ``FILE`` holds one JSON delta
step or a list of them::

    [{"edges_added":   [[src, dst, weight], ...],
      "edges_removed": [[src, dst], ...],
      "opinions_changed": [[candidate, node, value], ...],
      "candidate": 0}]

Each step is forwarded through :meth:`FJVoteProblem.apply_delta`
(``candidate`` picks whose graph the edge churn hits; default the
target's) and its :class:`~repro.core.problem.DeltaReport` flows into the
persistent walk store (``--store-dir`` or ``:mmap=DIR``), which re-draws
**only the walks that crossed a touched node** instead of regenerating
blocks — a warm store replayed
against a delta keeps ``blocks generated=0`` and reports the surgical
work in the ``invalidated=``/``walks patched=`` counters of the
``store:`` line.  One ``delta:`` line per invocation prints the
aggregated report (edges added/removed, opinion rewrites, touched nodes,
whether sparsity structure changed).

The file is a *journal*: the store's manifest remembers the graph
versions its walks were drawn at, so re-running with the same file is a
no-op for the store (every step's patches are already on disk), and
*appending* steps to the file patches only the new churn.  Running a
delta-patched store **without** its journal fails with the manifest
version-mismatch error — the walks on disk answer for the mutated
graphs, not the pristine ones.

Which caches survive which delta kind:

====================  ==========================  =========================
layer                 edge churn                  opinion churn
====================  ==========================  =========================
problem caches        touched competitor rows     touched competitor rows
                      recomputed, target          recomputed, target
                      trajectories lazily         trajectories lazily
                      rebuilt                     rebuilt
warm engine sessions  trajectory replayed        trajectory replayed
                      lazily, bitwise             lazily, bitwise
walk-store blocks     walks crossing a touched    **all blocks survive**
                      node re-drawn in place      (walks never read B⁰);
                                                  only masters drop
dm-mp:tcp hosts       delta replayed through      delta replayed through
                      apply_delta (same rows)     apply_delta (same rows)
====================  ==========================  =========================

Serving (``serve`` / ``serve-load``)
------------------------------------
``serve`` builds the problem once, keeps ``--engine`` (plus any
``--extra-engine``) hot — tcp hosts dialed and pinged, walk-store
blocks loaded, per-prefix sessions cached — and answers queries
over the newline-delimited JSON protocol of :mod:`repro.serve.protocol`
on a TCP socket.  Concurrent requests that target the same (graph
version, committed prefix) state coalesce into one engine round with
byte-identical responses; deltas are serialized through the same queue
and every response carries its ``graph_version``/``opinion_version``.
The server prints one ``serving on HOST:PORT`` line when ready (port 0
picks a free port), then the warm-store ``store:`` counters, and shuts
down cleanly on SIGTERM/SIGINT — tcp host connections stop through
``stop_worker_pool``.  ``serve-load`` fires a deterministic concurrent
workload at a running server and reports p50/p99 latency, QPS and the
server's coalescing counters.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.engine import ENGINE_HELP, ENGINE_NAMES, EngineSpec
from repro.core.winmin import min_seeds_to_win
from repro.datasets.dblp import dblp_like
from repro.datasets.synth import Dataset
from repro.datasets.twitter import (
    twitter_mask,
    twitter_social_distancing,
    twitter_us_election,
)
from repro.datasets.yelp import yelp_like
from repro.eval.case_study import acm_election_case_study
from repro.eval.harness import METHOD_NAMES, select_seeds
from repro.eval.reporting import format_table
from repro.utils.timing import Timer
from repro.voting.scores import make_score

if TYPE_CHECKING:
    from repro.core.engine import ObjectiveEngine
    from repro.core.walk_store import WalkStore

DATASETS: dict[str, Callable[..., Dataset]] = {
    "dblp": dblp_like,
    "yelp": yelp_like,
    "twitter-election": twitter_us_election,
    "twitter-distancing": twitter_social_distancing,
    "twitter-mask": twitter_mask,
}

_FAST_KWARGS = {
    "rw": {"lambda_cap": 32},
    "rs": {"theta": 4000},
    "ic": {"theta_cap": 30000},
    "lt": {"theta_cap": 30000},
}


def _build_dataset(
    args: argparse.Namespace, maker: Callable[..., Dataset] | None = None
) -> Dataset:
    """Build the ``--dataset`` (or ``maker``) recipe at the flags' size.

    A size the recipe cannot be built at (e.g. fewer users than a
    generator attaches per node) is a one-line error, not a traceback.
    """
    maker = maker or DATASETS[args.dataset]
    try:
        return maker(n=args.users, rng=args.seed, horizon=args.horizon)
    except ValueError as exc:
        raise SystemExit(
            f"cannot build the dataset with --users {args.users}: {exc}"
        ) from None


def _check_budget(flag: str, budget: int, dataset: Dataset) -> None:
    """A seed budget above the network size is a one-line error."""
    if budget > dataset.n:
        raise SystemExit(
            f"{flag} {budget} exceeds the network size (--users {dataset.n})"
        )


def _int_in(low: int, high: int | None = None) -> Callable[[str], int]:
    """argparse ``type=`` for an integer flag in ``[low, high]``: an
    out-of-range value is a usage error (exit 2) at parse time, not a
    traceback (or a silent no-op) once the command runs."""

    def convert(value: str) -> int:
        number = int(value)  # argparse reports "invalid int value"
        if number < low or (high is not None and number > high):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {number}")
        return number

    convert.__name__ = "int"
    return convert


_NATURAL = _int_in(0)
_POSITIVE = _int_in(1)
#: Listening ports: 0 binds a free port.
_PORT = _int_in(0, 65535)


class _SpecSafeFormatter(argparse.HelpFormatter):
    """Help formatter that never splits an engine spec across lines.

    The default formatter wraps on hyphens, which would render
    ``dm-mp:tcp=<host:port,...>`` as ``dm- mp:...`` depending on where the
    registry-derived help happens to wrap.
    """

    def _split_lines(self, text: str, width: int) -> list[str]:
        import textwrap

        return textwrap.wrap(
            text, width, break_on_hyphens=False, break_long_words=False
        )


def _engine_spec(value: str) -> str:
    # Validation *and* the error message come from the engine registry
    # (EngineSpec.parse's single ValueError), so malformed specs like
    # ``dm-mp:`` or ``dm-mp:0`` fail with the same message everywhere.
    try:
        EngineSpec.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _add_engine_option(parser: argparse.ArgumentParser) -> None:
    # Accepted names *and* help render from the engine registry, so a
    # newly registered backend shows up here without touching the CLI.
    parser.add_argument(
        "--engine",
        type=_engine_spec,
        metavar="|".join(ENGINE_NAMES),
        default="dm-batched",
        help="objective-evaluation backend for the greedy-based methods ("
        + "; ".join(
            f"{name}: {ENGINE_HELP.get(name, 'no description')}"
            for name in ENGINE_NAMES
        )
        + ")",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=sorted(DATASETS), default="yelp")
    parser.add_argument("--users", type=_POSITIVE, default=1000, help="network size n")
    parser.add_argument("--horizon", type=_NATURAL, default=20, help="time horizon t")
    parser.add_argument(
        "--score",
        default="plurality",
        choices=["cumulative", "plurality", "copeland", "p-approval"],
    )
    parser.add_argument("--p", type=_POSITIVE, default=2, help="p for p-approval")
    parser.add_argument("--seed", type=_NATURAL, default=0, help="random seed")
    _add_engine_option(parser)
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="persist walk pools as crc32-verified blocks under DIR; this "
        "flag and an rw-store engine's :mmap=DIR suffix name one store, "
        "which the rw/rs methods and every rw-store engine share, so "
        "rerunning with the same --seed regenerates zero walk blocks "
        "(ic/lt RR-set pools stay in-memory)",
    )
    parser.add_argument(
        "--apply-delta",
        default=None,
        metavar="FILE",
        help="replay a JSON delta file (graph/opinion churn) against the "
        "problem before selecting; a warm persistent walk store "
        "(--store-dir or :mmap=DIR) re-draws only the walks the delta "
        "invalidated (see the module docstring for the file format)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="arm a deterministic fault-injection plan (JSON, see "
        "repro.core.faults: sever tcp hosts, corrupt store blocks, shed "
        "requests) before running; the same plan replays the same "
        "failures, so chaos runs are comparable bit for bit",
    )


def _make_score(args: argparse.Namespace):
    if args.score == "p-approval":
        return make_score("p-approval", p=args.p)
    return make_score(args.score)


#: Methods drawing samples from the invocation's one
#: :class:`~repro.core.walk_store.WalkStore` (walk pools for rw/rs,
#: RR-set pools for ic/lt).
_STORE_METHODS = ("rw", "rs", "ic", "lt")


def _store_dir(args: argparse.Namespace, specs: Sequence[str]) -> "str | None":
    """The one walk-store directory this invocation names.

    ``--store-dir DIR`` and an engine spec's ``rw-store[:S]:mmap=DIR`` are
    two spellings of one store; naming two different directories is a
    one-line error.
    """
    chosen, source = args.store_dir or None, "--store-dir"
    for spec in specs:
        named = EngineSpec.parse(spec).store_dir
        if named is None:
            continue
        if chosen is None:
            chosen, source = named, "mmap directory"
        elif Path(named) != Path(chosen):
            raise SystemExit(
                f"{source} {chosen!r} conflicts with the engine spec's "
                f"mmap directory {named!r}"
            )
    return chosen


def _print_store_stats(store: "WalkStore | None") -> None:
    """One deterministic counters line (the warm-store smoke greps it).

    New counters go at the *end*: CI and user scripts grep stable prefixes
    like ``"store: blocks generated=0 "``.
    """
    if store is None:
        return
    stats = store.stats
    print(
        f"store: blocks generated={stats.blocks_generated} "
        f"written={stats.blocks_written} loaded={stats.blocks_loaded} "
        f"reused={stats.blocks_reused} rr-sets generated="
        f"{stats.rr_sets_generated} invalidated={stats.blocks_invalidated} "
        f"walks patched={stats.walks_patched} "
        f"quarantined={stats.blocks_quarantined} "
        f"repaired={stats.blocks_repaired}"
    )


#: The keys one ``--apply-delta`` step may carry.
_DELTA_KEYS = ("edges_added", "edges_removed", "opinions_changed", "candidate")


def _read_delta_journal(path: str) -> list[dict]:
    """The steps of an ``--apply-delta`` journal, checked at the boundary.

    An unreadable file, malformed JSON, a top level that is neither a step
    object nor a list of them, a step that is not an object and an
    unknown step key each stop the command with one line naming the file
    (and the step), never a traceback or a silently skipped step.
    """
    import json

    try:
        with open(path) as handle:
            loaded = json.load(handle)
    except OSError as exc:
        raise SystemExit(
            f"--apply-delta {path}: cannot read the file ({exc.strerror or exc})"
        ) from None
    except ValueError as exc:  # JSONDecodeError, undecodable bytes
        raise SystemExit(f"--apply-delta {path}: malformed JSON ({exc})") from None
    steps = [loaded] if isinstance(loaded, dict) else loaded
    if not isinstance(steps, list):
        raise SystemExit(
            f"--apply-delta {path}: expected a delta object or a list of "
            f"them, got {type(loaded).__name__}"
        )
    for number, step in enumerate(steps, 1):
        if not isinstance(step, dict):
            raise SystemExit(
                f"--apply-delta step {number}: expected an object, got "
                f"{type(step).__name__} (in {path})"
            )
        unknown = sorted(set(step) - set(_DELTA_KEYS))
        if unknown:
            raise SystemExit(
                f"--apply-delta step {number}: unknown key {unknown[0]!r}, "
                f"expected one of {', '.join(_DELTA_KEYS)} (in {path})"
            )
    return steps


def _wire_store_and_delta(
    args: argparse.Namespace, problem, method: str, specs: Sequence[str]
) -> "WalkStore | None":
    """Open the invocation's one walk store and replay ``--apply-delta``.

    The store lives in the directory :func:`_store_dir` works out and is
    opened once, seeded by ``--seed``, when something samples from it:
    the rw/rs/ic/lt methods, or ``dm`` over an ``rw-store`` engine.  The
    caller hands it as ``store=`` to every sampler, so no engine opens a
    second store on the same directory.

    The delta file is a *journal*: a persistent store dir may already hold
    the patches of any prefix of it (its manifest records the graph
    versions it was written at), while a freshly built problem always
    starts pristine.  The store is therefore opened at whichever point of
    the journal matches its manifest — steps before that point only
    advance the problem (the store already holds their patches), steps
    after it are forwarded through :meth:`WalkStore.apply_delta` so only
    the walks they invalidated are re-drawn.  A store that matches *no*
    point of the journal — or is refused outright (another identity, a
    format other than the current one) or cannot be created — stops the
    command with its one-line error, never a traceback.

    Prints one grep-able ``delta:`` line aggregating every step's
    :class:`~repro.core.problem.DeltaReport`, mirroring the ``store:``
    line's role for the warm-store smoke tests.
    """
    steps = _read_delta_journal(args.apply_delta) if args.apply_delta else []
    directory = _store_dir(args, specs)
    rw_store = any(EngineSpec.parse(spec).name == "rw-store" for spec in specs)
    sampled = method in _STORE_METHODS or (method == "dm" and rw_store)
    store = None
    open_error: ValueError | OSError | None = None
    if directory is not None and sampled:
        from repro.core.walk_store import store_for_problem

        def open_store() -> "WalkStore":
            return store_for_problem(problem, seed=args.seed, store_dir=directory)

        try:
            store = open_store()
        except (ValueError, OSError) as exc:
            if not steps:
                raise SystemExit(str(exc)) from None
            open_error = exc
    added = removed = opinions = 0
    touched: set[int] = set()
    structural = False
    refreshed = 0
    for number, step in enumerate(steps, 1):
        try:
            report = problem.apply_delta(
                edges_added=[tuple(e) for e in step.get("edges_added", ())],
                edges_removed=[tuple(e) for e in step.get("edges_removed", ())],
                opinions_changed=[
                    tuple(o) for o in step.get("opinions_changed", ())
                ],
                candidate=step.get("candidate"),
            )
        except (ValueError, TypeError) as exc:
            raise SystemExit(
                f"--apply-delta step {number}: {exc} (in {args.apply_delta})"
            ) from None
        if store is not None:
            store.apply_delta(report)
        elif open_error is not None:
            # Store manifest is ahead of the pristine problem; retry now
            # that this journal step has been replayed onto the problem.
            try:
                store = open_store()
                open_error = None
            except (ValueError, OSError) as exc:
                open_error = exc
        added += report.edges_added
        removed += report.edges_removed
        opinions += sum(
            len(nodes) for nodes in report.opinions_by_candidate.values()
        )
        touched.update(report.touched_nodes.tolist())
        structural = structural or report.structural
        refreshed += report.competitor_rows_refreshed
    if open_error is not None:
        raise SystemExit(str(open_error))
    if steps:
        print(
            f"delta: steps={len(steps)} edges added={added} "
            f"removed={removed} opinions changed={opinions} "
            f"touched nodes={len(touched)} "
            f"structural={'yes' if structural else 'no'} "
            f"competitor rows refreshed={refreshed}"
        )
    return store


def _dm_engine(args: argparse.Namespace, problem, store) -> "str | ObjectiveEngine":
    """``--engine`` for the dm method: an ``rw-store`` engine is built
    around the invocation's store; other specs stay strings, which the
    selection builds (and closes) itself."""
    if store is None or EngineSpec.parse(args.engine).name != "rw-store":
        return args.engine
    from repro.core.engine import make_engine

    return make_engine(args.engine, problem, rng=args.seed, store=store)


def cmd_select(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args)
    _check_budget("-k", args.k, dataset)
    problem = dataset.problem(_make_score(args))
    problem.others_by_user()
    kwargs = _FAST_KWARGS.get(args.method, {})
    store = _wire_store_and_delta(args, problem, args.method, [args.engine])
    engine = _dm_engine(args, problem, store) if args.method == "dm" else args.engine
    try:
        with Timer() as timer:
            seeds = select_seeds(
                args.method,
                problem,
                args.k,
                rng=args.seed,
                engine=engine,
                store=store,
                **kwargs,
            )
    finally:
        if not isinstance(engine, str):
            engine.close()
    before = problem.objective(())
    after = problem.objective(seeds)
    print(
        f"{dataset.name}: n={dataset.n}, target="
        f"{dataset.state.candidates[dataset.target]!r}, t={problem.horizon}"
    )
    print(f"method={args.method} k={args.k}: score {before:.2f} -> {after:.2f} "
          f"({timer.elapsed:.2f}s)")
    print("seeds:", " ".join(str(int(s)) for s in seeds))
    _print_store_stats(store)
    return 0


def cmd_winmin(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args)
    _check_budget("--kmax", args.kmax, dataset)
    problem = dataset.problem(_make_score(args))
    kwargs = _FAST_KWARGS.get(args.method, {})
    store = _wire_store_and_delta(args, problem, args.method, [args.engine])
    if args.method == "dm":
        engine = _dm_engine(args, problem, store)
        try:
            result = min_seeds_to_win(
                problem, k_max=args.kmax, engine=engine, rng=args.seed
            )
        finally:
            if not isinstance(engine, str):
                engine.close()
    else:
        result = min_seeds_to_win(
            problem,
            k_max=args.kmax,
            selector=lambda k: select_seeds(
                args.method, problem, k, rng=args.seed, store=store, **kwargs
            ),
        )
    _print_store_stats(store)
    if result.found:
        print(f"target wins with k* = {result.k} seeds ({result.probes} probes)")
    else:
        print(f"target cannot win within k <= {args.kmax}")
    return 0 if result.found else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the coalescing query server until SIGTERM/SIGINT."""
    from repro.serve.batcher import EngineHub
    from repro.serve.server import run_server

    dataset = _build_dataset(args)
    problem = dataset.problem(_make_score(args))
    specs = [args.engine, *(args.extra_engine or [])]
    store = _wire_store_and_delta(args, problem, "dm", specs)
    hub = EngineHub(problem, specs, rng=args.seed, store=store)
    print(
        f"{dataset.name}: n={dataset.n}, target="
        f"{dataset.state.candidates[dataset.target]!r}, t={problem.horizon}"
    )
    print("engines:", " ".join(hub.specs))

    def on_ready(host: str, port: int) -> None:
        # Parseable readiness line first (tests/scripts block on it),
        # then the warm-store counters: a warm start shows generated=0.
        print(f"serving on {host}:{port}", flush=True)
        _print_store_stats(store)
        sys.stdout.flush()

    stats = run_server(
        hub,
        host=args.host,
        port=args.port,
        batch_window=args.batch_window,
        queue_cap=args.queue_cap,
        request_timeout_ms=args.request_timeout_ms,
        on_ready=on_ready,
    )
    print(
        "serve: "
        + " ".join(f"{k}={v}" for k, v in sorted(stats.snapshot().items()))
    )
    return 0


def cmd_serve_load(args: argparse.Namespace) -> int:
    """Deterministic concurrent workload against a running server.

    A server that cannot be reached (refused, reset, timed out) is a
    one-line exit, not a traceback.
    """
    try:
        return _drive_load(args)
    except OSError as exc:
        raise SystemExit(
            f"serve-load: cannot reach the server at {args.host}:{args.port} "
            f"({exc})"
        ) from None


def _drive_load(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.serve.client import request_once, run_load

    probe = request_once(args.host, args.port, "stats")
    if not probe.get("ok"):
        raise SystemExit(f"stats probe failed: {probe.get('error')}")
    n = int(probe["result"]["problem"]["n"])
    rng = np.random.default_rng(args.seed)
    prefix = [int(v) for v in rng.choice(n, size=2, replace=False)]
    payloads: list[dict] = []
    for i in range(args.requests):
        if i % 4 == 3:
            seeds = [int(v) for v in rng.choice(n, size=2, replace=False)]
            payloads.append({"op": "prefix_win_probability", "seeds": seeds})
        else:
            payloads.append(
                {
                    "op": "marginal_gain",
                    "seeds": prefix,
                    "candidates": [int(rng.integers(n))],
                }
            )
    report = run_load(
        args.host, args.port, payloads, connections=args.connections
    )

    def _code(response: dict) -> str | None:
        error = response.get("error")
        return error.get("code") if isinstance(error, dict) else None

    # Structured overload answers are the server *working as configured*
    # (shedding past --queue-cap, expiring stale deadlines), not faults;
    # only other errors fail the run.
    shed = sum(1 for r in report.responses if _code(r) == "overloaded")
    expired = sum(
        1 for r in report.responses if _code(r) == "deadline-exceeded"
    )
    failures = (
        sum(1 for r in report.responses if not r.get("ok")) - shed - expired
    )
    print(
        f"load: requests={len(report.responses)} failures={failures} "
        f"connections={args.connections} qps={report.qps:.1f} "
        f"p50_ms={report.latency_percentile(50) * 1e3:.2f} "
        f"p99_ms={report.latency_percentile(99) * 1e3:.2f} "
        f"shed={shed} expired={expired}"
    )
    counters = request_once(args.host, args.port, "stats")["result"]["serve"]
    print(
        "serve: " + " ".join(f"{k}={v}" for k, v in sorted(counters.items()))
    )
    return 1 if failures else 0


def cmd_net_worker(args: argparse.Namespace) -> int:
    """Serve ``dm-mp:tcp=...`` coordinators until interrupted.

    One host of a multi-host fleet: accepts one coordinator at a time,
    answers its candidate-chunk fan-outs with a host-local ``dm-batched``
    engine (which splits wide chunks over the host's cores), and returns
    to ``accept`` when the coordinator stops — so a long-lived host
    outlives many selection runs.  A host never reads a walk, so it takes
    no walk-store options.
    """
    from repro.core.engine_net import run_net_worker

    def on_ready(host: str, port: int) -> None:
        # Parseable readiness line (scripts block on it; port 0 binds a
        # free port that only this line reveals).
        print(f"net-worker listening on {host}:{port}", flush=True)

    try:
        served = run_net_worker(
            args.host,
            args.port,
            connections=args.connections,
            on_ready=on_ready,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0
    print(f"net-worker: coordinators served={served}")
    return 0


def cmd_case_study(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args, dblp_like)
    _check_budget("-k", args.k, dataset)
    result = acm_election_case_study(
        dataset, k=args.k, method=args.method, rng=args.seed + 1,
        engine=args.engine,
        **_FAST_KWARGS.get(args.method, {}),
    )
    print(
        f"votes for target: {result.votes_before} ({result.share_before:.1f}%)"
        f" -> {result.votes_after} ({result.share_after:.1f}%)"
    )
    rows = [
        [row.domain, row.total_users, row.votes_without_seeds, row.votes_with_seeds]
        for row in result.rows
    ]
    print(format_table(["domain", "#users", "before", "after"], rows))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: run the reprolint project-invariant checkers.

    Exit status 0 = clean (or every finding baselined), 1 = findings.
    The default scan root is the installed ``repro`` package itself, so
    the command works from any directory.
    """
    from pathlib import Path

    import repro
    from repro.analysis import (
        Project,
        apply_baseline,
        default_checkers,
        format_json,
        format_text,
        load_baseline,
        run_checkers,
        write_baseline,
    )

    checkers = default_checkers()
    if args.list_checkers:
        for checker in checkers:
            print(f"{checker.name}: {checker.description}")
        return 0
    paths = args.paths or [Path(repro.__file__).parent]
    project = Project.from_paths(paths)
    findings = run_checkers(project, checkers)
    if args.write_baseline:
        count = write_baseline(findings, args.write_baseline)
        print(f"reprolint: wrote {count} finding key(s) to {args.write_baseline}")
        return 0
    baselined = 0
    if args.baseline:
        try:
            keys = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"reprolint: {exc}", file=sys.stderr)
            return 2
        findings, baselined = apply_baseline(findings, keys)
    if args.format == "json":
        print(format_json(findings, checkers, baselined=baselined))
    else:
        print(format_text(findings, baselined=baselined))
    return 1 if findings else 0


def cmd_datasets(_: argparse.Namespace) -> int:
    for name in sorted(DATASETS):
        print(name)
    return 0


def cmd_methods(_: argparse.Namespace) -> int:
    for name in METHOD_NAMES:
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Voting-based opinion maximization (ICDE 2023)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser(
        "select", help="select k seeds", formatter_class=_SpecSafeFormatter
    )
    _add_common(p_select)
    p_select.add_argument("--method", choices=METHOD_NAMES, default="rs")
    p_select.add_argument("-k", type=_NATURAL, default=20, help="seed budget")
    p_select.set_defaults(func=cmd_select)

    p_win = sub.add_parser(
        "winmin",
        help="minimum seeds to win (Problem 2)",
        formatter_class=_SpecSafeFormatter,
    )
    _add_common(p_win)
    p_win.add_argument("--method", choices=("dm", "rw", "rs"), default="dm")
    p_win.add_argument("--kmax", type=_POSITIVE, default=300)
    p_win.set_defaults(func=cmd_winmin)

    p_case = sub.add_parser(
        "case-study",
        help="ACM election case study",
        formatter_class=_SpecSafeFormatter,
    )
    p_case.add_argument("--users", type=_POSITIVE, default=2000)
    p_case.add_argument("--horizon", type=_NATURAL, default=20)
    p_case.add_argument("--seed", type=_NATURAL, default=0)
    p_case.add_argument("-k", type=_NATURAL, default=100)
    p_case.add_argument("--method", choices=METHOD_NAMES, default="rw")
    _add_engine_option(p_case)
    p_case.set_defaults(func=cmd_case_study)

    p_serve = sub.add_parser(
        "serve",
        help="run the request-coalescing query server",
        formatter_class=_SpecSafeFormatter,
    )
    _add_common(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=_PORT,
        default=0,
        help="0 picks a free port (printed on the 'serving on' line)",
    )
    p_serve.add_argument(
        "--batch-window",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="extra time the dispatcher waits for co-batchable requests; "
        "0 still coalesces everything queued while a round is in flight",
    )
    p_serve.add_argument(
        "--extra-engine",
        action="append",
        type=_engine_spec,
        default=None,
        metavar="SPEC",
        help="additional engine spec to keep hot (repeatable; requests "
        "pick one with their 'engine' parameter)",
    )
    p_serve.add_argument(
        "--queue-cap",
        type=_POSITIVE,
        default=None,
        metavar="N",
        help="bound the dispatch queue at N requests; admissions past it "
        "answer a structured 'overloaded' error immediately instead of "
        "buffering without bound (default: unbounded)",
    )
    p_serve.add_argument(
        "--request-timeout-ms",
        type=float,
        default=None,
        metavar="MS",
        help="default per-request deadline; a request still queued when "
        "it expires answers 'deadline-exceeded' without costing an "
        "engine round (a request's own deadline_ms overrides it; "
        "default: no deadline)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "serve-load", help="drive concurrent load against a running server"
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=_int_in(1, 65535), required=True)
    p_load.add_argument("--requests", type=_POSITIVE, default=64)
    p_load.add_argument("--connections", type=_POSITIVE, default=8)
    p_load.add_argument("--seed", type=_NATURAL, default=0)
    p_load.set_defaults(func=cmd_serve_load)

    p_net = sub.add_parser(
        "net-worker",
        help="serve dm-mp:tcp candidate chunks to remote coordinators",
        formatter_class=_SpecSafeFormatter,
    )
    p_net.add_argument("--host", default="127.0.0.1")
    p_net.add_argument(
        "--port",
        type=_PORT,
        default=0,
        help="0 picks a free port (printed on the readiness line)",
    )
    p_net.add_argument(
        "--connections",
        type=_POSITIVE,
        default=None,
        metavar="N",
        help="serve N coordinators, then exit (default: serve forever)",
    )
    p_net.set_defaults(func=cmd_net_worker)

    p_lint = sub.add_parser(
        "lint",
        help="run the reprolint project-invariant checkers",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to scan (default: the repro package)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="json output is deterministic: sorted findings, stable bytes",
    )
    p_lint.add_argument(
        "--baseline",
        metavar="FILE",
        help="subtract findings recorded in FILE; only new ones fail",
    )
    p_lint.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record the current findings as the accepted baseline and exit 0",
    )
    p_lint.add_argument(
        "--list",
        dest="list_checkers",
        action="store_true",
        help="list the active checkers and exit",
    )
    p_lint.set_defaults(func=cmd_lint)

    sub.add_parser("datasets", help="list datasets").set_defaults(func=cmd_datasets)
    sub.add_parser("methods", help="list methods").set_defaults(func=cmd_methods)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "fault_plan", None):
        from repro.core import faults

        try:
            plan = faults.FaultPlan.from_file(args.fault_plan)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        faults.install(plan)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
