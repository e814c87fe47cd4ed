"""Warm-engine hub and the request-coalescing batcher.

:class:`EngineHub` owns what stays hot across requests: the problem, one
engine per spec the server was started with (tcp hosts pinged at
startup so the first query pays no handshake), an LRU of per-prefix
:class:`~repro.core.engine.SelectionSession`\\ s, and a top-k result
cache.  Deltas funnel through the hub so every layer (problem, engines,
walk store, caches) advances together.

:class:`CoalescingBatcher` executes one *batch* of parsed requests — the
queue drain the server's dispatcher hands it — and merges compatible
queries into shared engine rounds:

* ``marginal_gain`` requests with the same (engine, committed prefix)
  evolve the **union** of their candidate lists as one (n, C) block
  (:meth:`~repro.core.engine.SelectionSession.coalesced_gains`), then
  each request reads its own candidates out of the shared result;
* ``prefix_win_probability`` requests on the same engine share one
  :meth:`~repro.core.engine.ObjectiveEngine.query_sets` call over the
  deduplicated seed sets;
* identical ``top_k_seeds`` requests run greedy once (and version-keyed
  results are cached across batches);
* ``apply_delta`` acts as a barrier: queries buffered before it are
  flushed first, so responses on either side carry distinct versions.

Every merge is answer-preserving byte for byte: the engines' coalesced
entry points are batch-stable (bitwise identical however requests are
grouped), which the serving tests and ``benchmarks/bench_serving.py``
assert across backends and host counts.

All counters in :class:`ServeStats` are deterministic — a fixed request
sequence produces the same counts on every host — so the benchmark gates
coalescing effectiveness (``rounds_coalesced``, ``evolution_sets_saved``)
without timing noise.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core import faults

from repro.core.engine import (
    EngineSpec,
    ObjectiveEngine,
    SelectionSession,
)
from repro.core.greedy import greedy_engine
from repro.core.problem import DeltaReport, FJVoteProblem
from repro.serve.protocol import (
    ERROR_BAD_ENGINE_SPEC,
    ERROR_BAD_REQUEST,
    ERROR_ENGINE_NOT_LOADED,
    ERROR_INTERNAL,
    ProtocolError,
    Request,
    error_response,
    ok_response,
)


@dataclass
class ServeStats:
    """Deterministic serving counters (the ``stats`` op's ``serve`` block).

    ``engine_rounds`` counts engine-driving rounds actually executed;
    ``rounds_coalesced`` those that answered more than one request, and
    ``requests_coalesced`` how many requests they answered in total.
    ``sets_requested`` vs ``sets_evolved`` measures the work merging
    saved: the former sums every request's own seed-set count, the latter
    what the shared rounds actually evolved
    (``evolution_sets_saved = requested - evolved``, accumulated).
    ``requests_shed`` counts admissions refused with a structured
    ``overloaded`` error (queue at ``queue_cap``, or shutdown drain) and
    ``deadlines_exceeded`` requests dropped from the queue after their
    deadline expired — both overload answers cost no engine work.
    """

    requests_total: int = 0
    batches: int = 0
    engine_rounds: int = 0
    rounds_coalesced: int = 0
    requests_coalesced: int = 0
    sets_requested: int = 0
    sets_evolved: int = 0
    evolution_sets_saved: int = 0
    deltas_applied: int = 0
    topk_cache_hits: int = 0
    errors: int = 0
    requests_shed: int = 0
    deadlines_exceeded: int = 0

    def snapshot(self) -> dict[str, int]:
        return {field.name: int(getattr(self, field.name)) for field in fields(self)}


# ----------------------------------------------------------------------
# Parameter validation
# ----------------------------------------------------------------------
def _node_list(value: Any, name: str, n: int) -> tuple[int, ...]:
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(
            ERROR_BAD_REQUEST, f"{name!r} must be a list of node ids"
        )
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                f"{name!r} must contain integers, got {item!r}",
            )
        if not 0 <= item < n:
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                f"{name!r} node {item} outside [0, {n})",
            )
        out.append(int(item))
    return tuple(out)


def _rows(value: Any, name: str, widths: tuple[int, ...]) -> list[tuple]:
    if value is None:
        return []
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(ERROR_BAD_REQUEST, f"{name!r} must be a list of rows")
    out = []
    for row in value:
        if not isinstance(row, (list, tuple)) or len(row) not in widths:
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                f"{name!r} rows must have {' or '.join(map(str, widths))} "
                f"entries, got {row!r}",
            )
        out.append(tuple(row))
    return out


# ----------------------------------------------------------------------
# The hub of warm state
# ----------------------------------------------------------------------
class EngineHub:
    """Warm problem + engines + caches behind the batcher.

    Parameters
    ----------
    problem:
        The loaded :class:`~repro.core.problem.FJVoteProblem`.
    specs:
        Engine specs (strings or :class:`~repro.core.engine.EngineSpec`
        instances) to build and keep hot; the first is the default for
        requests that name none.  Engines are stored under the canonical
        spelling, deduplicating equivalent specs.  Requests may only use
        loaded specs (a valid-but-unloaded spec answers
        ``engine-not-loaded``).
    rng:
        Seed for the stochastic backends (reproducible estimators).
    store:
        Optional shared :class:`~repro.core.walk_store.WalkStore` the
        ``rw-store`` specs draw from (the CLI's ``--store-dir`` store);
        deltas are forwarded through it.
    session_cap / topk_cache_cap:
        LRU bounds on cached per-prefix sessions and top-k results.
    """

    def __init__(
        self,
        problem: FJVoteProblem,
        specs: Sequence[str | EngineSpec],
        *,
        rng: int | np.random.Generator | None = None,
        store: Any = None,
        session_cap: int = 32,
        topk_cache_cap: int = 64,
    ) -> None:
        if not specs:
            raise ValueError("EngineHub needs at least one engine spec")
        self.problem = problem
        self._store = store
        self.session_cap = int(session_cap)
        self.topk_cache_cap = int(topk_cache_cap)
        self._engines: dict[str, ObjectiveEngine] = {}
        # Engines are keyed by the spec's *canonical* spelling, so
        # equivalent forms ("dm-mp:2:shm" vs "dm-batched") share one warm
        # engine instead of building duplicates.
        parsed_specs = [EngineSpec.parse(spec) for spec in specs]
        self.default_spec = parsed_specs[0].canonical()
        for parsed in parsed_specs:
            key = parsed.canonical()
            if key in self._engines:
                continue
            kwargs: dict[str, Any] = {}
            if store is not None and parsed.name == "rw-store":
                kwargs["store"] = store
            self._engines[key] = parsed.build(problem, rng, **kwargs)
        self._sessions: OrderedDict[tuple, SelectionSession] = OrderedDict()
        self._topk: OrderedDict[tuple, dict] = OrderedDict()

    @property
    def specs(self) -> tuple[str, ...]:
        return tuple(self._engines)

    def warm(self) -> None:
        """Start every pool now, so the first query pays no handshake.

        ``ping`` connects the ``dm-mp:tcp`` hosts (a warm pool is what
        makes small coalesced rounds cheap); the problem's competitor
        cache is materialized for the scoring paths.  Walk stores were
        already opened (and their blocks loaded or generated) when the
        engines were built.
        """
        self.problem.others_by_user()
        for engine in self._engines.values():
            ping = getattr(engine, "ping", None)
            if callable(ping):
                ping()

    def resolve(self, spec: Any) -> tuple[str, ObjectiveEngine]:
        """Map a request's ``engine`` param to a loaded engine.

        Malformed specs answer with the registry's own
        :meth:`~repro.core.engine.EngineSpec.parse` message as a
        structured ``bad-engine-spec`` error instead of dropping the
        connection; well-formed specs this server was not started with
        answer ``engine-not-loaded``.  Specs are canonicalized before
        lookup, so any equivalent spelling reaches the warm engine.
        """
        if spec is None:
            return self.default_spec, self._engines[self.default_spec]
        if not isinstance(spec, (str, EngineSpec)):
            raise ProtocolError(
                ERROR_BAD_REQUEST, "'engine' must be an engine spec string"
            )
        try:
            key = EngineSpec.parse(spec).canonical()
        except ValueError as exc:
            raise ProtocolError(ERROR_BAD_ENGINE_SPEC, str(exc)) from None
        engine = self._engines.get(key)
        if engine is not None:
            return key, engine
        raise ProtocolError(
            ERROR_ENGINE_NOT_LOADED,
            f"engine {spec!r} is valid but not loaded by this server; "
            f"loaded specs: {sorted(self._engines)}",
        )

    # ------------------------------------------------------------------
    def session(self, key: str, seeds: tuple[int, ...]) -> SelectionSession:
        """The warm session for (engine, committed prefix), LRU-cached.

        Cache keys include the problem versions, so a delta can never
        serve a stale trajectory — post-delta requests open fresh
        sessions (the delta also clears the cache outright).
        """
        cache_key = (
            key,
            self.problem.graph_version,
            self.problem.opinion_version,
            seeds,
        )
        session = self._sessions.get(cache_key)
        if session is not None:
            self._sessions.move_to_end(cache_key)
            return session
        session = self._engines[key].open_session(seeds)
        self._sessions[cache_key] = session
        while len(self._sessions) > self.session_cap:
            self._sessions.popitem(last=False)
        return session

    def top_k(
        self,
        key: str,
        k: int,
        lazy: bool,
        candidates: tuple[int, ...] | None,
    ) -> tuple[dict, bool]:
        """Greedy selection, cached per (engine, versions, query); returns
        ``(result, was_cached)``."""
        cache_key = (
            key,
            self.problem.graph_version,
            self.problem.opinion_version,
            int(k),
            bool(lazy),
            candidates,
        )
        cached = self._topk.get(cache_key)
        if cached is not None:
            self._topk.move_to_end(cache_key)
            return cached, True
        result = greedy_engine(
            self._engines[key],
            int(k),
            lazy=bool(lazy),
            candidates=None if candidates is None else list(candidates),
        )
        payload = {
            "seeds": [int(s) for s in result.seeds],
            "objective": float(result.objective),
            "gains": [float(g) for g in result.gains],
            "evaluations": int(result.evaluations),
        }
        self._topk[cache_key] = payload
        while len(self._topk) > self.topk_cache_cap:
            self._topk.popitem(last=False)
        return payload, False

    def apply_delta(
        self,
        edges_added: Iterable[tuple],
        edges_removed: Iterable[tuple],
        opinions_changed: Iterable[tuple],
        candidate: int | None,
    ) -> DeltaReport:
        """One delta through every warm layer, caches dropped first.

        Sessions are cleared *before* the engines see the report so the
        engines' own weak-session refresh has (almost) nothing to do;
        ``sessions="rebuild"`` covers any session a client still holds.
        The shared walk store is patched after the engines (walk engines
        forward the report to their store themselves — store patching is
        idempotent per graph version, so double delivery is safe).
        """
        try:
            report = self.problem.apply_delta(
                edges_added=list(edges_added),
                edges_removed=list(edges_removed),
                opinions_changed=list(opinions_changed),
                candidate=candidate,
            )
        except (ValueError, IndexError) as exc:
            raise ProtocolError(ERROR_BAD_REQUEST, str(exc)) from None
        self._sessions.clear()
        self._topk.clear()
        for engine in self._engines.values():
            engine.apply_delta(report, sessions="rebuild")
        if self._store is not None:
            self._store.apply_delta(report)
        return report

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Problem/engine/pool snapshot for the ``stats`` op."""
        problem = self.problem
        return {
            "problem": {
                "n": int(problem.n),
                "r": int(problem.r),
                "horizon": int(problem.horizon),
                "target": int(problem.target),
                "score": type(problem.score).__name__,
                "graph_version": int(problem.graph_version),
                "opinion_version": int(problem.opinion_version),
            },
            "default_engine": self.default_spec,
            "engines": {
                spec: {
                    "is_estimate": bool(engine.is_estimate),
                    "pool": engine.pool_stats(),
                }
                for spec, engine in self._engines.items()
            },
            "sessions_cached": len(self._sessions),
            "topk_cached": len(self._topk),
        }

    def close(self) -> None:
        """Release every engine (tcp hosts via ``stop_worker_pool``);
        idempotent."""
        self._sessions.clear()
        self._topk.clear()
        engines, self._engines = dict(self._engines), {}
        for engine in engines.values():
            engine.close()
        # Restartable: keep the mapping so a closed hub can still answer
        # describe(); engines themselves restart pools lazily if reused.
        self._engines = engines


# ----------------------------------------------------------------------
# The coalescing batcher
# ----------------------------------------------------------------------
class CoalescingBatcher:
    """Executes one drained batch of requests with round coalescing.

    Synchronous and deterministic: the server's dispatcher calls
    :meth:`execute` in a worker thread; tests and benchmarks call it
    directly.  Requests keep their slots — response ``i`` answers request
    ``i`` — while compatible queries share engine rounds (see the module
    docstring for the merge rules and the byte-identity contract).
    """

    def __init__(self, hub: EngineHub, stats: ServeStats | None = None) -> None:
        self.hub = hub
        self.stats = stats if stats is not None else ServeStats()

    # ------------------------------------------------------------------
    def execute(self, requests: Sequence[Request]) -> list[dict]:
        spec = faults.maybe_fail("serve-delay", batch=self.stats.batches)
        if spec is not None and spec.value:
            # Stall this round; requests queueing up behind it expire
            # their deadlines deterministically (overload chaos tests).
            time.sleep(float(spec.value))
        self.stats.batches += 1
        self.stats.requests_total += len(requests)
        responses: list[dict | None] = [None] * len(requests)
        buffered: list[tuple[int, Request]] = []
        for i, request in enumerate(requests):
            if request.op == "apply_delta":
                # Barrier: answer everything buffered against the current
                # versions first, then mutate.
                self._flush(buffered, responses)
                buffered = []
                responses[i] = self._guarded(request, self._handle_delta)
            elif request.op == "ping":
                responses[i] = ok_response(
                    request.id,
                    {"pong": request.params.get("payload")},
                    **self._versions(),
                )
            elif request.op == "stats":
                responses[i] = self._guarded(request, self._handle_stats)
            else:
                buffered.append((i, request))
        self._flush(buffered, responses)
        assert all(r is not None for r in responses)
        return responses  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _versions(self) -> dict[str, int]:
        return {
            "graph_version": int(self.hub.problem.graph_version),
            "opinion_version": int(self.hub.problem.opinion_version),
        }

    def _error(self, request: Request, exc: ProtocolError) -> dict:
        self.stats.errors += 1
        return error_response(
            request.id, exc.code, exc.message, **self._versions()
        )

    def _guarded(self, request: Request, handler) -> dict:
        try:
            return handler(request)
        except ProtocolError as exc:
            return self._error(request, exc)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return self._error(
                request,
                ProtocolError(ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"),
            )

    def _account_round(self, served: int, requested: int, evolved: int) -> None:
        self.stats.engine_rounds += 1
        if served > 1:
            self.stats.rounds_coalesced += 1
            self.stats.requests_coalesced += served
        self.stats.sets_requested += requested
        self.stats.sets_evolved += evolved
        self.stats.evolution_sets_saved += max(requested - evolved, 0)

    # ------------------------------------------------------------------
    def _handle_stats(self, request: Request) -> dict:
        result = {"serve": self.stats.snapshot(), **self.hub.describe()}
        return ok_response(request.id, result, **self._versions())

    def _handle_delta(self, request: Request) -> dict:
        params = request.params
        edges_added = _rows(params.get("edges_added"), "edges_added", (3,))
        edges_removed = _rows(params.get("edges_removed"), "edges_removed", (2,))
        opinions = _rows(params.get("opinions_changed"), "opinions_changed", (3,))
        candidate = params.get("candidate")
        if candidate is not None and (
            isinstance(candidate, bool) or not isinstance(candidate, int)
        ):
            raise ProtocolError(
                ERROR_BAD_REQUEST, "'candidate' must be an integer"
            )
        report = self.hub.apply_delta(
            edges_added, edges_removed, opinions, candidate
        )
        self.stats.deltas_applied += 1
        touched: set[int] = set()
        for nodes in report.touched_by_candidate.values():
            touched.update(int(v) for v in nodes)
        result = {
            "edges_added": int(report.edges_added),
            "edges_removed": int(report.edges_removed),
            "opinions_changed": sum(
                len(nodes) for nodes in report.opinions_by_candidate.values()
            ),
            "touched_nodes": len(touched),
            "structural": bool(report.structural),
        }
        return ok_response(request.id, result, **self._versions())

    # ------------------------------------------------------------------
    def _flush(
        self,
        buffered: list[tuple[int, Request]],
        responses: list[dict | None],
    ) -> None:
        """Group buffered queries, run each group as one engine round."""
        gains: OrderedDict[tuple, list] = OrderedDict()
        wins: OrderedDict[str, list] = OrderedDict()
        topk: OrderedDict[tuple, list] = OrderedDict()
        n = self.hub.problem.n
        for i, request in buffered:
            try:
                key, _ = self.hub.resolve(request.params.get("engine"))
                if request.op == "marginal_gain":
                    seeds = _node_list(request.params.get("seeds"), "seeds", n)
                    cand = _node_list(
                        request.params.get("candidates"), "candidates", n
                    )
                    if not cand:
                        raise ProtocolError(
                            ERROR_BAD_REQUEST,
                            "'candidates' must be a non-empty list",
                        )
                    gains.setdefault((key, seeds), []).append((i, request, cand))
                elif request.op == "prefix_win_probability":
                    seeds = _node_list(request.params.get("seeds"), "seeds", n)
                    wins.setdefault(key, []).append((i, request, seeds))
                elif request.op == "top_k_seeds":
                    k = request.params.get("k")
                    if isinstance(k, bool) or not isinstance(k, int):
                        raise ProtocolError(
                            ERROR_BAD_REQUEST, "'k' must be an integer"
                        )
                    if not 1 <= k <= n:
                        raise ProtocolError(
                            ERROR_BAD_REQUEST, f"'k' must be in [1, {n}]"
                        )
                    cand_param = request.params.get("candidates")
                    cand_key = (
                        None
                        if cand_param is None
                        else _node_list(cand_param, "candidates", n)
                    )
                    lazy = request.params.get("lazy", False)
                    if not isinstance(lazy, bool):
                        raise ProtocolError(
                            ERROR_BAD_REQUEST, "'lazy' must be a boolean"
                        )
                    topk.setdefault((key, k, lazy, cand_key), []).append(
                        (i, request)
                    )
                else:  # pragma: no cover - parse_request gates the ops
                    raise ProtocolError(
                        ERROR_BAD_REQUEST, f"unroutable op {request.op!r}"
                    )
            except ProtocolError as exc:
                responses[i] = self._error(request, exc)
        for (key, seeds), members in gains.items():
            self._run_gains_group(key, seeds, members, responses)
        for key, members in wins.items():
            self._run_wins_group(key, members, responses)
        for (key, k, lazy, cand_key), members in topk.items():
            self._run_topk_group(key, k, lazy, cand_key, members, responses)

    def _group_error(
        self, members: list, responses: list, exc: Exception
    ) -> None:
        wrapped = (
            exc
            if isinstance(exc, ProtocolError)
            else ProtocolError(ERROR_INTERNAL, f"{type(exc).__name__}: {exc}")
        )
        for member in members:
            responses[member[0]] = self._error(member[1], wrapped)

    def _run_gains_group(
        self,
        key: str,
        seeds: tuple[int, ...],
        members: list,
        responses: list,
    ) -> None:
        """One warm round answers every request sharing this prefix."""
        try:
            union = sorted({c for _, _, cand in members for c in cand})
            session = self.hub.session(key, seeds)
            values = session.coalesced_gains(
                np.asarray(union, dtype=np.int64)
            )
            base_value = float(session.value)
            lookup = dict(zip(union, (float(v) for v in values)))
        except ProtocolError as exc:
            self._group_error(members, responses, exc)
            return
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            self._group_error(members, responses, exc)
            return
        self._account_round(
            served=len(members),
            requested=sum(len(cand) for _, _, cand in members),
            evolved=len(union),
        )
        versions = self._versions()
        for i, request, cand in members:
            responses[i] = ok_response(
                request.id,
                {
                    "seeds": list(seeds),
                    "candidates": list(cand),
                    "gains": [lookup[c] for c in cand],
                    "value": base_value,
                },
                **versions,
            )

    def _run_wins_group(
        self, key: str, members: list, responses: list
    ) -> None:
        """One ``query_sets`` round answers every win/value probe."""
        try:
            engine = self.hub._engines[key]
            slots: dict[tuple[int, ...], int] = {}
            for _, _, seeds in members:
                canonical = tuple(sorted(set(seeds)))
                if canonical not in slots:
                    slots[canonical] = len(slots)
            sets = list(slots)
            values, win_flags = engine.query_sets(sets, wins=True)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            self._group_error(members, responses, exc)
            return
        self._account_round(
            served=len(members), requested=len(members), evolved=len(sets)
        )
        versions = self._versions()
        assert win_flags is not None
        for i, request, seeds in members:
            slot = slots[tuple(sorted(set(seeds)))]
            won = bool(win_flags[slot])
            responses[i] = ok_response(
                request.id,
                {
                    "seeds": list(seeds),
                    "wins": won,
                    "win_probability": 1.0 if won else 0.0,
                    "value": float(values[slot]),
                },
                **versions,
            )

    def _run_topk_group(
        self,
        key: str,
        k: int,
        lazy: bool,
        cand_key: tuple[int, ...] | None,
        members: list,
        responses: list,
    ) -> None:
        """Identical top-k requests run greedy once (or hit the cache)."""
        try:
            result, cached = self.hub.top_k(key, k, lazy, cand_key)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            self._group_error(members, responses, exc)
            return
        if cached:
            self.stats.topk_cache_hits += len(members)
            self.stats.sets_requested += result["evaluations"] * len(members)
            self.stats.evolution_sets_saved += (
                result["evaluations"] * len(members)
            )
        else:
            self._account_round(
                served=len(members),
                requested=result["evaluations"] * len(members),
                evolved=result["evaluations"],
            )
        versions = self._versions()
        for i, request in members:
            responses[i] = ok_response(request.id, dict(result), **versions)
