"""Batched objective-evaluation engines (the pluggable evaluation seam).

Every seed-selection algorithm in this library ultimately asks the same
question — "what is ``F(B(t)[S], c_q)`` for these seed sets?" — and the
:class:`ObjectiveEngine` interface makes the answer pluggable.  An engine
wraps an :class:`~repro.core.problem.FJVoteProblem` and exposes

* ``evaluate(seed_sets)``   — objectives of many seed sets at once,
* ``marginal_gains(base, candidates)`` — one greedy round in one call,
* ``open_session()``        — a stateful :class:`SelectionSession` that
  carries warm-start state across greedy rounds and prefix probes,
* capability flags ``supports_batch`` / ``is_estimate``.

Selection sessions
------------------
Greedy (Algorithm 1) and the FJ-Vote-Win binary search (Algorithm 2) only
ever evaluate *one-element extensions* of a committed set or *nested
prefixes* of one greedy ranking.  A :class:`SelectionSession` exploits that
shape instead of restarting every FJ evolution from the empty-seed base:

* ``commit(seed)`` folds the chosen seed's already-evolved delta into a
  cached *committed trajectory* (extending the
  :meth:`~repro.core.problem.FJVoteProblem.target_trajectory` caching to
  seeded bases), so the next round evolves candidate deltas against the
  committed state — one pinned coordinate per column — rather than
  recomputing all ``|S|`` pinned coordinates from scratch;
* ``marginal_gains(candidates)`` is one warm-started round;
* ``prefix_values(sizes)`` / ``prefix_wins(k)`` serve win-min's
  binary-search probes from the greedy ranking, reusing the closest cached
  prefix trajectory when probing a nearby size.

Backends
--------
:class:`DMEngine`
    Thin wrapper over the per-set ``FJVoteProblem.objective`` (the paper's
    direct-matrix-multiplication evaluation, one FJ evolution per set).
    The parity reference for everything else.
:class:`BatchedDMEngine`
    Evaluates all ``C`` seed sets *simultaneously*.  FJ dynamics are linear,
    so the opinions of a seeded system can be written as ``base + delta``
    where ``base`` is a cached trajectory (unseeded, or the session's
    committed one) and each seed set's ``delta`` obeys the homogeneous
    recurrence ``delta(s+1) = (delta(s) @ W) * (1 - d)`` with the seeded
    coordinates pinned to ``1 - base(s)``.  All ``C`` deltas evolve
    together in two phases: one shared sparse ``(n, C)`` evolution while
    influence has spread to few nodes, then cache-sized dense column
    blocks that finish the horizon and are scored in place with the batch
    paths of :mod:`repro.voting.scores`.  A wide call splits its
    columns over every core this process may run on, in one process.
    Results match the per-set engine to machine precision; exhaustive
    greedy rounds run 5-20x faster (``benchmarks/bench_engine_batched.py``),
    and warm-started sessions cut the evolution work of later rounds
    further (``benchmarks/bench_session_warmstart.py``).  Every local
    ``dm-mp`` spelling (``dm-mp``, ``dm-mp:<W>``, ``dm-mp[:W]:pipe|shm``)
    builds this engine.
:class:`~repro.core.engine_mp.HostPool`
    ``dm-mp:tcp=<host:port,...>``: the batched evaluation sharded across
    remote ``repro net-worker`` hosts — candidate chunks evolve
    concurrently, session commits are broadcast so hosts fold the
    committed trajectory locally, and selections stay byte-identical to
    the single-process engine for every host count
    (``EngineStats.ipc_bytes`` counts the bytes on the wire).
:class:`WalkEngine`
    Routes the §V/§VI walk estimators (random-walk and sketch) through the
    same interface, scored by
    :class:`~repro.core.random_walk.WalkGreedyOptimizer`; it is the only
    greedy path of the RW and RS methods.
    Estimates, not exact values: ``is_estimate`` is true.  Its sessions
    apply post-generation truncation incrementally as seeds are committed.
    Walks come from a :class:`~repro.core.walk_store.WalkStore` — private
    for the ``rw``/``sketch`` specs, shared for ``rw-store``, which also
    turns on IMM-style adaptive sample-size escalation (see
    :meth:`WalkEngine.prepare_budget`).  The ``rw-store:mmap=<DIR>``
    suffix (CLI ``--store-dir``) makes the store persistent: blocks
    persist as ``.npy`` files under ``DIR``, each read once and
    crc32-verified on load, and a warm re-open (second process, restart)
    regenerates zero blocks.

Data plane
----------
``rw-store``'s mmap blocks pay one ``np.save`` per generated block and
win on every re-open — worth it for sweeps, win-min searches and any
workflow that restarts.  Stores are plain directories: delete them to
reclaim disk, and keep the store seed fixed so a re-open finds the same
deterministic block identities.

Adding a backend
----------------
Subclass :class:`ObjectiveEngine`, implement ``evaluate``, set the
capability flags, and register a constructor in ``_ENGINE_FACTORIES`` (the
single source of :data:`ENGINE_NAMES`, the CLI ``--engine`` choices and the
``make_engine`` error message).  Override ``marginal_gains`` when the
backend can do a whole stateless round cheaper than ``C + 1`` independent
evaluations.  The session protocol is optional but where the leverage is:
the default ``open_session`` returns a :class:`SelectionSession` that
simply replays the committed set through ``marginal_gains``, which is
always correct — a backend that can carry state across rounds (a committed
trajectory, an updated sketch store, a GPU-resident delta block) should
return its own :class:`SelectionSession` subclass overriding ``commit``,
``marginal_gains`` and, if it can serve nested-prefix probes cheaply,
``prefix_wins``.  Greedy, sandwich and win-min only ever talk to sessions,
so process-parallel, sharded-RR-set or GPU backends drop in the same way.
Every backend inherits a :class:`EngineStats` counter (``engine.stats``)
whose deterministic work counters back the benchmark assertions.
"""

from __future__ import annotations

import os
import threading
import warnings
import weakref
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from repro.core.problem import DeltaReport, FJVoteProblem
from repro.utils.validation import (
    check_count,
    check_index,
    check_index_array,
    check_positive,
)
from repro.voting.scores import CumulativeScore, SeparableScore

SeedSet = Sequence[int] | np.ndarray | tuple


def _usable_cores() -> int:
    """Cores this process may run on (its CPU affinity, where the OS has one)."""
    count = getattr(os, "process_cpu_count", None)
    if count is not None:
        return count() or 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class EstimatorPrecisionWarning(UserWarning):
    """An estimator could not certify a caller's requested (ε, δ) precision.

    Raised (as a warning, not an error — the selection still runs) when a
    walk/sketch backend was asked for ``epsilon`` but its sample budget
    only certifies a larger error, or when no closed-form guarantee exists
    for the score at all (the rank-based scores, §VI-E).  The achieved
    value is surfaced in :attr:`EngineStats.achieved_epsilon`.
    """


@dataclass
class EngineStats:
    """Deterministic work counters, one instance per engine (``engine.stats``).

    The evolution counters make warm-start savings measurable without
    timing noise: on one core the same selection always produces the same
    counts.  ``evolution_work`` normalizes everything to *dense
    column-steps* (one column pushed through one FJ step costs ``nnz(W)``
    multiply-adds): a sparse-phase product costs ``nnz(delta)/n`` of that,
    and a trajectory-extension step is exactly one column-step.

    That price counts multiply-adds only.  Every sparse product also walks
    all of ``W`` twice (``csr_matmat_maxnnz`` sizes the output, then
    ``csr_matmat`` fills it, each visiting every row and nonzero whatever
    delta holds), and each re-pin rebuilds the product's CSR arrays.  So
    the counters and the wall clock can disagree: a narrow call (one or
    two columns) runs straight dense steps, which raises
    ``evolution_work`` a little while its wall time halves.
    """

    evaluate_calls: int = 0
    sets_evaluated: int = 0
    sparse_steps: int = 0
    sparse_nnz: int = 0
    dense_column_steps: int = 0
    trajectory_steps: int = 0
    #: Sparse-phase re-pin: products re-pinned, and pinned entries the
    #: product did not store that were spliced in at the end of their rows.
    repin_steps: int = 0
    repin_inserted: int = 0
    #: Committed session trajectories refreshed in place by a delta
    #: correction (``apply_delta``'s fast path) instead of a full rebuild.
    #: The correction work itself lands in ``sparse_steps``/``sparse_nnz``.
    trajectories_patched: int = 0
    #: Exact serialized bytes moved through host sockets, both directions
    #: (the ``dm-mp:tcp=...`` coordinator frames its own messages, so
    #: this is a measurement, not an estimate).
    ipc_bytes: int = 0
    #: Multi-host (``dm-mp:tcp=...``) degradation accounting: hosts the
    #: coordinator dropped from its pool after a connection failure, and
    #: candidate chunks re-dispatched to surviving hosts because their
    #: original host was lost mid-round.
    hosts_lost: int = 0
    chunks_resharded: int = 0
    #: Previously-lost tcp hosts that reconnected through the backoff
    #: rejoin path, with replayed journal state.
    hosts_rejoined: int = 0
    #: Estimator (ε, δ) accounting, filled by ``prepare_budget`` on the
    #: walk backends: the precision the caller asked for, the precision
    #: the sample budget actually certifies (0.0 = not computable — no
    #: closed form for the score), and how many budget preparations could
    #: not certify the request (each also raises
    #: :class:`EstimatorPrecisionWarning`).
    requested_epsilon: float = 0.0
    achieved_epsilon: float = 0.0
    precision_unmet: int = 0

    def reset(self) -> None:
        for field in fields(self):
            setattr(self, field.name, 0)

    def evolution_work(self, n: int) -> float:
        """Total FJ evolution work in dense column-step equivalents.

        Multiply-adds only: the two passes over ``W`` every sparse product
        makes are not priced (see the class docstring).
        """
        return (
            self.dense_column_steps
            + self.trajectory_steps
            + self.sparse_nnz / max(int(n), 1)
        )


class SelectionSession:
    """Stateful warm-start evaluation across greedy rounds and prefix probes.

    A session is scoped to one selection run: it owns the committed seed
    sequence, the accumulated objective, and whatever backend state makes
    the next round cheaper.  This replaces the engines' old single-slot
    ``base_value`` memoization, which silently thrashed when two algorithms
    interleaved rounds on one engine (e.g. sandwich's upper/lower greedies)
    — sessions are independent, so interleaving them costs nothing.

    The base implementation is backend-agnostic and always correct: gains
    are delegated to the engine's stateless ``marginal_gains`` with the
    session's cached base objective, and prefix probes fall back to exact
    per-set checks.  Backends override the hot paths (see
    :class:`BatchedDMSession`).
    """

    def __init__(self, engine: "ObjectiveEngine", base: SeedSet = ()) -> None:
        self.engine = engine
        engine._register_session(self)
        self._seeds: list[int] = check_index_array(base, "base").tolist()
        self._value = float(engine.evaluate_one(tuple(self._seeds)))
        self._base_size = len(self._seeds)
        # value of every committed prefix, aligned to sizes
        # base_size .. len(seeds); greedy commits append to it.
        self._prefix_values: list[float] = [self._value]

    # ------------------------------------------------------------------
    @property
    def seeds(self) -> tuple[int, ...]:
        """Committed seeds, in commit order."""
        return tuple(self._seeds)

    @property
    def value(self) -> float:
        """Objective of the committed seed set."""
        return self._value

    def marginal_gains(self, candidates: SeedSet) -> np.ndarray:
        """Gain of extending the committed set by each candidate."""
        return self.engine.marginal_gains(
            self.seeds, candidates, base_objective=self._value
        )

    def coalesced_gains(self, candidates: SeedSet) -> np.ndarray:
        """Batch-stable marginal gains (the serving coalescer's contract).

        Bitwise identical however the candidates are grouped into calls,
        so a coalescing batcher may merge concurrent requests into one
        round and still answer each byte-for-byte as if it ran alone.
        Per-set backends evaluate candidates independently, so the plain
        ``marginal_gains`` already satisfies the contract;
        :class:`BatchedDMSession` overrides this to evolve one shared
        (n, C) block and score each extension row through the canonical
        single-row path (see :meth:`ObjectiveEngine.query_sets`).
        """
        return self.marginal_gains(candidates)

    def rebase(self) -> None:
        """Re-evaluate the base objective against the engine's current state.

        Only valid before any commit: the greedy driver calls this when a
        caller-supplied session predates a ``prepare_budget`` escalation
        that replaced the backend's sample, so the cached base value would
        otherwise come from a different sample than the round gains.
        """
        if len(self._seeds) != self._base_size:
            raise ValueError("cannot rebase a session with commits")
        self._value = float(self.engine.evaluate_one(tuple(self._seeds)))
        self._prefix_values = [self._value]

    def commit(self, seed: int, *, gain: float | None = None) -> float:
        """Fold ``seed`` into the committed state; returns the new value.

        Greedy loops pass the winning ``gain`` they just computed so the
        committed value accumulates exactly as the round trace does;
        without it the extension is evaluated once.
        """
        seed = check_index(seed, "seed")
        if gain is None:
            gain = (
                float(self.engine.evaluate_one(self.seeds + (seed,)))
                - self._value
            )
        self._apply_commit(seed)
        self._seeds.append(seed)
        self._value += float(gain)
        self._prefix_values.append(self._value)
        return self._value

    def _apply_commit(self, seed: int) -> None:
        """Backend hook: update warm state before the seed is recorded."""

    def _on_delta(self, report: DeltaReport, mode: str = "auto") -> None:
        """Refresh session state after the problem absorbed ``report``.

        The backend-agnostic fallback re-evaluates every committed prefix
        against the engine's (already delta-patched) state — always
        correct, no warm state to keep.  Backends with warm trajectories
        override this (see :class:`BatchedDMSession`).
        """
        del mode
        if report.empty:
            return
        values = [
            float(self.engine.evaluate_one(tuple(self._seeds[:i])))
            for i in range(self._base_size, len(self._seeds) + 1)
        ]
        self._prefix_values = values
        self._value = values[-1]

    # ------------------------------------------------------------------
    # Nested-prefix probes (the win-min binary search)
    # ------------------------------------------------------------------
    def _check_prefix(self, k: int) -> int:
        k = int(k)
        if not self._base_size <= k <= len(self._seeds):
            raise ValueError(
                f"prefix size {k} outside committed range "
                f"[{self._base_size}, {len(self._seeds)}]"
            )
        return k

    def prefix_seeds(self, k: int) -> np.ndarray:
        """First ``k`` committed seeds."""
        return np.asarray(self._seeds[: self._check_prefix(k)], dtype=np.int64)

    def prefix_values(self, sizes: Iterable[int]) -> np.ndarray:
        """Objective of each committed prefix size — free, recorded at commit."""
        return np.array(
            [
                self._prefix_values[self._check_prefix(k) - self._base_size]
                for k in sizes
            ],
            dtype=np.float64,
        )

    def prefix_wins(self, k: int) -> bool:
        """Exact Problem-2 winning check for the size-``k`` committed prefix."""
        return self.engine.problem.target_wins(self.prefix_seeds(k))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(|seeds|={len(self._seeds)}, "
            f"value={self._value:.6g})"
        )


class ObjectiveEngine(ABC):
    """Evaluates the FJ-Vote objective for (batches of) seed sets.

    Attributes
    ----------
    supports_batch:
        True when ``evaluate`` is genuinely vectorized over seed sets
        (rather than an internal per-set loop).
    is_estimate:
        True when returned values are statistical estimates of ``F`` (the
        walk/sketch backends) rather than exact DM computations.
    stats:
        :class:`EngineStats` work counters, cumulative over the engine's
        lifetime (call ``stats.reset()`` to start a measurement window).
    """

    supports_batch: bool = False
    is_estimate: bool = False

    def __init__(self, problem: FJVoteProblem) -> None:
        self.problem = problem
        self.stats = EngineStats()
        #: Live sessions, refreshed by :meth:`apply_delta`.  Weak so a
        #: discarded session costs nothing.
        self._sessions: "weakref.WeakSet[SelectionSession]" = weakref.WeakSet()

    def _register_session(self, session: "SelectionSession") -> None:
        self._sessions.add(session)

    # ------------------------------------------------------------------
    @abstractmethod
    def evaluate(self, seed_sets: Iterable[SeedSet]) -> np.ndarray:
        """Objective value of each seed set, as a ``(C,)`` float array."""

    def evaluate_one(self, seeds: SeedSet = ()) -> float:
        """Objective of a single seed set."""
        return float(self.evaluate([seeds])[0])

    def open_session(self, base: SeedSet = ()) -> SelectionSession:
        """Start a stateful selection session rooted at ``base``.

        Backends with warm-startable state return their own session
        subclass; the default replays the committed set statelessly.
        """
        return SelectionSession(self, base)

    def prepare_budget(self, k: int) -> bool:
        """Adapt backend state to an upcoming selection budget ``k``.

        Called by the greedy driver (and win-min) before rounds start.
        No-op for the exact engines; estimator backends use it for
        IMM-style adaptive sample-size escalation and for (ε, δ)
        accounting (see :class:`WalkEngine` and
        :attr:`EngineStats.achieved_epsilon`).  Returns True when the
        backend's evaluation state changed (e.g. a larger sample was
        bound), so the driver can rebase sessions opened beforehand.
        """
        return False

    def apply_delta(self, report: DeltaReport, *, sessions: str = "auto") -> None:
        """Absorb a :class:`~repro.core.problem.DeltaReport` into warm state.

        Call after ``problem.apply_delta`` so engine caches derived from
        the (now surgically updated) problem stay consistent.  The base
        implementation refreshes every live session; backends with
        problem-derived caches (the pre-scaled ``W^T`` of
        :class:`BatchedDMEngine`, a :class:`~repro.core.walk_store.WalkStore`,
        worker-pool replicas) extend it.

        ``sessions`` selects how committed session trajectories are
        refreshed: ``"patch"`` evolves only the delta correction seeded at
        touched nodes, ``"rebuild"`` marks them for a lazy bitwise-exact
        replay, ``"auto"`` patches when the touched set is small.
        """
        if sessions not in ("auto", "patch", "rebuild"):
            raise ValueError(
                f"sessions must be 'auto', 'patch' or 'rebuild', got {sessions!r}"
            )
        for session in list(self._sessions):
            session._on_delta(report, sessions)

    def close(self) -> None:
        """Release backend resources (host connections, device memory).

        No-op for the in-process engines; engines built from a spec by the
        selection entry points are closed when the selection returns.
        Engines support ``with`` blocks for explicit scoping.
        """

    def __enter__(self) -> "ObjectiveEngine":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def marginal_gains(
        self,
        base: SeedSet,
        candidates: SeedSet,
        *,
        base_objective: float | None = None,
    ) -> np.ndarray:
        """Gain of extending ``base`` by each candidate (one stateless round).

        Default: one (possibly batched) ``evaluate`` over the ``C``
        extensions, minus the base objective.  Callers that already track
        the base value pass it via ``base_objective`` — a
        :class:`SelectionSession` does this automatically; otherwise the
        base is (re-)evaluated here.
        """
        base_t = tuple(check_index_array(base, "base").tolist())
        candidates = check_index_array(candidates, "candidates")
        values = self.evaluate([base_t + (c,) for c in candidates.tolist()])
        if base_objective is None:
            base_objective = self.evaluate_one(base_t)
        return values - base_objective

    def query_sets(
        self, seed_sets: Iterable[SeedSet], *, wins: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Values (and optionally Problem-2 wins) of many sets in one call.

        The serving batcher's batch-of-querysets entry: one call answers
        every request coalesced into a round.  The contract is
        *batch-stability* — results are bitwise identical no matter how
        the sets are grouped into calls — so coalesced and serial
        execution agree byte for byte.  The base implementation loops per
        set (per-set backends are trivially batch-stable);
        :class:`BatchedDMEngine` overrides it with one shared (n, C)
        evolution whose horizon rows are then scored one at a time
        through the canonical ``score_target_row`` path, because the
        batched scoring *reduction* is the one place numpy's pairwise
        summation depends on the batch width.
        """
        sets = [tuple(check_index_array(s, "seed set").tolist()) for s in seed_sets]
        values = self.evaluate(sets)
        win_flags: np.ndarray | None = None
        if wins:
            win_flags = np.array(
                [
                    self.problem.target_wins(np.asarray(s, dtype=np.int64))
                    for s in sets
                ],
                dtype=bool,
            )
        return values, win_flags

    def pool_stats(self) -> dict[str, object]:
        """Host-pool accounting for the serving layer's ``stats`` op.

        In-process engines report an empty, never-started pool; the
        multi-host coordinator overrides this with live round / busy-time
        and host fleet accounting (see
        :meth:`~repro.core.engine_mp.HostPool.pool_stats`).
        """
        return {
            "backend": type(self).__name__,
            "workers": 0,
            "started": False,
            "rounds": 0,
            "busy_s": 0.0,
            "idle_s": 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.problem!r})"


class DMEngine(ObjectiveEngine):
    """Per-set exact evaluation: one full FJ evolution per seed set.

    Wraps today's :meth:`FJVoteProblem.objective` unchanged — the parity
    oracle for :class:`BatchedDMEngine` and the ``--engine dm`` legacy path.
    """

    supports_batch = False
    is_estimate = False

    def evaluate(self, seed_sets: Iterable[SeedSet]) -> np.ndarray:
        sets = list(seed_sets)
        self.stats.evaluate_calls += 1
        self.stats.sets_evaluated += len(sets)
        return np.array(
            [
                self.problem.objective(check_index_array(s, "seed set"))
                for s in sets
            ],
            dtype=np.float64,
        )


class BatchedDMSession(SelectionSession):
    """Warm-started session over :class:`BatchedDMEngine`.

    State is the *committed trajectory* — the full ``(horizon+1, n)``
    seeded evolution of the committed set.  ``commit`` extends it by one
    dense delta evolution (one column-step per FJ step); each round's
    ``marginal_gains`` then evolves candidate deltas against it with a
    single pinned coordinate per column, so the sparse phase stays sparse
    for as long as a *fresh* seed's influence stays local, no matter how
    many seeds are already committed.  ``prefix_wins`` keeps a bounded
    cache of probe trajectories so win-min's binary search extends the
    nearest smaller prefix instead of replaying from the empty set.
    """

    #: Probe trajectories kept alive; a binary search over k needs at most
    #: ``log2(k_max)`` of them, each a dense ``(horizon+1, n)`` array.
    PROBE_CACHE_CAP = 32

    def __init__(self, engine: "BatchedDMEngine", base: SeedSet = ()) -> None:
        # Deliberately skips SelectionSession.__init__: the base value is
        # read off the committed trajectory instead of a fresh evaluation.
        self.engine = engine
        engine._register_session(self)
        self._seeds = check_index_array(base, "base").tolist()
        self._traj = engine.problem.target_trajectory(tuple(self._seeds))
        self._value = float(engine.score_target_row(self._traj[-1]))
        self._base_size = len(self._seeds)
        self._prefix_values = [self._value]
        self._probe_cache: dict[int, np.ndarray] = {}
        self._needs_rebuild = False
        self._prefix_dirty = False

    @property
    def value(self) -> float:
        self._ensure_fresh()
        return self._value

    def marginal_gains(self, candidates: SeedSet) -> np.ndarray:
        self._ensure_fresh()
        committed = np.asarray(self._seeds, dtype=np.int64)
        values = self.engine.extension_values(self._traj, committed, candidates)
        return values - self._value

    def coalesced_gains(self, candidates: SeedSet) -> np.ndarray:
        """Batch-stable gains: shared (n, C) evolution, per-row scoring.

        The evolved extension rows are bitwise independent of how the
        candidates are batched (sparse and dense products accumulate per
        column), and every row is scored through ``score_target_row`` —
        always a width-1 reduction — so the gains are too.  The session's
        own base value already comes from ``score_target_row``, keeping
        the subtraction on the same canonical footing.
        """
        self._ensure_fresh()
        committed = np.asarray(self._seeds, dtype=np.int64)
        rows = self.engine.extension_rows(self._traj, committed, candidates)
        values = np.array(
            [self.engine.score_target_row(row) for row in rows],
            dtype=np.float64,
        )
        return values - self._value

    def commit(self, seed: int, *, gain: float | None = None) -> float:
        self._ensure_fresh()
        seed = check_index(seed, "seed")
        self._traj = self.engine.extend_trajectory(
            self._traj,
            np.asarray(self._seeds, dtype=np.int64),
            np.array([seed], dtype=np.int64),
        )
        if gain is None:
            gain = float(self.engine.score_target_row(self._traj[-1])) - self._value
        self._seeds.append(seed)
        self._value += float(gain)
        self._prefix_values.append(self._value)
        return self._value

    # ------------------------------------------------------------------
    # Delta refresh (engine.apply_delta)
    # ------------------------------------------------------------------
    def _on_delta(self, report: DeltaReport, mode: str = "auto") -> None:
        """Patch or lazily rebuild the committed trajectory after a delta.

        Graph/opinion churn that touches the *target* invalidates the
        committed trajectory: the fast path evolves only the correction
        term seeded at the touched nodes and adds it on
        (:meth:`_patch_trajectory`), the fallback marks the session for a
        lazy full replay of its commits — bitwise identical to a session
        built from scratch on the patched problem.  Churn that touches
        only competitors leaves the trajectory valid; just the scores are
        refreshed.  Prefix-probe caches never survive a delta.
        """
        problem = self.engine.problem
        dirty = set(report.touched_by_candidate) | set(report.opinions_by_candidate)
        if not dirty:
            return
        self._probe_cache.clear()
        target = problem.target
        target_dirty = target in dirty
        if not target_dirty:
            # Competitor-only churn: trajectory (target dynamics) intact,
            # but every stored score was computed against stale rivals.
            self._value = float(self.engine.score_target_row(self._traj[-1]))
            self._prefix_values[-1] = self._value
            self._prefix_dirty = len(self._seeds) > self._base_size
            return
        touched = report.target_touched(target)
        opinion_nodes = report.opinions_by_candidate.get(
            target, np.empty(0, dtype=np.int64)
        )
        n = problem.n
        if mode == "patch" or (
            mode == "auto"
            and touched.size + opinion_nodes.size <= max(8, n // 8)
        ):
            self._patch_trajectory(report)
        else:
            self._needs_rebuild = True

    def _ensure_fresh(self) -> None:
        if self._needs_rebuild:
            self._rebuild()

    def _rebuild(self) -> None:
        """Full replay of the committed seeds — the bitwise-exact fallback.

        Reproduces exactly what a fresh session would hold after the same
        commit sequence: the base-seed trajectory plus one
        :meth:`BatchedDMEngine.extend_trajectory` per committed seed, with
        each prefix value read off its horizon row.
        """
        self._needs_rebuild = False
        engine = self.engine
        traj = engine.problem.target_trajectory(tuple(self._seeds[: self._base_size]))
        values = [float(engine.score_target_row(traj[-1]))]
        for i in range(self._base_size, len(self._seeds)):
            traj = engine.extend_trajectory(
                traj,
                np.asarray(self._seeds[:i], dtype=np.int64),
                np.array([self._seeds[i]], dtype=np.int64),
            )
            values.append(float(engine.score_target_row(traj[-1])))
        self._traj = traj
        self._value = values[-1]
        self._prefix_values = values
        self._prefix_dirty = False

    def _patch_trajectory(self, report: DeltaReport) -> None:
        """Evolve the delta correction and add it onto the trajectory.

        Write the committed trajectory as ``b_old`` and the post-delta one
        as ``b_old + e``.  The correction obeys

        ``e(s+1) = (1-d)·(Wₙᵀ e(s)) + (1-d)·(ΔWᵀ b_old(s)) + d·Δb⁰``

        with ``e`` zeroed at pinned (committed/base) seeds.  ``ΔWᵀ`` has
        nonzero rows exactly at the touched nodes, so the forcing term is
        evaluated only there — ``(1-d)·(W_oldᵀ b_old(s))`` is recovered
        from the stored trajectory itself (``b_old(s+1) - d·b⁰_old`` off
        the pins), no copy of the pre-delta matrix needed.  ``e`` is
        carried sparsely; its footprint (and ``stats.sparse_nnz``) scales
        with how far the touched set's influence has spread, not with
        ``n``.  Values match the rebuild to machine precision (the
        bitwise-exact path is :meth:`_rebuild`).
        """
        engine = self.engine
        problem = engine.problem
        n = problem.n
        target = problem.target
        horizon = self._traj.shape[0] - 1
        d = problem.state.stubbornness[target]
        touched = report.target_touched(target)
        nodes, shift = report.opinion_deltas.get(
            target, (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        )
        pins = np.unique(np.asarray(self._seeds, dtype=np.int64))
        pin_mask = np.zeros(n, dtype=bool)
        pin_mask[pins] = True
        # d·Δb⁰ forcing (constant across steps), zero at pins.
        op_force = sparse.csr_matrix((n, 1), dtype=np.float64)
        if nodes.size:
            keep = ~pin_mask[nodes]
            op_force = sparse.csr_matrix(
                (
                    d[nodes[keep]] * shift[keep],
                    (nodes[keep], np.zeros(keep.sum(), dtype=np.int64)),
                ),
                shape=(n, 1),
            )
        wt = engine._wt_scaled
        old = self._traj
        new = old.copy()
        # e(0) = Δb⁰ off the pins.
        e = sparse.csr_matrix((n, 1), dtype=np.float64)
        if nodes.size:
            keep = ~pin_mask[nodes]
            e = sparse.csr_matrix(
                (shift[keep], (nodes[keep], np.zeros(keep.sum(), dtype=np.int64))),
                shape=(n, 1),
            )
            dense0 = np.zeros(n)
            dense0[nodes[keep]] = shift[keep]
            new[0] = old[0] + dense0
        b0_old = problem.state.initial_opinions[target].astype(np.float64).copy()
        if nodes.size:
            b0_old[nodes] -= shift
        free_touched = touched[~pin_mask[touched]] if touched.size else touched
        for s in range(horizon):
            engine.stats.sparse_steps += 1
            engine.stats.sparse_nnz += e.nnz
            e = wt @ e
            # Forcing at touched rows: (1-d)(Wₙᵀ b_old(s)) − (1-d)(W_oldᵀ b_old(s)).
            if free_touched.size:
                new_rows = np.asarray(
                    wt[free_touched] @ old[s], dtype=np.float64
                ).ravel()
                old_rows = (
                    old[s + 1][free_touched] - d[free_touched] * b0_old[free_touched]
                )
                force = sparse.csr_matrix(
                    (
                        new_rows - old_rows,
                        (free_touched, np.zeros(free_touched.size, dtype=np.int64)),
                    ),
                    shape=(n, 1),
                )
                e = e + force
            if op_force.nnz:
                e = e + op_force
            if pins.size:
                e = e.tolil()
                e[pins, 0] = 0.0
                e = e.tocsr()
                e.eliminate_zeros()
            new[s + 1] = old[s + 1] + e.toarray().ravel()
        engine.stats.trajectories_patched += 1
        self._traj = new
        self._value = float(engine.score_target_row(new[-1]))
        self._prefix_values[-1] = self._value
        self._prefix_dirty = len(self._seeds) > self._base_size
        self._needs_rebuild = False

    def _refresh_prefix_values(self) -> None:
        """Recompute committed-prefix values from warm probe rows."""
        values = [
            float(self.engine.score_target_row(self._prefix_horizon_row(k)))
            for k in range(self._base_size, len(self._seeds) + 1)
        ]
        self._prefix_values = values
        self._value = values[-1]
        self._prefix_dirty = False

    def prefix_values(self, sizes: Iterable[int]) -> np.ndarray:
        self._ensure_fresh()
        if self._prefix_dirty:
            self._refresh_prefix_values()
        return super().prefix_values(sizes)

    # ------------------------------------------------------------------
    def _prefix_horizon_row(self, k: int) -> np.ndarray:
        """Horizon target opinions of the size-``k`` prefix, warm-started."""
        k = self._check_prefix(k)
        if k == len(self._seeds):
            return self._traj[-1]
        if k == self._base_size:
            return self.engine.problem.target_trajectory(
                tuple(self._seeds[: self._base_size])
            )[-1]
        cached = self._probe_cache.get(k)
        if cached is not None:
            return cached[-1]
        closest = [j for j in self._probe_cache if j < k]
        if closest:
            j = max(closest)
            base_traj = self._probe_cache[j]
        else:
            j = self._base_size
            base_traj = self.engine.problem.target_trajectory(
                tuple(self._seeds[:j])
            )
        ranking = np.asarray(self._seeds, dtype=np.int64)
        traj = self.engine.extend_trajectory(base_traj, ranking[:j], ranking[j:k])
        while len(self._probe_cache) >= self.PROBE_CACHE_CAP:
            self._probe_cache.pop(next(iter(self._probe_cache)))
        self._probe_cache[k] = traj
        return traj[-1]

    def prefix_wins(self, k: int) -> bool:
        self._ensure_fresh()
        return self.engine.problem.target_wins_from_row(
            self._prefix_horizon_row(k)
        )


class _PinLayout:
    """The pinned coordinates of one ``_evolve_blocks`` call, laid out once.

    :meth:`locate` finds the pins among a product's unsorted CSR entries.
    With at most one pin per column (every session path) a per-column slot
    table answers it in one O(nnz) gather; wider columns search each
    entry's flattened key in the pin keys, sorted here once.  ``by_row`` is
    the order missing pins are spliced in.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, c: int, width: int):
        self.rows = rows
        self.cols = cols
        self.c = c
        self.by_row = np.argsort(rows, kind="stable")
        self.slot_row: np.ndarray | None = None
        if width <= 1:
            # int32 rows: ``take`` gathers them ~40% faster than int64 fancy
            # indexing on the product's int32 indices.
            self.slot_row = np.full(c, -1, dtype=np.int32)
            self.slot_row[cols] = rows
            self.slot_pin = np.zeros(c, dtype=np.int64)
            self.slot_pin[cols] = np.arange(cols.size)
        else:
            keys = rows * np.int64(c) + cols
            self.key_order = np.argsort(keys, kind="stable")
            self.keys = keys[self.key_order]

    def locate(
        self, entry_rows: np.ndarray, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the pinned entries and, for each, its pin index."""
        if self.slot_row is not None:
            hit = np.flatnonzero(self.slot_row.take(indices) == entry_rows)
            return hit, self.slot_pin[indices[hit]]
        entry_keys = entry_rows * np.int64(self.c) + indices
        pos = np.searchsorted(self.keys, entry_keys)
        pos[pos == self.keys.size] = 0
        hit = np.flatnonzero(self.keys[pos] == entry_keys)
        return hit, self.key_order[pos[hit]]


class _ColumnGroup:
    """Columns ``[lo, hi)`` of one ``_evolve_blocks`` call: a contiguous run
    of whole blocks, its pins (``cols`` relative to ``lo``) and, through
    the sparse phase, its own sparse delta."""

    def __init__(self, lo: int, hi: int, pin_rows: np.ndarray, pin_cols: np.ndarray):
        self.lo = lo
        self.hi = hi
        first, last = np.searchsorted(pin_cols, (lo, hi))
        self.rows = pin_rows[first:last]
        self.cols = pin_cols[first:last] - lo
        self.delta: sparse.csr_matrix | None = None
        self.pins: _PinLayout | None = None

    def start(self, base0: np.ndarray, sizes: np.ndarray) -> None:
        """delta(0): seeded coordinates jump to 1, everything else unchanged."""
        c = self.hi - self.lo
        self.delta = sparse.csr_matrix(
            (1.0 - base0[self.rows], (self.rows, self.cols)), shape=(base0.size, c)
        )
        self.pins = _PinLayout(
            self.rows, self.cols, c, int(sizes[self.lo : self.hi].max())
        )

    def block_pins(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The pins of columns ``[lo, hi)``, as block coordinates."""
        first, last = np.searchsorted(self.cols, (lo - self.lo, hi - self.lo))
        return self.rows[first:last], self.cols[first:last] - (lo - self.lo)


class BatchedDMEngine(ObjectiveEngine):
    """Exact DM evaluation of many seed sets in one batched FJ evolution.

    Parameters
    ----------
    problem:
        The FJ-Vote instance.
    user_weights:
        Optional ``(n,)`` per-user weights applied to the separable score's
        contributions (used by the sandwich lower bound, which restricts
        the cumulative score to the favorable users set).  Requires a
        :class:`~repro.voting.scores.SeparableScore`.
    batch_rows:
        Width of the dense column blocks that finish the evolution after
        the shared sparse phase (cache knob: ``n * batch_rows * 8`` bytes
        per block).  Default: auto-sized to stay within
        ``max_batch_bytes``, capped at 64 columns — small enough to keep a
        block LLC-resident through the bandwidth-bound dense products.
        A call with more than ``batch_rows`` columns has several blocks,
        which evolve on ``T`` threads (see ``_evolve_blocks``).
        The cap was picked from ``benchmarks/bench_engine_batched.py``
        runs (500 <= n <= 8000) and kept after a sweep of the two exact
        end-to-end selections on a 2-core Xeon with 2 MiB L2 per core
        (medians over three rounds of seven selections, ms)::

            batch_rows                          16    32    64   128
            select-sparse-celf (dm-batched)    424   337   303   315
            select-dense-mp (2-process pool)   611   436   419   396

        64 is the fastest for the threaded CELF selection; 128 was about
        5% faster for the two-process pool that then ran
        ``select-dense-mp`` (since retired), within this host's noise.
    max_batch_bytes:
        Dense memory budget of one call.  It sizes the default
        ``batch_rows``, caps the sparse phase's fill, and caps the thread
        count ``T`` so that ``2T`` ``(n, batch_rows)`` float64 buffers fit
        in it (two per thread, reused by every block the thread evolves
        and scores).  ``T`` is otherwise the number of cores this process
        may run on (its CPU affinity), read when the engine is built.
    densify_threshold:
        Delta matrices start sparse (a fresh seed only perturbs its t-step
        out-neighborhood) and switch to dense blocks once their fill
        fraction approaches this threshold (see ``_evolve_blocks``).  A
        call with at most two columns ignores it and runs dense from the
        first step: each sparse product walks all of ``W`` twice, while a
        dense one walks it once per column.
    """

    supports_batch = True
    is_estimate = False

    def __init__(
        self,
        problem: FJVoteProblem,
        *,
        user_weights: np.ndarray | None = None,
        batch_rows: int | None = None,
        max_batch_bytes: int = 64_000_000,
        densify_threshold: float = 0.1,
    ) -> None:
        super().__init__(problem)
        self.user_weights: np.ndarray | None = None
        if user_weights is not None:
            if not isinstance(problem.score, SeparableScore):
                raise TypeError(
                    "user_weights requires a separable score, got "
                    f"{type(problem.score).__name__}"
                )
            self.user_weights = np.asarray(user_weights, dtype=np.float64)
            if self.user_weights.shape != (problem.n,):
                raise ValueError(
                    f"user_weights must have shape ({problem.n},), "
                    f"got {self.user_weights.shape}"
                )
        self.max_batch_bytes = int(max_batch_bytes)
        if batch_rows is None:
            batch_rows = max(1, min(64, int(max_batch_bytes // (8 * problem.n))))
        self.batch_rows = int(batch_rows)
        if self.batch_rows < 1:
            raise ValueError(f"batch_rows must be >= 1, got {batch_rows}")
        self.densify_threshold = float(densify_threshold)
        #: Threads that evolve a wide call's column groups (see
        #: ``_evolve_blocks``); pool members set 1.
        self._threads = _usable_cores()
        self._build_wt_scaled()

    def _build_wt_scaled(self) -> None:
        state = self.problem.state
        q = self.problem.target
        d = state.stubbornness[q]
        # W^T with rows pre-scaled by (1 - d): one sparse product per FJ
        # step, ``delta(s+1) = WT_scaled @ delta(s)`` in (n, C) layout.
        self._wt_scaled = (
            sparse.diags(1.0 - d) @ state.graph(q).csc.T
        ).tocsr()
        # Fully-stubborn users leave explicit zero rows behind; prune them
        # so they cost nothing in every subsequent product.
        self._wt_scaled.eliminate_zeros()

    def apply_delta(self, report, *, sessions: str = "auto") -> None:
        """Refresh the pre-scaled operator, then patch live sessions.

        ``_wt_scaled`` derives from the target graph, so it is rebuilt
        (O(nnz), no FJ work) whenever the target's graph was touched;
        session trajectories are then corrected per the ``sessions`` mode
        (see :meth:`ObjectiveEngine.apply_delta`).
        """
        if report.target_touched(self.problem.target).size:
            self._build_wt_scaled()
        super().apply_delta(report, sessions=sessions)

    # ------------------------------------------------------------------
    def open_session(self, base: SeedSet = ()) -> BatchedDMSession:
        return BatchedDMSession(self, base)

    def _normalize_sets(self, seed_sets: Iterable[SeedSet]) -> list[np.ndarray]:
        n = self.problem.n
        out = []
        for s in seed_sets:
            arr = check_index_array(s, "seed set")
            if arr.size > 1:
                arr = np.unique(arr)
            if arr.size and (arr[0] < 0 or arr[-1] >= n):
                raise ValueError("seed indices out of range")
            out.append(arr)
        return out

    def _candidate_sets(self, candidates: SeedSet) -> list[np.ndarray]:
        """One single-seed set per candidate, validated once as an array."""
        cand = check_index_array(candidates, "candidates")
        if cand.size and (cand.min() < 0 or cand.max() >= self.problem.n):
            raise ValueError("seed indices out of range")
        return list(cand.reshape(-1, 1))

    def target_opinion_rows(self, seed_sets: Iterable[SeedSet]) -> np.ndarray:
        """``(C, n)`` horizon opinions about the target, one row per seed set.

        The workhorse: stacks every seed set's delta into an ``(n, C)``
        matrix, evolves all columns through the horizon together, and adds
        back the shared unseeded base trajectory.
        """
        return self._evolved_rows(self._normalize_sets(seed_sets))

    def _evolved_rows(
        self,
        sets: list[np.ndarray],
        *,
        traj: np.ndarray | None = None,
        zero_rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(C, n)`` horizon rows of ``sets`` (see :meth:`_evolve_blocks`)."""
        rows = np.empty((len(sets), self.problem.n), dtype=np.float64)

        def put(lo: int, hi: int, cols: np.ndarray) -> None:
            rows[lo:hi] = cols.T

        self._evolve_blocks(sets, put, traj=traj, zero_rows=zero_rows)
        return rows

    def _chunked_scores(
        self,
        sets: list[np.ndarray],
        *,
        traj: np.ndarray | None = None,
        zero_rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Evolve and score block by block, never materializing all rows.

        Peak dense memory is ``2T`` ``(n, batch_rows)`` buffers (two per
        thread, each block scored on the thread that evolved it), within
        ``max_batch_bytes`` regardless of how many seed sets are
        evaluated, and scoring runs in the evolution's native
        users-by-sets orientation (no transposed traffic).
        """
        out = np.empty(len(sets), dtype=np.float64)

        def score(lo: int, hi: int, cols: np.ndarray) -> None:
            out[lo:hi] = self._score_cols(cols)

        self._evolve_blocks(sets, score, traj=traj, zero_rows=zero_rows)
        return out

    def _evolve_blocks(
        self,
        sets: list[np.ndarray],
        consume: Callable[[int, int, np.ndarray], None],
        *,
        traj: np.ndarray | None = None,
        zero_rows: np.ndarray | None = None,
    ) -> None:
        """Evolve all deltas; ``consume(lo, hi, (n, hi-lo) horizon values)``.

        Two phases.  While influence has spread to few nodes, the seed sets
        evolve as sparse ``(n, C)`` matrices — the sparse phase's fixed
        per-product cost is paid once per column group, not once per
        block — and each product is re-pinned without ever being sorted
        (see :meth:`_repin`).  Once the delta fill approaches the densify
        threshold, columns are sliced into dense ``(n, batch_rows)`` blocks
        (sized to stay cache-resident) that finish the remaining steps
        independently and are handed to ``consume`` one by one.

        Columns never read each other, and the sparse kernels and
        ``csr_matvecs`` release the GIL, so a call with two or more blocks
        runs on ``T`` threads: one per core this process may run on
        (``self._threads``, from its CPU affinity), at most one per block,
        and few enough that their ``2T`` ``(n, batch_rows)`` buffers fit
        ``max_batch_bytes``.  The columns split into ``T`` contiguous
        groups of whole blocks; the calling thread works the first and a
        ``ThreadPoolExecutor`` of ``T - 1`` threads made for the call works
        the rest, so its threads exit when the call ends (or raises), and
        no idle thread is alive at a later ``fork``.

        * **Sparse phase, in lockstep.**  Each group steps its own sparse
          delta — product, :meth:`_repin`, and ``tocsc`` at the switch —
          and every group finishes a step before the next begins.  The
          switch to dense steps is decided between steps from the summed
          ``nnz`` and growth, and every counter is added on the calling
          thread, once per step; a column's entries, and so every sum,
          do not depend on the grouping.
        * **Dense phase and scoring on the evolving thread.**  Each group
          then evolves its blocks one at a time through
          :meth:`_block_steps` and calls ``consume`` on the same thread,
          so ``consume`` must only write the block's own ``[lo, hi)``
          outputs and copy what it keeps: the block's buffer is reused.
        * **Allocation.**  The ``2T`` block buffers are allocated once per
          call, on the calling thread, and reused by every block (a
          narrow tail block takes a contiguous ``n * width`` view).
          Letting pool threads allocate every block, as ``W @ block`` does
          per step, left those arrays in glibc's per-thread malloc arenas:
          on a 2-core Xeon, ``select-sparse-celf``'s peak RSS rose from
          119 to 145 MiB, and back to 122 with ``MALLOC_ARENA_MAX=1``.
          The buffers are allocated only after the sparse phase and the
          groups' ``tocsc``, whose peak they would otherwise raise.  The
          groups' own sparse allocations then cost nothing measurable:
          that selection's wide call peaks at 50 MiB traced and 117-120
          MiB RSS at ``T = 2``, as at ``T = 1``.

        ``T = 1`` — one core or a single-block call (every call of at
        most ``batch_rows`` columns) — runs the one group on the calling
        thread and starts no thread.
        The answers and every counter are the same for any ``T``.

        A narrow call (``C <= 2``) skips the sparse phase and every sparse
        conversion: its delta(0) is written straight into dense blocks
        that take all ``horizon`` steps.  ``csr_matmat_maxnnz`` and
        ``csr_matmat`` each walk every row and nonzero of ``W`` whatever
        delta holds, so a sparse product never costs less than two dense
        column-steps.  Both kernels sum each output entry in ``W``'s row
        order starting from 0, so a column's bytes do not depend on the
        phase that evolved it: the result is the same for any grouping of
        the sets into calls.

        ``traj`` is the base trajectory the deltas perturb (default: the
        cached unseeded one).  ``zero_rows`` lists coordinates already
        pinned *in the base* (a session's committed seeds): anything the
        product propagates into them is zeroed, since base + delta must
        stay 1 there.  That is the warm-start contract — committed seeds
        live in ``traj``, each column pins only its own fresh seeds.
        """
        n = self.problem.n
        c = len(sets)
        if c == 0:
            return
        if traj is None:
            traj = self.problem.target_trajectory()
        zero = None
        if zero_rows is not None:
            zero = np.asarray(zero_rows, dtype=np.int64)
            if not zero.size:
                zero = None
        horizon = self.problem.horizon
        width = self.batch_rows
        sizes = np.array([s.size for s in sets], dtype=np.int64)
        pin_rows = np.concatenate(sets)
        pin_cols = np.repeat(np.arange(c, dtype=np.int64), sizes)
        blocks = -(-c // width)
        budget = self.max_batch_bytes // (16 * n * width)  # 2T block buffers
        threads = max(1, min(self._threads, blocks, budget))
        groups = [
            _ColumnGroup(
                width * (blocks * g // threads),
                min(c, width * (blocks * (g + 1) // threads)),
                pin_rows,
                pin_cols,
            )
            for g in range(threads)
        ]
        # Up to two columns, a sparse product's two passes over W cost at
        # least what the dense product's c passes do (see the docstring).
        narrow = c <= 2
        wt = self._wt_scaled
        base = traj[horizon][:, None]
        stop = threading.Event()
        pool = ThreadPoolExecutor(threads - 1) if threads > 1 else None

        def each_group(fn: Callable[..., object], *args) -> list:
            """``fn(g, *args)`` for every group ``g``, the first on this
            thread; results in group order."""

            def guarded(g: int):
                try:
                    return fn(g, *args)
                except BaseException:
                    stop.set()  # the other groups stop at their next block
                    raise

            futures = [pool.submit(guarded, g) for g in range(1, threads) if pool]
            first = guarded(0)
            return [first, *(f.result() for f in futures)]

        def sparse_step(g: int, s: int) -> tuple[int, int, int]:
            group = groups[g]
            group.delta = wt @ group.delta  # drops the previous delta first
            product_nnz = group.delta.nnz
            # Re-pin in sparse form: zero whatever propagated into the
            # seeded coordinates (including the base's committed ones),
            # then write the pinned values back in.
            group.delta, inserted = self._repin(
                group.delta, group.pins, 1.0 - traj[s][group.rows], zero
            )
            return product_nnz, group.delta.nnz, inserted

        def to_csc(g: int) -> None:
            groups[g].delta = groups[g].delta.tocsc()

        def finish(g: int, steps: range, buffers: np.ndarray) -> None:
            group = groups[g]
            part, group.delta = group.delta, None
            one, two = buffers[g]
            # A block that takes no dense step is scored column-major, the
            # layout ``part.toarray()`` gives: a layout changes the order
            # of a column reduction, and so its bytes.
            order = "F" if part is not None and not steps else "C"
            for lo in range(group.lo, group.hi, width):
                if stop.is_set():
                    return
                hi = min(lo + width, group.hi)
                shape = (n, hi - lo)
                block = one[: n * (hi - lo)].reshape(shape, order=order)
                block.fill(0.0)
                block = self._block_steps(
                    wt,
                    block,
                    two[: n * (hi - lo)].reshape(shape),
                    None if part is None else part[:, lo - group.lo : hi - group.lo],
                    traj,
                    steps,
                    group.block_pins(lo, hi),
                    zero,
                    base,
                )
                consume(lo, hi, block)

        try:
            next_step = 1
            if not narrow:
                for group in groups:
                    group.start(traj[0], sizes)
                # The sparse phase stops once the *next* product is
                # predicted to cost more than its dense counterpart: a
                # sparse-sparse product is ~3x denser-per-nonzero than
                # dense, and the fill cap also bounds sparse-phase memory.
                # Growth starts at the mean out-degree (the expansion rate
                # of a fresh delta) and tracks observed growth.
                nnz_cap = min(self.densify_threshold * n * c, self.max_batch_bytes / 16)
                growth = max(1.0, wt.nnz / max(n, 1))
                nnz = sum(group.delta.nnz for group in groups)
                next_step = horizon + 1
                for s in range(1, horizon + 1):
                    if nnz > nnz_cap or nnz * growth > 3 * nnz_cap:
                        next_step = s  # dense blocks take over from step s
                        break
                    self.stats.sparse_steps += 1
                    self.stats.sparse_nnz += nnz
                    counts = each_group(sparse_step, s)
                    if nnz:
                        growth = sum(k[0] for k in counts) / nnz
                    nnz = sum(k[1] for k in counts)
                    self.stats.repin_steps += 1
                    self.stats.repin_inserted += sum(k[2] for k in counts)
                each_group(to_csc)
            steps = range(next_step, horizon + 1)
            self.stats.dense_column_steps += c * len(steps)
            # Allocated after the sparse phase, whose peak they would raise.
            buffers = np.empty((threads, 2, n * min(width, c)), dtype=np.float64)
            each_group(finish, steps, buffers)
        finally:
            if pool is not None:
                pool.shutdown()

    @staticmethod
    def _block_steps(
        wt: sparse.csr_matrix,
        delta: np.ndarray,
        scratch: np.ndarray,
        part: sparse.csc_matrix | None,
        traj: np.ndarray,
        steps: range,
        pins: tuple[np.ndarray, np.ndarray],
        zero: np.ndarray | None,
        base: np.ndarray,
    ) -> np.ndarray:
        """One dense block's remaining ``steps``, in two reused buffers.

        ``delta`` arrives zeroed and ``scratch`` uninitialized, both
        ``(n, width)`` C-order views of buffers the calling thread
        allocated, and ``part`` is the block's slice of the sparse phase's
        delta (``None`` for a narrow call, whose pins are delta(0)).  Each
        step is :meth:`_dense_steps`' — product, zero the committed rows,
        write the pins — with the product written into the freshly zeroed
        other buffer by the kernel and zeroed output that ``wt @ delta``
        uses (``csr_matvecs``, or ``csr_matvec`` for one column), so the
        bytes are the same and no step allocates an ``(n, width)`` array.
        Returns the buffer holding ``base + delta(horizon)``.
        """
        if part is None:
            delta[pins] = 1.0 - traj[0][pins[0]]
        else:
            part.toarray(out=delta)
        n, width = delta.shape
        # One column: csr_matvec, which W @ x uses, skips csr_matvecs'
        # per-nonzero inner loop of length one.
        kernel = (
            partial(_sparsetools.csr_matvec, n, n)
            if width == 1
            else partial(_sparsetools.csr_matvecs, n, n, width)
        )
        for s in steps:
            scratch.fill(0.0)
            kernel(wt.indptr, wt.indices, wt.data, delta.ravel(), scratch.ravel())
            if zero is not None:
                scratch[zero] = 0.0
            scratch[pins] = 1.0 - traj[s][pins[0]]
            delta, scratch = scratch, delta
        delta += base
        return delta

    def _dense_steps(
        self,
        delta: np.ndarray,
        traj: np.ndarray,
        steps: range,
        pins: tuple[np.ndarray, ...],
        zero: np.ndarray | None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Push a dense delta through FJ ``steps``; returns the last one.

        The one dense step loop: product, zero the rows ``zero`` pins in
        the base (committed seeds), write the pins — ``delta[pins] = 1 -
        traj[s][pins[0]]``, so ``pins`` is ``(rows,)`` for an ``(n,)``
        delta and ``(rows, cols)`` for an ``(n, C)`` one.  With ``out``,
        ``traj[s] + delta(s)`` is recorded in ``out[s]`` after each step.
        Counters are the caller's.
        """
        for s in steps:
            delta = self._wt_scaled @ delta
            if zero is not None:
                delta[zero] = 0.0
            delta[pins] = 1.0 - traj[s][pins[0]]
            if out is not None:
                out[s] = traj[s] + delta
        return delta

    @staticmethod
    def _repin(
        delta: sparse.csr_matrix,
        pins: _PinLayout,
        pin_values: np.ndarray,
        zero: np.ndarray | None,
    ) -> tuple[sparse.csr_matrix, int]:
        """Sort-free re-pin of one sparse-phase product; also returns the
        number of pins inserted (the caller counts them).

        Pinned coordinates the product already stores get data-only
        writes; the rest are appended at the end of their rows.  The
        product's rows are left in ``csr_matmat`` order and the result's
        need not be sorted either: the next product sums each entry in
        ``_wt_scaled``'s row order and every ``delta`` row holds a column
        at most once, so column order changes no value, no ``nnz`` and no
        dropped exact zero — nor does it matter to ``tocsc`` or the dense
        blocks.  The result is therefore never flagged canonical.
        """
        n, c = delta.shape
        data, indices, indptr = delta.data, delta.indices, delta.indptr
        if zero is not None:
            for r in zero:
                data[indptr[r] : indptr[r + 1]] = 0.0
        if pins.rows.size == 0:
            return delta, 0
        entry_rows = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
        hit, hit_pin = pins.locate(entry_rows, indices)
        data[hit] = pin_values[hit_pin]
        found = np.zeros(pins.rows.size, dtype=bool)
        found[hit_pin] = True
        missing = pins.by_row[~found[pins.by_row]]
        m = missing.size
        if not m:
            return delta, 0
        # Row order, not pin order: missing pins of rows with only empty
        # rows between them share one insertion point, and must land there
        # in row order to stay inside their own rows.
        miss_rows = pins.rows[missing]
        dest = indptr[miss_rows + 1] + np.arange(m)
        keep = np.ones(indices.size + m, dtype=bool)
        keep[dest] = False
        new_data = np.empty(keep.size, dtype=data.dtype)
        new_data[keep] = data
        new_data[dest] = pin_values[missing]
        new_indices = np.empty(keep.size, dtype=indices.dtype)
        new_indices[keep] = indices
        new_indices[dest] = pins.cols[missing]
        new_indptr = indptr.copy()
        new_indptr[1:] += np.cumsum(np.bincount(miss_rows, minlength=n)).astype(
            indptr.dtype
        )
        return sparse.csr_matrix((new_data, new_indices, new_indptr), shape=(n, c)), m

    # ------------------------------------------------------------------
    # Warm-start primitives (the session's backend)
    # ------------------------------------------------------------------
    def extension_values(
        self,
        traj: np.ndarray,
        committed: np.ndarray,
        candidates: SeedSet,
    ) -> np.ndarray:
        """Objective of ``committed ∪ {c}`` per candidate, against ``traj``.

        ``traj`` must be the committed set's trajectory, so every column
        carries exactly one pinned coordinate — its fresh candidate — and
        the committed coordinates are zeroed by the base contract.
        """
        sets = self._candidate_sets(candidates)
        if not sets:
            return np.empty(0, dtype=np.float64)
        return self._chunked_scores(sets, traj=traj, zero_rows=committed)

    def extension_rows(
        self,
        traj: np.ndarray,
        committed: np.ndarray,
        candidates: SeedSet,
    ) -> np.ndarray:
        """``(C, n)`` horizon rows of ``committed ∪ {c}`` per candidate.

        Same warm-start contract as :meth:`extension_values`, but the
        evolved rows come back unscored.  They are batch-stable (bitwise
        identical for any candidate grouping), which lets callers score
        each row through the canonical width-1 ``score_target_row`` path
        — the basis of :meth:`SelectionSession.coalesced_gains` and the
        serving batcher.
        """
        sets = self._candidate_sets(candidates)
        return self._evolved_rows(sets, traj=traj, zero_rows=committed)

    def extend_trajectory(
        self,
        traj: np.ndarray,
        committed: np.ndarray,
        new_seeds: np.ndarray,
    ) -> np.ndarray:
        """Trajectory of ``committed ∪ new_seeds``, warm-started from ``traj``.

        One dense ``(n,)`` delta pushed through the horizon — the commit /
        prefix-probe path.  Each step costs one column-step
        (``stats.trajectory_steps``).
        """
        new = np.unique(check_index_array(new_seeds, "new seeds"))
        if new.size and (new[0] < 0 or new[-1] >= self.problem.n):
            raise ValueError("seed indices out of range")
        committed = check_index_array(committed, "committed seeds")
        horizon = traj.shape[0] - 1
        out = np.empty_like(traj)
        delta = np.zeros(self.problem.n, dtype=np.float64)
        delta[new] = 1.0 - traj[0][new]
        out[0] = traj[0] + delta
        self._dense_steps(
            delta,
            traj,
            range(1, horizon + 1),
            (new,),
            committed if committed.size else None,
            out,
        )
        self.stats.trajectory_steps += horizon
        return out

    # ------------------------------------------------------------------
    def score_rows(self, rows: np.ndarray) -> np.ndarray:
        """Score each ``(C, n)`` target-opinion row under the problem's score."""
        score = self.problem.score
        if self.user_weights is not None:
            contrib = score.contributions_batch(rows, self.problem.others_by_user())
            return contrib @ self.user_weights
        if isinstance(score, SeparableScore):
            contrib = score.contributions_batch(rows, self.problem.others_by_user())
            return contrib.sum(axis=1)
        return score.score_targets(rows, self.problem.others_by_user())

    def _score_cols(self, cols: np.ndarray) -> np.ndarray:
        """Score ``(n, C)`` users-by-sets opinions via the transposed paths."""
        score = self.problem.score
        if self.user_weights is not None:
            contrib = score.contributions_batch_T(cols, self.problem.others_by_user())
            return self.user_weights @ contrib
        if isinstance(score, SeparableScore):
            contrib = score.contributions_batch_T(cols, self.problem.others_by_user())
            return contrib.sum(axis=0, dtype=np.float64)
        return score.score_targets_T(cols, self.problem.others_by_user())

    def score_target_row(self, row: np.ndarray) -> float:
        """Objective from one ``(n,)`` target horizon row (session base value)."""
        return float(self._score_cols(np.ascontiguousarray(row)[:, None])[0])

    def evaluate(self, seed_sets: Iterable[SeedSet]) -> np.ndarray:
        sets = self._normalize_sets(seed_sets)
        self.stats.evaluate_calls += 1
        self.stats.sets_evaluated += len(sets)
        if not sets:
            return np.empty(0, dtype=np.float64)
        return self._chunked_scores(sets)

    def query_sets(
        self, seed_sets: Iterable[SeedSet], *, wins: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One shared (n, C) evolution, canonically scored row by row.

        The evolution (``target_opinion_rows``' machinery) is batch-stable;
        scoring and win checks run per row so they are width-1 reductions
        regardless of ``C`` — coalesced and serial calls agree bitwise.
        """
        sets = self._normalize_sets(seed_sets)
        self.stats.evaluate_calls += 1
        self.stats.sets_evaluated += len(sets)
        values = np.empty(len(sets), dtype=np.float64)
        win_flags = np.empty(len(sets), dtype=bool) if wins else None

        def score(lo: int, hi: int, cols: np.ndarray) -> None:
            for j in range(lo, hi):
                row = np.ascontiguousarray(cols[:, j - lo])
                values[j] = self.score_target_row(row)
                if win_flags is not None:
                    win_flags[j] = self.problem.target_wins_from_row(row)

        self._evolve_blocks(sets, score)
        return values, win_flags


class WalkSession(SelectionSession):
    """Session over the walk estimators.

    Commits apply post-generation truncation immediately, so the next
    round's sync against the committed prefix is a no-op extension rather
    than a reset-and-replay of the whole seed sequence.
    """

    def commit(self, seed: int, *, gain: float | None = None) -> float:
        value = super().commit(seed, gain=gain)
        self.engine._sync(self._seeds)
        return value


class WalkEngine(ObjectiveEngine):
    """Walk/sketch estimators behind the engine interface (§V / §VI).

    The one greedy path of Algorithms 4 and 5: the ``rw``, ``sketch`` and
    ``rw-store`` specs, and :func:`~repro.core.random_walk.random_walk_select`
    and :func:`~repro.core.sketch.sketch_select` (which only choose the
    sample size), all run :func:`~repro.core.greedy.greedy_engine` over
    this engine.  It serves a
    :class:`~repro.core.random_walk.TruncatedWalks` view drawn from a
    :class:`~repro.core.walk_store.WalkStore` (a private one unless a
    shared store is supplied) through the
    :class:`~repro.core.random_walk.WalkGreedyOptimizer` scoring kernel;
    seed sets are applied by post-generation truncation, and a pristine
    snapshot of the truncation state lets arbitrary (non-incremental) seed
    sets be evaluated by reset-and-replay.  ``marginal_gains`` reuses the
    kernel's single vectorized all-candidates scan, so a greedy round is
    one pass regardless of the candidate count; sessions keep the
    truncation state synced to the committed prefix, which makes each
    incremental sync one ``add_seed`` instead of a replay.

    Walks are generated in deterministic seed-per-block units by the
    store, so two engines built from the same ``rng`` — or sharing one
    store — see byte-identical walks and make byte-identical selections.

    Parameters
    ----------
    grouping:
        ``"start"`` — Algorithm 4 (RW): ``walks_per_node`` walks from every
        node (one count, or a per-node ``λ`` array), per-user averaged
        estimates.  ``"walk"`` — Algorithm 5 (RS): ``theta`` uniform-start
        sketch walks, rescaled by ``n / theta``.
    store:
        A shared :class:`~repro.core.walk_store.WalkStore` to draw from;
        ``None`` builds a private one seeded from ``rng``.
    store_dir:
        Directory for a private *persistent* store (the
        ``rw-store:mmap=<DIR>`` spec / CLI ``--store-dir``): blocks
        persist as ``.npy`` files and a re-opened store regenerates
        nothing.  Mutually exclusive with ``store`` — a supplied store
        already decided where its blocks live.
    adaptive:
        Enable IMM-style adaptive sample-size escalation in
        :meth:`prepare_budget`: the sample grows in reuse-friendly
        doublings until the (ε, δ) bound for the requested ``epsilon``
        holds (Hoeffding per-node counts for ``"start"``, the §VI
        martingale θ ladder for ``"walk"``), replacing the fixed walk
        counts.  Escalation never regenerates: every doubling extends the
        store's pools.
    epsilon, rho, ell:
        Requested precision and confidence.  Whether or not ``adaptive``
        is set, :meth:`prepare_budget` records the *achieved* ε in
        ``stats.achieved_epsilon`` and warns
        (:class:`EstimatorPrecisionWarning`) when a requested ``epsilon``
        cannot be certified.  What ε *means* depends on the grouping: for
        ``"start"`` it is the per-user Hoeffding quantity
        ``sqrt(ln(2/(1-ρ)) / 2λ)`` — the opinion error δ of Theorem 10
        for the cumulative score, and equivalently the smallest certified
        rank margin γ of Theorem 11 for the rank scores (Theorem 12's
        one-sided Copeland bound needs strictly fewer walks, so this is
        conservative for it); per-node counts certify their smallest
        ``λ_v``.  For ``"walk"`` it is Theorem 13's
        score-level approximation ε, which exists only for the cumulative
        score — rank scores have no closed form (§VI-E) and always warn
        when an ``epsilon`` is requested.
    theta_cap, lambda_cap:
        Hard sample caps for the adaptive ladders (escalation past them
        triggers the precision warning instead of unbounded growth).

    ``walks_per_node``, ``theta`` and the caps must be positive integers
    and ``epsilon`` positive; any other value raises ``ValueError``
    naming it.
    """

    supports_batch = True
    is_estimate = True

    def __init__(
        self,
        problem: FJVoteProblem,
        *,
        grouping: str = "start",
        walks_per_node: int | np.ndarray = 32,
        theta: int = 4000,
        rng: int | np.random.Generator | None = None,
        store=None,
        store_dir=None,
        adaptive: bool = False,
        epsilon: float | None = None,
        rho: float = 0.9,
        ell: float = 1.0,
        theta_cap: int | None = None,
        lambda_cap: int | None = 1024,
    ) -> None:
        super().__init__(problem)
        from repro.core.walk_store import WalkStore

        if grouping not in ("start", "walk"):
            raise ValueError(f"grouping must be 'start' or 'walk', got {grouping!r}")
        walks_per_node = check_count(walks_per_node, "walks_per_node")
        theta = check_count(theta, "theta")
        check_positive(epsilon, "epsilon")
        theta_cap = check_count(theta_cap, "theta_cap")
        lambda_cap = check_count(lambda_cap, "lambda_cap")
        if store is None:
            store = WalkStore(
                problem.state, problem.horizon, seed=rng, store_dir=store_dir
            )
        else:
            store.require_problem(problem)
            if store_dir is not None:
                from pathlib import Path

                if store.store_dir is None or Path(store_dir) != store.store_dir:
                    raise ValueError(
                        "store_dir conflicts with the supplied store; "
                        "persist by building the shared store with "
                        "store_dir instead"
                    )
        self.store = store
        self.grouping = grouping
        #: One count for every node, or a per-node ``λ`` array.
        self.walks_per_node = walks_per_node
        self.theta = theta
        self.adaptive = bool(adaptive)
        self.epsilon = None if epsilon is None else float(epsilon)
        self.rho = float(rho)
        self.ell = float(ell)
        self.theta_cap = theta_cap
        self.lambda_cap = lambda_cap
        self._prepared_k: int | None = None
        self._opt_lb: float | None = None
        self._bind_count = 0
        if grouping == "start":
            if self.adaptive:
                # The per-node escalation target is closed-form and
                # budget-independent, so bind the escalated sample once
                # here instead of building (and indexing) a throwaway
                # fixed-count view that prepare_budget would replace.
                self.walks_per_node = np.maximum(
                    self.walks_per_node, self._per_node_target()
                )
            self._bind_walks(store.per_node_view(problem.target, self.walks_per_node))
        elif self.adaptive:
            # θ escalation needs the budget, so the first bind is
            # deferred to prepare_budget (or the first evaluation) — the
            # default-θ view is never materialized just to be replaced.
            self.walks = None
            self.optimizer = None
        else:
            self._bind_walks(store.uniform_view(problem.target, self.theta))

    def _ensure_bound(self) -> None:
        """Bind the deferred initial walk view (adaptive sketch engines)."""
        if self.walks is None:
            self._bind_walks(
                self.store.uniform_view(self.problem.target, self.theta)
            )

    def _bind_walks(self, walks) -> None:
        """Adopt a walk view: rebuild the optimizer and pristine snapshot.

        The snapshot shares the arrays (copy-on-write in ``add_seed``): a
        reset is an O(1) pointer swap and only the first truncation after
        it pays a copy, instead of every array being copied twice — once
        here and once per restore.
        """
        from repro.core.random_walk import WalkGreedyOptimizer

        problem = self.problem
        self._bind_count += 1
        self.walks = walks
        self.optimizer = WalkGreedyOptimizer(
            walks,
            problem.score,
            None
            if isinstance(problem.score, CumulativeScore)
            else problem.others_by_user(),
            grouping=self.grouping,
        )
        self._snapshot = self.walks.snapshot_state()

    # ------------------------------------------------------------------
    # Adaptive sampling and (ε, δ) accounting
    # ------------------------------------------------------------------
    def prepare_budget(self, k: int) -> bool:
        """Escalate the sample for budget ``k`` and account the precision.

        Idempotent per budget: re-preparing a smaller-or-equal ``k`` is
        free, a larger one re-runs the ladder (reusing every walk drawn).
        Returns True when escalation replaced the bound walk view.
        """
        k = int(k)
        if self._prepared_k is not None and k <= self._prepared_k:
            return False
        before = self._bind_count
        if self.adaptive:
            self._escalate(k)
        self._ensure_bound()
        self._account_precision(k)
        # Recorded only after escalation/accounting succeed: a failed
        # escalation (worker death, allocation failure) must not mark the
        # budget prepared, or a retry would silently run on the small
        # sample with no precision accounting.
        self._prepared_k = k
        return self._bind_count != before

    def _per_node_target(self) -> int:
        """Escalated per-node walk count: the (capped) Hoeffding bound.

        Theorem 10's count for ``|b̂ - b| < ε`` with probability ρ —
        closed-form and budget-independent, so adaptive ``"start"``
        engines bind it directly (no observation is made between
        doublings that could change the target).
        """
        from repro.core.bounds import lambda_cumulative

        eps = 0.1 if self.epsilon is None else self.epsilon
        target = lambda_cumulative(eps, self.rho)
        if self.lambda_cap is not None:
            target = min(target, self.lambda_cap)
        return int(target)

    def _escalate(self, k: int) -> None:
        if self.grouping == "start":
            return  # the per-node target was bound at construction
        from repro.core import sketch
        from repro.core.bounds import theta_cumulative

        eps = 0.1 if self.epsilon is None else self.epsilon
        if isinstance(self.problem.score, CumulativeScore):
            # IMM-style martingale ladder (§VI-B): the OPT lower-bound
            # rounds and the final θ all extend one store pool.
            self._opt_lb = sketch.estimate_opt_cumulative(
                self.problem,
                k,
                store=self.store,
                epsilon=eps,
                ell=self.ell,
                theta_cap=self.theta_cap,
            )
            theta = theta_cumulative(self.problem.n, k, self._opt_lb, eps, self.ell)
        else:
            # §VI-E heuristic for the rank scores: double θ to convergence.
            theta = sketch.converge_theta(
                self.problem,
                k,
                store=self.store,
                theta_start=self.theta,
                theta_max=self.theta_cap,
            )
        if self.theta_cap is not None:
            theta = min(theta, self.theta_cap)
        if theta > self.theta:
            self.theta = theta
            # Invalidate any currently bound view; the _ensure_bound that
            # follows escalation binds once at the final θ.
            self.walks = None
            self.optimizer = None

    def _account_precision(self, k: int) -> None:
        from repro.core.bounds import delta_achieved, epsilon_achieved_cumulative

        requested = self.epsilon
        achieved: float | None
        if self.grouping == "start":
            # Certified per-user quantity: opinion error δ (Theorem 10)
            # and rank margin γ (Theorem 11) share this formula; it is
            # conservative for Copeland's one-sided Theorem 12.  The
            # score-level guarantee for rank scores lives at the "walk"
            # grouping, where it has no closed form and warns instead.
            # Per-node counts certify only their smallest λ_v.
            achieved = delta_achieved(int(np.min(self.walks_per_node)), self.rho)
        elif isinstance(self.problem.score, CumulativeScore):
            lb = self._opt_lb if self._opt_lb is not None else float(max(k, 1))
            achieved = epsilon_achieved_cumulative(
                self.problem.n, k, lb, self.walks.num_walks, self.ell
            )
        else:
            achieved = None  # no closed form for the rank scores (§VI-E)
        self.stats.requested_epsilon = 0.0 if requested is None else requested
        self.stats.achieved_epsilon = 0.0 if achieved is None else achieved
        if requested is not None and (
            achieved is None or achieved > requested + 1e-12
        ):
            self.stats.precision_unmet += 1
            if achieved is None:
                detail = (
                    "no closed-form (ε,δ) guarantee exists for this score; "
                    "the sample followed the §VI-E convergence heuristic"
                )
            else:
                detail = f"the sample budget only certifies ε≈{achieved:.4g}"
            warnings.warn(
                EstimatorPrecisionWarning(
                    f"requested ε={requested:g} for budget k={k}, but {detail} "
                    f"({self.walks.num_walks} walks); raise the sample caps "
                    "or use an exact DM engine"
                ),
                stacklevel=3,
            )

    def apply_delta(self, report, *, sessions: str = "auto") -> None:
        """Patch the walk store, rebind the walk view, refresh sessions.

        Store patching is idempotent per graph version, so engines
        sharing one store can each forward the same report.  Opinion-only
        deltas leave every stored walk byte intact — the rebound view just
        reads its estimates from the new ``B⁰``.
        """
        if report.empty:
            return
        self.store.apply_delta(report)
        if self.walks is not None:
            if self.grouping == "start":
                self._bind_walks(
                    self.store.per_node_view(self.problem.target, self.walks_per_node)
                )
            else:
                self._bind_walks(
                    self.store.uniform_view(self.problem.target, self.theta)
                )
        super().apply_delta(report, sessions=sessions)

    # ------------------------------------------------------------------
    def open_session(self, base: SeedSet = ()) -> WalkSession:
        return WalkSession(self, base)

    def _reset(self) -> None:
        self.walks.restore_state(self._snapshot)

    def _sync(self, seeds: SeedSet) -> None:
        """Make the truncation state reflect exactly ``seeds``."""
        want = check_index_array(seeds, "seed set").tolist()
        have = self.walks.seeds
        if have == want[: len(have)]:
            new = want[len(have) :]
        else:
            self._reset()
            new = want
        for v in new:
            self.walks.add_seed(v)

    def evaluate(self, seed_sets: Iterable[SeedSet]) -> np.ndarray:
        self._ensure_bound()
        sets = list(seed_sets)
        self.stats.evaluate_calls += 1
        self.stats.sets_evaluated += len(sets)
        out = []
        for s in sets:
            self._sync(s)
            out.append(self.optimizer.estimated_score())
        return np.array(out, dtype=np.float64)

    def marginal_gains(
        self,
        base: SeedSet,
        candidates: SeedSet,
        *,
        base_objective: float | None = None,
    ) -> np.ndarray:
        self._ensure_bound()
        candidates = check_index_array(candidates, "candidates")
        # The optimizer's vectorized pass scores every node at once; for a
        # handful of candidates (CELF stale-entry refreshes) per-candidate
        # evaluation is cheaper than the all-nodes scan.
        if candidates.size < 8:
            return super().marginal_gains(
                base, candidates, base_objective=base_objective
            )
        self._sync(base)
        return self.optimizer.marginal_gains()[candidates]


def _make_dm(problem, rng, **kwargs):
    return DMEngine(problem)


def _make_dm_batched(problem, rng, **kwargs):
    return BatchedDMEngine(problem, **kwargs)


def _make_dm_mp(problem, rng, **kwargs):
    from repro.core.engine_mp import HostPool

    return HostPool(problem, **kwargs)


def _make_rw(problem, rng, **kwargs):
    return WalkEngine(problem, grouping="start", rng=rng, **kwargs)


def _make_sketch(problem, rng, **kwargs):
    return WalkEngine(problem, grouping="walk", rng=rng, **kwargs)


def _make_rw_store(problem, rng, **kwargs):
    # The shared-walk-store estimator: rw semantics (per-node grouping) on
    # a walk store, with IMM-style adaptive sample escalation on by
    # default.  ``adaptive=False`` with matching fixed counts reproduces
    # the plain ``rw`` engine byte for byte.
    kwargs.setdefault("grouping", "start")
    kwargs.setdefault("adaptive", True)
    kwargs.setdefault("epsilon", 0.1)
    return WalkEngine(problem, rng=rng, **kwargs)


#: Registry behind :func:`make_engine`; the single source of truth for
#: :data:`ENGINE_NAMES`, the CLI ``--engine`` choices/help text, and the
#: unknown-spec error message.
_ENGINE_FACTORIES = {
    "dm": _make_dm,
    "dm-batched": _make_dm_batched,
    "dm-mp": _make_dm_mp,
    "rw": _make_rw,
    "sketch": _make_sketch,
    "rw-store": _make_rw_store,
}

#: Engine spec names accepted by :func:`make_engine` (and ``--engine``).
ENGINE_NAMES = tuple(_ENGINE_FACTORIES)

#: Exact DM backends: deterministic, parity-checked against each other.
EXACT_DM_NAMES = ("dm", "dm-batched", "dm-mp")

#: Engines whose spec takes a leading ``:<positive int>`` count.  Both are
#: accepted spellings, validated and then dropped: a local ``dm-mp:<W>``
#: is ``dm-batched`` (which already splits wide calls over every core),
#: and the walk store has no shard count.
_SPEC_COUNTS = ("dm-mp", "rw-store")

#: One-line description per engine spec, rendered into the CLI help.
ENGINE_HELP = {
    "dm": "legacy per-set exact DM",
    "dm-batched": "vectorized exact DM over every core, the default",
    "dm-mp": (
        "exact DM sharded across remote hosts "
        "(dm-mp:tcp=<host:port,...> — one chunk shard per "
        "'repro net-worker' host; the local spellings "
        "dm-mp[:<workers>][:pipe|:shm] run dm-batched)"
    ),
    "rw": "random-walk estimator",
    "sketch": "sketch estimator",
    "rw-store": (
        "shared-walk-store estimator, adaptive sampling "
        "(rw-store[:mmap=<DIR>] — mmap = persistent on-disk walk blocks)"
    ),
}

#: Suffixes a local ``dm-mp`` spelling may carry, accepted and dropped:
#: ``BENCHMARK.json``'s ``select-dense-mp`` still names ``dm-mp:2:shm``.
_LOCAL_DM_MP_SUFFIXES = ("pipe", "shm")


def _spec_error(spec: object) -> ValueError:
    """The registry's single unknown/malformed-spec error.

    Every parse failure — unknown names, non-strings, bad counts,
    suffixes on the wrong engine — raises this one message; the CLI
    ``--engine`` option and the serving layer surface it verbatim.
    """
    return ValueError(
        f"unknown engine {spec!r}; expected one of {ENGINE_NAMES} "
        "(parameterized forms: 'dm-mp:tcp=<host:port,...>' and "
        "'rw-store[:S]:mmap=<DIR>'; 'dm-mp:<workers>', 'rw-store:<shards>' "
        "(both >= 1) and 'dm-mp[:W]:pipe' / 'dm-mp[:W]:shm' are accepted "
        "spellings of 'dm-batched' and 'rw-store')"
    )


@dataclass(frozen=True)
class EngineSpec:
    """Structured engine spec: the typed form of the ``--engine`` grammar.

    The string grammar (:meth:`parse`) stays the user-facing front-end;
    code should hold the parsed spec and use :meth:`canonical` (the
    normalized string — equivalent spellings like ``dm-mp:2:shm`` and
    ``dm-batched`` canonicalize identically, which is what the serving
    hub keys warm engines by), :meth:`build` (construct the engine via
    the registry) and :meth:`with_store_dir` (the ``--store-dir``
    rewrite).  Instances are frozen and hashable, so they work as cache
    keys directly.

    ``hosts`` carries the ``host:port`` targets of the multi-host
    coordinator and only applies to ``dm-mp``: a ``dm-mp`` spec without
    hosts *is* ``dm-batched`` (the name is normalized at construction).
    ``store_dir`` only applies to ``rw-store``.  Violations raise
    ``ValueError`` at construction.
    """

    name: str
    store_dir: str | None = None
    hosts: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.name not in _ENGINE_FACTORIES:
            raise _spec_error(self.name)
        object.__setattr__(self, "hosts", tuple(str(h) for h in self.hosts))
        if self.name == "dm-mp" and not self.hosts:
            object.__setattr__(self, "name", "dm-batched")
        if self.store_dir is not None:
            if self.name != "rw-store":
                raise ValueError(
                    f"'store_dir' only applies to rw-store, not {self.name!r}"
                )
            object.__setattr__(self, "store_dir", str(self.store_dir))
            if not self.store_dir:
                raise ValueError("rw-store mmap directory must be non-empty")
        if not self.hosts:
            return
        if self.name != "dm-mp":
            raise ValueError(f"'hosts' only applies to dm-mp, not {self.name!r}")
        for entry in self.hosts:
            host, sep, port = entry.rpartition(":")
            if (
                not sep
                or not host
                or "," in entry
                or not port.isdigit()
                or not 0 < int(port) < 65536
            ):
                raise ValueError(
                    f"malformed dm-mp:tcp host {entry!r}; expected "
                    "host:port with a port in [1, 65535]"
                )

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: "str | EngineSpec") -> "EngineSpec":
        """Parse the ``--engine`` grammar (idempotent on EngineSpec).

        Accepts every bare name in :data:`ENGINE_NAMES` plus the
        parameterized forms: ``dm-mp:tcp=<host:port,...>`` (the
        multi-host coordinator; the host list runs to the end of the
        spec, so ports keep their colons), ``rw-store[:S]:mmap=<DIR>``
        (the persistent on-disk store; the directory is taken verbatim
        to the end of the spec, so paths may contain colons), and the
        accepted spellings that parse away: a positive count
        (``dm-mp:<W>``, ``rw-store:<S>``) and the ``dm-mp[:W]:pipe`` /
        ``dm-mp[:W]:shm`` suffixes.  Every local ``dm-mp`` spelling is
        ``dm-batched``.  Anything else — unknown names, non-strings,
        malformed or non-positive counts like ``"dm-mp:"`` /
        ``"rw-store:0"`` / ``"dm-mp:-2"``, suffixes on the wrong engine,
        out-of-order or repeated segments — raises the registry's single
        ``ValueError``.
        """
        if isinstance(spec, EngineSpec):
            return spec
        if isinstance(spec, str):
            name, sep, rest = spec.partition(":")
            if name in _ENGINE_FACTORIES:
                if not sep:
                    return cls(name)
                if rest:
                    try:
                        return cls._parse_params(name, rest)
                    except ValueError:
                        pass
        raise _spec_error(spec)

    @classmethod
    def _parse_params(cls, name: str, rest: str) -> "EngineSpec":
        """Parse the segments after ``<name>:`` (raises on any misfit)."""
        if name == "dm-mp" and rest.startswith("tcp="):
            hostlist = rest[len("tcp=") :]
            if not hostlist:
                raise ValueError("dm-mp:tcp needs at least one host:port")
            return cls(name, hosts=tuple(hostlist.split(",")))
        if name in _SPEC_COUNTS:
            first, sep, more = rest.partition(":")
            if first.isdigit():
                if int(first) < 1:
                    raise _spec_error(first)
                rest = more if sep else ""
        store_dir: str | None = None
        if rest:
            if name == "dm-mp" and rest in _LOCAL_DM_MP_SUFFIXES:
                pass
            elif name == "rw-store" and rest.startswith("mmap="):
                store_dir = rest[len("mmap=") :]
            else:
                raise _spec_error(rest)
        return cls(name, store_dir=store_dir)

    # ------------------------------------------------------------------
    def canonical(self) -> str:
        """The normalized spec string: ``parse(canonical()) == self``.

        Accepted spellings are dropped (no counts, no ``:pipe`` or
        ``:shm``, no hostless ``dm-mp``), so every set of equivalent
        spellings maps to exactly one canonical string — the key the
        serving hub de-duplicates warm engines by.
        """
        parts = [self.name]
        if self.hosts:
            parts.append("tcp=" + ",".join(self.hosts))
        if self.store_dir is not None:
            parts.append(f"mmap={self.store_dir}")
        return ":".join(parts)

    def kwargs(self) -> dict[str, object]:
        """The factory kwargs this spec pins (only the fields it sets)."""
        out: dict[str, object] = {}
        if self.hosts:
            out["hosts"] = self.hosts
        if self.store_dir is not None:
            out["store_dir"] = self.store_dir
        return out

    def build(
        self,
        problem: FJVoteProblem,
        rng: "int | np.random.Generator | None" = None,
        **kwargs: object,
    ) -> "ObjectiveEngine":
        """Construct the engine through the registry factory.

        ``kwargs`` override/extend the spec's own (``store=`` for a
        shared walk store, ``batch_rows=`` tuning, ...), exactly like
        :func:`make_engine`'s extras.
        """
        factory = _ENGINE_FACTORIES[self.name]
        return factory(problem, rng, **{**self.kwargs(), **kwargs})

    def with_store_dir(self, store_dir: "str | None") -> "EngineSpec":
        """The ``--store-dir`` spec rewrite, shared by CLI and server.

        ``rw-store`` specs gain ``store_dir`` (the ``:mmap=<DIR>``
        suffix); other engines and a falsy ``store_dir`` pass through
        unchanged.  A spec already pinning a *different* directory
        raises ``ValueError`` — the callers surface it as the
        ``--store-dir`` conflict error.
        """
        if not store_dir or self.name != "rw-store":
            return self
        if self.store_dir is None:
            return replace(self, store_dir=str(store_dir))
        if self.store_dir != str(store_dir):
            raise ValueError(
                f"--store-dir {str(store_dir)!r} conflicts with the engine "
                f"spec's mmap directory {self.store_dir!r}"
            )
        return self

    def __str__(self) -> str:
        return self.canonical()


def spec_is_exact_dm(spec: object) -> bool:
    """True when ``spec`` names an exact DM backend (``None`` = default).

    Covers the parameterized ``dm-mp`` forms (the tcp hosts run the same
    exact batched engine; the local spellings are ``dm-batched``) and
    :class:`EngineSpec` instances; engine instances and estimator specs
    return False.
    """
    if spec is None:
        return True
    try:
        return EngineSpec.parse(spec).name in EXACT_DM_NAMES
    except ValueError:
        return False


def make_engine(
    spec: "str | EngineSpec | ObjectiveEngine | None",
    problem: FJVoteProblem,
    *,
    rng: int | np.random.Generator | None = None,
    **kwargs: object,
) -> ObjectiveEngine:
    """Build an engine from a spec (see :data:`ENGINE_NAMES`).

    Passing an :class:`ObjectiveEngine` instance returns it unchanged (its
    ``kwargs`` are ignored); ``None`` means the default ``"dm-batched"``.
    Spec strings may carry parameters (``"dm-mp:tcp=a:7001,b:7002"`` =
    two remote hosts) and :class:`EngineSpec` instances are accepted
    directly.
    ``rng`` seeds the stochastic (walk/sketch) backends so selections
    stay reproducible; the exact DM backends ignore it.  Unknown or
    malformed specs raise ``ValueError`` listing every registered name
    (see :meth:`EngineSpec.parse`).
    """
    if isinstance(spec, ObjectiveEngine):
        if spec.problem is not problem:
            raise ValueError(
                "engine instance is bound to a different problem; build one "
                "for this problem (engines cache problem-specific state)"
            )
        return spec
    if spec is None:
        spec = "dm-batched"
    if not isinstance(spec, (str, EngineSpec)):
        raise _spec_error(spec)
    return EngineSpec.parse(spec).build(problem, rng, **kwargs)
