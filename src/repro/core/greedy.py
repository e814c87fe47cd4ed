"""Greedy seed selection (paper Algorithm 1), pruned by certified bounds.

One *round-driver*, :func:`run_selection_rounds`, runs every greedy round
over a :class:`~repro.core.engine.SelectionSession` — greedy state (the
committed seeds, their objective, and any backend warm-start state) lives
in the session, not in per-algorithm loops.  ``greedy_select`` drives it
over a black-box set function; ``greedy_engine`` drives it over an
:class:`~repro.core.engine.ObjectiveEngine` session; ``greedy_dm``
instantiates it with exact opinion computation via direct matrix
multiplication (the DM method of §VIII-A, batched by default).

Algorithm 1 evaluates every candidate's gain in every round, yet only a
few can win a round.  The exact DM sessions certify an upper bound on
every candidate's gain in one reverse pass of ``t`` sparse mat-vecs
(:func:`~repro.core.engine.gain_bounds`), so a round evaluates candidates
in descending bound order and stops as soon as no remaining bound can
beat the best exact gain.  With ``lazy=True`` a candidate's last exact
gain also caps its key — CELF [Leskovec et al. 2007], valid when the
objective is submodular (in this library: the cumulative score, the
sandwich bound functions, and coverage), and applied automatically for
those.  The selected seeds, gains and objective are those of the full
scan: every gain is batch-stable, so a column's bytes do not depend on
what shares its call.

Tie-breaking contract
---------------------
The driver is deterministic, and picks what an exhaustive scan in
ascending node order with ``np.argmax`` (the first maximum) would pick:
among equal best gains, the smallest node id wins.  Per round:

* a candidate's key is its certified bound, which carries a relative
  slack (:data:`~repro.core.engine.GAIN_BOUND_SLACK`) so float rounding
  cannot prune a true argmax; ``+inf`` where the session certifies none
  (Copeland, walk estimators, custom scores, black-box functions); with
  ``lazy``, at most its last exact gain;
* all ``+inf`` keys are evaluated in one call, in ascending node order —
  a round of only ``+inf`` keys is the exhaustive scan's one call;
* without ``+inf`` keys the top key (``np.argmax``: the first maximum,
  the smallest node among equal keys) is evaluated alone first;
* the rest are evaluated in chunks (:data:`BOUND_CHUNK` wide for
  bound-keyed rounds, one at a time when keys are stale gains only) in
  descending key order, ties by ascending node;
* evaluation stops once the next key is below the best exact gain, or
  equal to it on a larger node — a candidate whose key equals the best
  gain on a smaller node is always evaluated, since it could win the tie.

Each round does its whole-graph passes once.  The bound pass is one
reverse sweep.  Only the keys that can still win after the first
evaluations are sorted: the best gain only rises, so they are a prefix
of the descending order and give the chunks a full sort would.  A round
won by its top key alone evolves that column once: the exact sessions'
one-candidate ``marginal_gains`` keeps its deltas, and the ``commit``
that follows adopts them
(:class:`~repro.core.engine.BatchedDMSession`).

Tests pin this contract against a full-scan oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.problem import FJVoteProblem
from repro.utils.validation import check_seed_budget
from repro.voting.scores import CumulativeScore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> greedy)
    from repro.core.engine import ObjectiveEngine, SelectionSession


@dataclass
class GreedyResult:
    """Outcome of a greedy run.

    Attributes
    ----------
    seeds:
        Selected nodes in pick order.
    objective:
        Objective value of the full seed set.
    gains:
        Marginal gain recorded at each pick.
    evaluations:
        Number of candidate-objective evaluations performed (a batched
        call over ``C`` candidates counts as ``C`` evaluations).
    full_scan:
        Evaluations an exhaustive scan would have performed: the
        remaining pool size summed over the rounds.
    bound_s:
        Seconds spent computing the sessions' certified gain bounds.
    """

    seeds: np.ndarray
    objective: float
    gains: np.ndarray
    evaluations: int
    full_scan: int = 0
    bound_s: float = 0.0


class _FunctionSession:
    """A black-box set function behind the session protocol.

    Lets :func:`run_selection_rounds` drive arbitrary ``value_fn`` callers
    (coverage, equilibrium sums, test doubles) through the same round loop
    the engine sessions use.  It certifies no gain bounds.
    """

    def __init__(self, value_fn: Callable[[tuple[int, ...]], float]) -> None:
        self._fn = value_fn
        self.seeds: tuple[int, ...] = ()
        self.value = float(value_fn(()))

    def marginal_gains(self, candidates: Sequence[int]) -> np.ndarray:
        base = self.seeds
        return np.array(
            [self._fn(base + (int(v),)) for v in candidates], dtype=np.float64
        ) - self.value

    def commit(self, seed: int, *, gain: float | None = None) -> float:
        seed = int(seed)
        if gain is None:
            gain = float(self._fn(self.seeds + (seed,))) - self.value
        self.seeds += (seed,)
        self.value += float(gain)
        return self.value

    def gain_bounds(self, candidates: np.ndarray) -> None:
        return None


def _candidate_pool(
    n: int, k: int, candidates: Sequence[int] | None
) -> tuple[int, np.ndarray]:
    k = check_seed_budget(k, n)
    pool = np.arange(n) if candidates is None else np.asarray(sorted(set(candidates)))
    if k > pool.size:
        raise ValueError(f"budget k={k} exceeds candidate pool size {pool.size}")
    return k, pool


#: Candidates per call once a round is ordered by certified bounds.  A
#: sweep of the two exact end-to-end selections on a 2-core Xeon (see
#: CHANGES.md) put 32 at or near the fastest for both: narrower chunks
#: pay the fixed cost of a call more often, wider ones evaluate columns
#: that the next chunk's best gain would have pruned.  Rounds keyed by
#: stale gains alone re-evaluate one candidate at a time, as CELF does.
BOUND_CHUNK = 32


def run_selection_rounds(
    session: "SelectionSession | _FunctionSession",
    k: int,
    pool: np.ndarray,
    *,
    lazy: bool = False,
) -> GreedyResult:
    """The shared greedy round-driver: ``k`` commits against one session.

    Each round keys every remaining candidate by an upper bound on its
    gain — the session's certified bound (``+inf`` where it has none) or,
    with ``lazy``, the smaller of that and the candidate's last exact gain
    (stale gains over-estimate only for submodular objectives).  ``+inf``
    keys are evaluated in one ``session.marginal_gains`` call; the rest in
    chunks, in descending key order, until no unevaluated key can beat
    the best exact gain (see the module docstring for the tie rule).  Each
    pick is folded into the session via ``commit``, so the next round (and
    any later prefix probe) starts from the committed state.
    """
    remaining = np.asarray(pool, dtype=np.int64).copy()
    stale = np.full(remaining.size, np.inf)
    selected: list[int] = []
    gains_trace: list[float] = []
    evaluations = full_scan = 0
    bound_s = 0.0
    for _ in range(k):
        full_scan += remaining.size
        start = time.perf_counter()
        bounds = session.gain_bounds(remaining)
        bound_s += time.perf_counter() - start
        if bounds is None:
            keys, chunk = np.full(remaining.size, np.inf), 1
        else:
            keys = np.array(bounds, dtype=np.float64)
            keys[np.isnan(keys)] = np.inf
            chunk = BOUND_CHUNK
        if lazy:
            keys = np.minimum(keys, stale)
        # Indices into ``remaining`` (ascending nodes) stand for nodes.
        gains = np.full(remaining.size, -np.inf)
        done = np.isposinf(keys)
        if done.any():
            gains[done] = session.marginal_gains(remaining[done])
            evaluations += int(done.sum())
        else:
            # The top key alone first: when it is tight, its exact gain
            # prunes the rest without a wide call.  np.argmax keeps the
            # first maximum, the key a stable descending sort puts first.
            top = int(np.argmax(keys))
            gains[top] = session.marginal_gains(remaining[top : top + 1])[0]
            done[top] = True
            evaluations += 1
        # Only keys that can still win are ordered: they are a prefix of
        # the descending order, and the best gain only rises.
        best = int(np.argmax(gains))
        order = keys > gains[best]
        order[:best] |= keys[:best] == gains[best]
        order = np.flatnonzero(order & ~done)
        if order.size > 1:
            order = order[np.argsort(-keys[order], kind="stable")]
        while order.size:
            # np.argmax keeps the first maximum: the smallest node.
            best = int(np.argmax(gains))
            head = order[:chunk]
            wins = (keys[head] > gains[best]) | (
                (keys[head] == gains[best]) & (head < best)
            )
            head = head[: head.size if wins.all() else int(np.argmin(wins))]
            if not head.size:
                break
            order = order[head.size :]
            head = np.sort(head)
            gains[head] = session.marginal_gains(remaining[head])
            done[head] = True
            evaluations += head.size
        best = int(np.argmax(gains))
        best_node, best_gain = int(remaining[best]), float(gains[best])
        selected.append(best_node)
        gains_trace.append(best_gain)
        session.commit(best_node, gain=best_gain)
        stale[done] = gains[done]
        remaining = np.delete(remaining, best)
        stale = np.delete(stale, best)
    return GreedyResult(
        seeds=np.array(selected, dtype=np.int64),
        objective=session.value,
        gains=np.array(gains_trace, dtype=np.float64),
        evaluations=evaluations,
        full_scan=full_scan,
        bound_s=bound_s,
    )


def greedy_select(
    value_fn: Callable[[tuple[int, ...]], float],
    n: int,
    k: int,
    *,
    lazy: bool = False,
    candidates: Sequence[int] | None = None,
) -> GreedyResult:
    """Select ``k`` elements greedily maximizing ``value_fn``.

    Parameters
    ----------
    value_fn:
        Maps a tuple of selected node ids to the objective value.  Must be
        non-decreasing for the result to be meaningful.
    n:
        Ground-set size (nodes are ``0..n-1``).
    k:
        Number of elements to pick.
    lazy:
        Treat stale gains as upper bounds (CELF lazy evaluation).  Only
        sound for submodular objectives.
    candidates:
        Optional restriction of the ground set.

    Equal-gain ties resolve to the smallest node id (see the module
    docstring), so results are reproducible across runs.
    """
    k, pool = _candidate_pool(n, k, candidates)
    return run_selection_rounds(_FunctionSession(value_fn), k, pool, lazy=lazy)


def greedy_engine(
    engine: "ObjectiveEngine",
    k: int,
    *,
    lazy: bool = False,
    candidates: Sequence[int] | None = None,
    session: "SelectionSession | None" = None,
) -> GreedyResult:
    """Greedy selection driven by an :class:`ObjectiveEngine` session.

    Opens a fresh :class:`~repro.core.engine.SelectionSession` on the
    engine (or drives the caller's ``session``, which must be rooted at the
    empty set — win-min passes one in so the binary search can keep probing
    the committed ranking afterwards) and hands it to
    :func:`run_selection_rounds`.

    Tie-breaking matches :func:`greedy_select`: equal-gain ties resolve to
    the smallest node id, as in an exhaustive ascending-node scan.
    """
    k, pool = _candidate_pool(engine.problem.n, k, candidates)
    # Estimator backends account the (ε, δ) their sample certifies for
    # this budget; a no-op for the exact engines.
    engine.prepare_budget(k)
    if session is None:
        session = engine.open_session()
    elif session.engine is not engine:
        raise ValueError("session belongs to a different engine")
    elif session.seeds:
        # A pre-committed session would let committed seeds be re-selected
        # and would fold their value into the result's objective.
        raise ValueError("session must be rooted at the empty seed set")
    return run_selection_rounds(session, k, pool, lazy=lazy)


def greedy_dm(
    problem: FJVoteProblem,
    k: int,
    *,
    lazy: bool | str = "auto",
    candidates: Sequence[int] | None = None,
    engine: "ObjectiveEngine | str | None" = None,
    rng: "int | np.random.Generator | None" = None,
) -> GreedyResult:
    """Algorithm 1 with exact (direct matrix multiplication) opinions.

    ``lazy="auto"`` enables CELF exactly when the score is cumulative (the
    submodular case, Theorem 3); other scores re-evaluate every candidate
    that its certified bound cannot rule out, each round, picking the
    paper's exhaustive choice.

    ``engine`` selects the evaluation backend: an
    :class:`~repro.core.engine.ObjectiveEngine` instance, a spec name from
    :data:`~repro.core.engine.ENGINE_NAMES`, or ``None`` for the default
    batched DM engine (exact, identical objectives, one warm-started
    vectorized evolution per round instead of ~n restarts).  ``rng`` seeds
    the stochastic (walk/sketch) engine specs for reproducible selections;
    exact engines ignore it.
    """
    from repro.core.engine import make_engine

    if lazy == "auto":
        lazy = isinstance(problem.score, CumulativeScore)
    made = make_engine(engine, problem, rng=rng)
    try:
        return greedy_engine(made, k, lazy=bool(lazy), candidates=candidates)
    finally:
        # Engines built here from a spec are scoped to this selection;
        # caller-supplied instances stay open (make_engine passed them
        # through).  close() is a no-op for the in-process backends.
        if made is not engine:
            made.close()
