"""Greedy seed selection (paper Algorithm 1) with optional CELF laziness.

One *round-driver*, :func:`run_selection_rounds`, hosts both the exhaustive
scan and CELF lazy evaluation [Leskovec et al. 2007] over a
:class:`~repro.core.engine.SelectionSession` — greedy state (the committed
seeds, their objective, and any backend warm-start state) lives in the
session, not in per-algorithm loops.  ``greedy_select`` drives it over a
black-box set function; ``greedy_engine`` drives it over an
:class:`~repro.core.engine.ObjectiveEngine` session, collapsing each
exhaustive round into *one* batched, warm-started evaluation;
``greedy_dm`` instantiates it with exact opinion computation via direct
matrix multiplication (the DM method of §VIII-A, batched by default).
CELF is valid when the objective is submodular — in this library: the
cumulative score, the sandwich bound functions, and coverage — and is
applied automatically for those.

Tie-breaking contract
---------------------
The driver is deterministic.  The exhaustive path scans candidates in
ascending node order and ``np.argmax`` keeps the *first* maximum, so
equal-gain ties resolve to the smallest node id.  The CELF heap stores
``(-gain, node, stamp)`` tuples, so equal ``-gain`` entries compare on
``node`` next: ties again pop the smallest node id first.  Tests pin this
contract.
"""

from __future__ import annotations

import heapq
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
        Number of candidate-objective evaluations performed (CELF
        effectiveness metric; a batched round of ``C`` candidates counts
        as ``C`` evaluations).
    """

    seeds: np.ndarray
    objective: float
    gains: np.ndarray
    evaluations: int


class _FunctionSession:
    """A black-box set function behind the session protocol.

    Lets :func:`run_selection_rounds` drive arbitrary ``value_fn`` callers
    (coverage, equilibrium sums, test doubles) through the same exhaustive
    and CELF code paths the engine sessions use.
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


def _candidate_pool(
    n: int, k: int, candidates: Sequence[int] | None
) -> tuple[int, np.ndarray]:
    k = check_seed_budget(k, n)
    pool = np.arange(n) if candidates is None else np.asarray(sorted(set(candidates)))
    if k > pool.size:
        raise ValueError(f"budget k={k} exceeds candidate pool size {pool.size}")
    return k, pool


def run_selection_rounds(
    session: "SelectionSession | _FunctionSession",
    k: int,
    pool: np.ndarray,
    *,
    lazy: bool = False,
) -> GreedyResult:
    """The shared greedy round-driver: ``k`` commits against one session.

    The exhaustive path performs *one* ``session.marginal_gains`` call per
    round — a warm-started batched backend collapses the whole round into a
    single vectorized evolution against the committed state.  The CELF path
    batches the first round (all initial gains at once) and then
    re-evaluates individual stale entries on demand; only sound for
    submodular objectives.  Each pick is folded into the session via
    ``commit``, so the next round (and any later prefix probe) starts from
    the committed state instead of replaying the selection.
    """
    selected: list[int] = []
    gains_trace: list[float] = []
    evaluations = 0
    if lazy:
        # CELF: heap entries are (-cached_gain, node, stamp) where stamp is
        # the size of the selected set when the gain was computed.  A cached
        # gain is exact iff stamp == len(selected); by submodularity stale
        # gains only over-estimate, so popping a fresh maximum is safe.
        # Tuple comparison breaks equal -gain ties by ascending node id.
        initial = session.marginal_gains(pool)
        evaluations += pool.size
        heap: list[tuple[float, int, int]] = [
            (-float(g), int(v), 0) for g, v in zip(initial, pool)
        ]
        heapq.heapify(heap)
        for _ in range(k):
            while True:
                neg_gain, v, stamp = heapq.heappop(heap)
                if stamp == len(selected):
                    best, best_gain = v, -neg_gain
                    break
                gain = float(session.marginal_gains(np.array([v]))[0])
                evaluations += 1
                heapq.heappush(heap, (-gain, v, len(selected)))
            selected.append(best)
            gains_trace.append(best_gain)
            session.commit(best, gain=best_gain)
    else:
        # Candidates stay in ascending node order and np.argmax keeps the
        # first maximum, so the smallest node id wins equal-gain ties.
        remaining = np.asarray(pool).copy()
        for _ in range(k):
            gains = session.marginal_gains(remaining)
            evaluations += remaining.size
            idx = int(np.argmax(gains))
            best, best_gain = int(remaining[idx]), float(gains[idx])
            selected.append(best)
            gains_trace.append(best_gain)
            session.commit(best, gain=best_gain)
            remaining = np.delete(remaining, idx)
    return GreedyResult(
        seeds=np.array(selected, dtype=np.int64),
        objective=session.value,
        gains=np.array(gains_trace, dtype=np.float64),
        evaluations=evaluations,
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
        Use CELF lazy evaluation.  Only sound for submodular objectives.
    candidates:
        Optional restriction of the ground set.

    Equal-gain ties resolve to the smallest node id on both paths (see the
    module docstring), so results are reproducible across runs.
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

    Tie-breaking matches :func:`greedy_select`: candidates are scanned in
    ascending node order and ``np.argmax`` keeps the first maximum, so
    equal-gain ties resolve to the smallest node id.
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
    submodular case, Theorem 3); other scores use exhaustive re-evaluation
    each round as in the paper.

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
