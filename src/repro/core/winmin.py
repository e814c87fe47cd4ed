"""Problem 2 (FJ-Vote-Win): minimum seed set for the target to win (Alg. 2).

Binary search over the budget ``k``: scores are non-decreasing in the seed
set, and with a deterministic greedy selector the size-``k`` solutions are
nested prefixes of one ranking, so the winning indicator is monotone in
``k``.  The default path runs Algorithm 1 *once* through a
:class:`~repro.core.engine.SelectionSession` and then serves every
binary-search probe as a session prefix probe: the committed trajectory
answers the full-budget check for free, and each midpoint extends the
nearest cached prefix instead of replaying the ranking from scratch (the
winning criterion itself stays exact — estimate engines only influence the
ranking).  As the paper remarks, the returned size can exceed the true
optimum because the inner seed selection is itself approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.engine import ObjectiveEngine, make_engine
from repro.core.greedy import greedy_engine
from repro.core.problem import FJVoteProblem
from repro.voting.scores import CumulativeScore


@dataclass
class WinMinResult:
    """Outcome of the minimum-winning-seed-set search.

    ``found`` is false when the target cannot win even with the maximum
    budget probed, in which case ``seeds``/``k`` describe that largest
    attempt.  ``probes`` counts winning-criterion checks (the CELF-style
    effectiveness metric for Algorithm 2).
    """

    seeds: np.ndarray
    k: int
    found: bool
    probes: int


def min_seeds_to_win(
    problem: FJVoteProblem,
    *,
    k_max: int | None = None,
    selector: Callable[[int], np.ndarray] | None = None,
    engine: ObjectiveEngine | str | None = None,
    rng: int | np.random.Generator | None = None,
) -> WinMinResult:
    """Find the smallest budget whose selected seed set makes the target win.

    Parameters
    ----------
    k_max:
        Upper end of the binary search (default: n).  Use a smaller cap to
        bound runtime on large instances.
    selector:
        Maps a budget to a seed set (e.g. a closure over
        :func:`repro.core.random_walk.random_walk_select`).  Defaults to the
        exact greedy ranking, evaluated as nested session prefixes so
        Algorithm 1 runs only once and probes reuse its committed state.
    engine:
        Evaluation backend for the default greedy ranking (see
        :func:`repro.core.engine.make_engine`); ignored when ``selector``
        is given.  The winning criterion itself is always checked exactly —
        via the session's warm-started prefix rows on the exact backends,
        via :meth:`FJVoteProblem.target_wins` otherwise.
    rng:
        Seeds the stochastic (walk/sketch) engine specs so the default
        ranking stays reproducible; exact engines ignore it.
    """
    n = problem.n
    upper = n if k_max is None else int(k_max)
    if not 0 < upper <= n:
        raise ValueError(f"k_max must be in (0, {n}], got {k_max}")
    probes = 1
    if problem.target_wins(()):
        return WinMinResult(
            seeds=np.empty(0, dtype=np.int64), k=0, found=True, probes=probes
        )
    created: ObjectiveEngine | None = None
    try:
        if selector is None:
            engine_obj = make_engine(engine, problem, rng=rng)
            if engine_obj is not engine:
                # Built from a spec: scoped to this search (closes dm-mp
                # pools; a no-op for the in-process backends).
                created = engine_obj
            # Estimator backends account their precision for the full
            # search budget before the session opens.
            engine_obj.prepare_budget(upper)
            session = engine_obj.open_session()
            # Mirrors greedy_dm's lazy="auto": CELF exactly for the
            # submodular cumulative score (Theorem 3).
            ranking = greedy_engine(
                engine_obj,
                upper,
                lazy=isinstance(problem.score, CumulativeScore),
                session=session,
            ).seeds

            def probe(k: int) -> tuple[np.ndarray, bool]:
                return ranking[:k], session.prefix_wins(k)

        else:

            def probe(k: int) -> tuple[np.ndarray, bool]:
                seeds = np.asarray(selector(k), dtype=np.int64)
                return seeds, problem.target_wins(seeds)

        best, won = probe(upper)
        probes += 1
        if not won:
            return WinMinResult(seeds=best, k=upper, found=False, probes=probes)
        lo, hi = 0, upper
        while hi - lo > 1:
            mid = (lo + hi) // 2
            candidate, won = probe(mid)
            probes += 1
            if won:
                hi, best = mid, candidate
            else:
                lo = mid
        return WinMinResult(seeds=best, k=hi, found=True, probes=probes)
    finally:
        if created is not None:
            created.close()
