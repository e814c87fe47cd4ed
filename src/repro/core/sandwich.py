"""Sandwich approximation for the non-submodular scores (paper §IV, Alg. 3).

For the positional-p-approval family (plurality and p-approval included):

* ``LB(S) = ω[p] · Σ_{v ∈ V_q^(t)} b_qv^(t)[S]`` — the seeded cumulative
  score restricted to the *favorable users set* (Definition 3); monotone
  submodular (Theorem 5), maximized greedily with CELF.
* ``UB(S) = ω[1] · |N_S^(t) ∪ V_q^(t)|`` — scaled coverage of the
  *reachable users set* (Definition 4); monotone submodular (Theorem 6),
  maximized with lazy greedy coverage.

For Copeland only an upper bound exists (Definition 6):
``UB(S) = (r-1)/(⌊n/2⌋+1) · |N_S^(t) ∪ U_q^(t)|`` with the *weakly
favorable users set* ``U_q^(t)`` (Definition 5, Theorem 7).

Algorithm 3 returns the best of {S_U, S_L, S_F} under the true score F and
reports the empirical approximation factor ``F(S_U)/UB(S_U)·(1-1/e)``
studied in §IV-D (Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.engine import (
    BatchedDMEngine,
    ObjectiveEngine,
    make_engine,
    spec_is_exact_dm,
)
from repro.core.greedy import GreedyResult, greedy_engine
from repro.core.problem import FJVoteProblem
from repro.core.random_walk import random_walk_select
from repro.core.reachability import ReachabilityIndex, coverage_greedy
from repro.core.sketch import sketch_select
from repro.utils.validation import check_seed_budget
from repro.voting.rank import ranks
from repro.voting.scores import (
    CopelandScore,
    CumulativeScore,
    PositionalPApprovalScore,
)


def favorable_users(problem: FJVoteProblem) -> np.ndarray:
    """The favorable users set ``V_q^(t)`` (Definition 1).

    Users who rank the target within the top p at the horizon *without any
    seeds*.  They keep doing so after seeding (opinions about the target
    only rise), which is what makes LB a valid lower bound.
    """
    score = problem.score
    if not isinstance(score, PositionalPApprovalScore):
        raise TypeError("favorable_users applies to positional-p-approval scores")
    beta = ranks(problem.full_opinions(()), problem.target)
    return np.where(beta <= score.p)[0]


def weakly_favorable_users(problem: FJVoteProblem) -> np.ndarray:
    """The weakly favorable users set ``U_q^(t)`` (Definition 5).

    Users preferring the target to *at least one* other candidate at the
    horizon without seeds — the only unseeded users able to contribute to a
    pairwise Copeland win.
    """
    opinions = problem.full_opinions(())
    others = np.delete(opinions, problem.target, axis=0)
    if others.shape[0] == 0:
        return np.arange(problem.n)
    return np.where(opinions[problem.target] > others.min(axis=0))[0]


def lower_bound_greedy(
    problem: FJVoteProblem, k: int, favorable: np.ndarray
) -> tuple[GreedyResult, float]:
    """Greedy (CELF) maximization of ``LB(S)`` (Definition 3).

    Returns the greedy result and the weight ``ω[p]`` so callers can report
    the bound value.  The objective is the sum of seeded horizon opinions
    over ``favorable`` — submodular by Theorem 3, hence CELF-safe.  The
    weighted restriction is expressed as a batched DM engine over the
    cumulative score with per-user weights ``ω[p]·1[v ∈ favorable]``, so
    each round evaluates only the candidates whose certified gain bound
    (weighted the same way) can win, and every pick is folded into the
    LB session's committed trajectory.
    Running in its own session also means the LB greedy can interleave
    with the feasible greedy on a shared problem without either one
    invalidating the other's cached base state.
    """
    score = problem.score
    if not isinstance(score, PositionalPApprovalScore):
        raise TypeError("the LB function applies to positional-p-approval scores")
    weight = score.weight_at(score.p)
    fav = np.asarray(favorable, dtype=np.int64)
    weights = np.zeros(problem.n, dtype=np.float64)
    weights[fav] = weight
    lb_engine = BatchedDMEngine(
        problem.with_score(CumulativeScore()), user_weights=weights
    )
    result = greedy_engine(lb_engine, k, lazy=True)
    return result, weight


@dataclass
class SandwichResult:
    """Outcome of Algorithm 3 plus the §IV-D diagnostics."""

    seeds: np.ndarray
    objective: float
    chosen: str
    seeds_feasible: np.ndarray
    seeds_upper: np.ndarray
    seeds_lower: np.ndarray | None
    f_of_upper_seeds: float
    ub_of_upper_seeds: float

    @property
    def sandwich_ratio(self) -> float:
        """``F(S_U) / UB(S_U)`` — the data-dependent factor of Eq. 20."""
        if self.ub_of_upper_seeds <= 0:
            return 1.0
        return self.f_of_upper_seeds / self.ub_of_upper_seeds

    @property
    def approximation_factor(self) -> float:
        """Guaranteed factor ``(1 - 1/e) · F(S_U)/UB(S_U)`` (§IV-D)."""
        return (1.0 - 1.0 / np.e) * self.sandwich_ratio


def sandwich_select(
    problem: FJVoteProblem,
    k: int,
    *,
    method: str = "dm",
    feasible_selector: Callable[[int], np.ndarray] | None = None,
    rng: int | np.random.Generator | None = None,
    engine: ObjectiveEngine | str | None = None,
    **method_kwargs: object,
) -> SandwichResult:
    """Sandwich-approximation seed selection (Algorithm 3).

    Parameters
    ----------
    method:
        How the feasible solution ``S_F`` is computed: ``"dm"`` (exact
        greedy), ``"rw"`` (Algorithm 4) or ``"rs"`` (Algorithm 5).
    feasible_selector:
        Optional override returning ``S_F`` for a budget (ignores
        ``method``).
    engine:
        Evaluation backend for the ``"dm"`` feasible greedy (see
        :func:`repro.core.engine.make_engine`).  The feasible greedy runs
        in its own selection session; the engine instance built for it is
        reused for the final arg-max over {S_F, S_U, S_L}, which is always
        scored exactly — when the engine is an exact batch engine, all
        finalists are scored in one batched call.
    method_kwargs:
        Forwarded to the RW/RS selector.
    """
    k = check_seed_budget(k, problem.n)
    score = problem.score
    is_positional = isinstance(score, PositionalPApprovalScore)
    is_copeland = isinstance(score, CopelandScore)
    if not (is_positional or is_copeland):
        raise TypeError(
            "sandwich approximation targets the non-submodular scores; "
            "use greedy_dm directly for the cumulative score"
        )
    created: list[ObjectiveEngine] = []
    try:
        return _sandwich_select(
            problem,
            k,
            method,
            feasible_selector,
            rng,
            engine,
            method_kwargs,
            is_positional,
            created,
        )
    finally:
        # Engines built here from a spec (not caller-supplied instances)
        # are scoped to this selection; close() releases dm-mp pools and
        # is a no-op for the in-process backends.
        for built in created:
            built.close()


def _sandwich_select(
    problem: FJVoteProblem,
    k: int,
    method: str,
    feasible_selector: Callable[[int], np.ndarray] | None,
    rng: "int | np.random.Generator | None",
    engine: ObjectiveEngine | str | None,
    method_kwargs: dict,
    is_positional: bool,
    created: list[ObjectiveEngine],
) -> SandwichResult:
    score = problem.score
    # --- S_F: feasible greedy solution on F itself.
    engine_obj: ObjectiveEngine | None = None
    if feasible_selector is not None:
        seeds_f = np.asarray(feasible_selector(k), dtype=np.int64)
    elif method == "dm":
        # The sandwich scores are never cumulative (rejected above), so the
        # feasible greedy is exhaustive — matching greedy_dm's lazy="auto".
        engine_obj = make_engine(engine, problem, rng=rng)
        if engine_obj is not engine:
            created.append(engine_obj)
        seeds_f = greedy_engine(engine_obj, k, lazy=False).seeds
    elif method == "rw":
        seeds_f = random_walk_select(problem, k, rng=rng, **method_kwargs).seeds
    elif method == "rs":
        seeds_f = sketch_select(problem, k, rng=rng, **method_kwargs).seeds
    else:
        raise ValueError(f"unknown method {method!r}; expected dm, rw or rs")
    # --- S_U: greedy on the coverage upper bound.
    if is_positional:
        base = favorable_users(problem)
        ub_weight = score.weight_at(1)
    else:
        base = weakly_favorable_users(problem)
        ub_weight = (problem.r - 1) / (problem.n // 2 + 1)
    index = ReachabilityIndex(problem.state.graph(problem.target), problem.horizon)
    seeds_u, _ = coverage_greedy(index, base, k, weight=ub_weight)
    ub_of_su = ub_weight * float(
        np.union1d(index.reach_set(seeds_u), base).size
    )
    # --- S_L: greedy on the lower bound (positional scores only).
    seeds_l: np.ndarray | None = None
    if is_positional:
        lb_result, _ = lower_bound_greedy(problem, k, base)
        seeds_l = lb_result.seeds
    # --- Final: arg max of F over the candidates (Alg. 3 line 4), scored
    # exactly — reusing the feasible greedy's engine (and its problem-level
    # trajectory caches) when it is exact, otherwise via a fresh batched DM
    # engine (estimate engines must not decide the winner).
    candidates = {"F": seeds_f, "UB": seeds_u}
    if seeds_l is not None:
        candidates["LB"] = seeds_l
    if engine_obj is None and isinstance(engine, ObjectiveEngine):
        if engine.problem is problem:
            engine_obj = engine
    if (
        engine_obj is not None
        and not engine_obj.is_estimate
        and getattr(engine_obj, "user_weights", None) is None
    ):
        exact = engine_obj
    elif spec_is_exact_dm(engine):
        exact = make_engine(engine, problem)
        created.append(exact)
    else:
        exact = BatchedDMEngine(problem)
    finals = exact.evaluate(list(candidates.values()))
    values = dict(zip(candidates, (float(v) for v in finals)))
    chosen = max(values, key=lambda name: values[name])
    return SandwichResult(
        seeds=candidates[chosen],
        objective=values[chosen],
        chosen=chosen,
        seeds_feasible=seeds_f,
        seeds_upper=seeds_u,
        seeds_lower=seeds_l,
        f_of_upper_seeds=values["UB"],
        ub_of_upper_seeds=ub_of_su,
    )
