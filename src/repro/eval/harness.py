"""Method registry and the common evaluation protocol of §VIII-A.

All methods differ *only* in seed selection; once seeds are chosen, every
method is evaluated in the same multi-campaign FJ setting with the same
voting score, via :meth:`FJVoteProblem.objective`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.baselines.centrality import degree_select, pagerank_select, rwr_select
from repro.baselines.gedt import gedt_select
from repro.baselines.imm import imm
from repro.core.engine import (
    EngineSpec,
    ObjectiveEngine,
    make_engine,
    spec_is_exact_dm,
)
from repro.core.greedy import greedy_dm
from repro.core.problem import FJVoteProblem
from repro.core.random_walk import random_walk_select
from repro.core.sketch import sketch_select
from repro.core.walk_store import WalkStore
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer

#: Selection methods of §VIII-A: ours (DM, RW, RS) plus baselines.
METHOD_NAMES = ("dm", "rw", "rs", "gedt", "ic", "lt", "pr", "rwr", "dc", "random")


def _spec_reuses_state(engine: "str | ObjectiveEngine | None") -> bool:
    """True for spec strings worth building once per method sweep.

    Exact DM engines are deterministic shared inputs; ``rw-store`` engines
    carry the shared walk store whose whole point is reuse across budgets.
    """
    if spec_is_exact_dm(engine):
        return True
    if not isinstance(engine, (str, EngineSpec)):
        return False
    try:
        name = EngineSpec.parse(engine).name
    except ValueError:
        return False
    return name == "rw-store"


def select_seeds(
    method: str,
    problem: FJVoteProblem,
    k: int,
    rng: int | np.random.Generator | None = None,
    *,
    engine: "str | EngineSpec | ObjectiveEngine | None" = None,
    store: WalkStore | None = None,
    **kwargs: object,
) -> np.ndarray:
    """Select ``k`` seeds with the named method.

    ``kwargs`` are forwarded to the underlying selector (e.g. ``lambda_cap``
    for RW, ``theta`` for RS, ``epsilon`` for IMM).  ``engine`` picks the
    objective-evaluation backend for the greedy-based methods (a spec name
    from :data:`repro.core.engine.ENGINE_NAMES`, or — for ``dm`` — a
    prebuilt :class:`~repro.core.engine.ObjectiveEngine` instance whose
    sessions then share the problem's cached trajectories across budgets)
    and is ignored by the others, which carry their own estimators.

    ``store`` (a :class:`~repro.core.walk_store.WalkStore`) is shared by
    the sampling methods: RW and RS draw their walk pools from it and the
    IC/LT baselines draw their RR sets, so a sweep over budgets reuses one
    persistent sample instead of regenerating per call.
    """
    rng = ensure_rng(rng)
    if isinstance(engine, EngineSpec):
        engine = engine.canonical()
    if store is not None:
        store.require_problem(problem)
    if method == "dm":
        return greedy_dm(problem, k, engine=engine, rng=rng).seeds
    if not isinstance(engine, (str, type(None))):
        raise TypeError(
            f"method {method!r} accepts only engine spec names, not instances"
        )
    if method == "rw":
        return random_walk_select(problem, k, rng=rng, store=store, **kwargs).seeds
    if method == "rs":
        return sketch_select(problem, k, rng=rng, store=store, **kwargs).seeds
    if method == "gedt":
        return gedt_select(problem, k, engine=engine, rng=rng)
    if method in ("ic", "lt"):
        graph = problem.state.graph(problem.target)
        rr_pool = None if store is None else store.rr_pool(problem.target, method)
        return imm(graph, k, model=method, rng=rng, rr_pool=rr_pool, **kwargs).seeds
    if method == "pr":
        return pagerank_select(problem, k, **kwargs)
    if method == "rwr":
        return rwr_select(problem, k, **kwargs)
    if method == "dc":
        return degree_select(problem, k)
    if method == "random":
        return rng.choice(problem.n, size=k, replace=False).astype(np.int64)
    raise ValueError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")


@dataclass
class MethodRun:
    """One (method, k) cell of an effectiveness/efficiency figure."""

    method: str
    k: int
    score_value: float
    seconds: float
    seeds: np.ndarray


def run_methods(
    problem: FJVoteProblem,
    ks: Sequence[int],
    methods: Sequence[str],
    rng: int | np.random.Generator | None = None,
    *,
    method_kwargs: dict[str, dict[str, object]] | None = None,
    engine: "str | EngineSpec | None" = None,
    store: WalkStore | None = None,
) -> list[MethodRun]:
    """Run every (method, k) combination; timing covers seed selection only.

    Competitor opinions are pre-computed before timing starts: they are a
    shared input to all methods, as in the paper's setup, and the exact DM
    engine (a shared input too — it only wraps the problem) is built once
    per method sweep so every budget's selection session starts from the
    same cached trajectories.  ``engine`` selects the evaluation backend
    for the greedy-based methods; ``store`` hands the sampling methods
    (RW, RS, IC, LT) one shared :class:`~repro.core.walk_store.WalkStore`
    so every budget extends the same walk/RR-set pools (a persistent
    store built with ``store_for_problem(problem, store_dir=...)`` makes a
    re-run sweep re-open the same pools and regenerate nothing).
    """
    rng = ensure_rng(rng)
    if isinstance(engine, EngineSpec):
        engine = engine.canonical()
    method_kwargs = method_kwargs or {}
    problem.others_by_user()  # warm the shared cache outside the timers
    runs: list[MethodRun] = []
    for method in methods:
        kwargs = dict(method_kwargs.get(method, {}))
        method_engine: str | ObjectiveEngine | None = engine
        if method == "dm" and _spec_reuses_state(engine):
            # Engines with reusable state are shared inputs: build once per
            # method sweep so every budget's session reuses the cached
            # trajectories (dm-batched), one worker pool (dm-mp), or one
            # walk store (rw-store) instead of rebuilding per budget.  An
            # rw-store engine additionally draws from the caller's shared
            # store, so the dm sweep and the rw/rs methods sample one pool.
            engine_kwargs: dict[str, object] = {}
            if store is not None and not spec_is_exact_dm(engine):
                engine_kwargs["store"] = store
            method_engine = make_engine(engine, problem, rng=rng, **engine_kwargs)
        try:
            for k in ks:
                with Timer() as timer:
                    seeds = select_seeds(
                        method,
                        problem,
                        k,
                        rng,
                        engine=method_engine,
                        store=store,
                        **kwargs,
                    )
                runs.append(
                    MethodRun(
                        method=method,
                        k=int(k),
                        score_value=problem.objective(seeds),
                        seconds=timer.elapsed,
                        seeds=seeds,
                    )
                )
        finally:
            if isinstance(method_engine, ObjectiveEngine) and (
                method_engine is not engine
            ):
                method_engine.close()
    return runs
