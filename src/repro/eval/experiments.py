"""One function per table/figure of the paper's evaluation (§VIII).

Every function returns a plain data structure (dict of series) that the
corresponding benchmark prints in the paper's row/series shape.  Parameters
default to laptop-scale versions of the paper's settings; the *relative*
comparisons (who wins, crossover positions, trends) are what reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.baselines.cascade import expected_spread
from repro.baselines.imm import imm
from repro.core.greedy import greedy_dm
from repro.core.problem import FJVoteProblem
from repro.core.random_walk import random_walk_select
from repro.core.sandwich import sandwich_select
from repro.core.sketch import sketch_select
from repro.core.walk_store import store_for_problem
from repro.core.winmin import min_seeds_to_win
from repro.datasets.synth import Dataset
from repro.eval.harness import run_methods, select_seeds
from repro.eval.metrics import seed_overlap
from repro.graph.build import induced_subgraph
from repro.opinion.convergence import fraction_changing
from repro.opinion.state import CampaignState
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer
from repro.voting.rank import ranks
from repro.voting.scores import (
    CumulativeScore,
    PApprovalScore,
    PluralityScore,
    PositionalPApprovalScore,
    VotingScore,
)


# ----------------------------------------------------------------------
# Figs. 6-8: effectiveness and efficiency vs seed budget k
# ----------------------------------------------------------------------
@dataclass
class EffectivenessResult:
    """Score/time series per method over a k-sweep (one panel of Figs. 6-8)."""

    dataset: str
    score_name: str
    ks: list[int]
    scores: dict[str, list[float]]
    times: dict[str, list[float]]


def effectiveness_experiment(
    dataset: Dataset,
    score: VotingScore,
    ks: Sequence[int],
    methods: Sequence[str],
    *,
    horizon: int | None = None,
    rng: int | np.random.Generator | None = None,
    method_kwargs: dict[str, dict[str, object]] | None = None,
    engine: str | None = None,
) -> EffectivenessResult:
    """Score and seed-selection time vs k for each method (Figs. 6-8)."""
    problem = dataset.problem(score, horizon=horizon)
    runs = run_methods(
        problem, ks, methods, rng, method_kwargs=method_kwargs, engine=engine
    )
    scores: dict[str, list[float]] = {m: [] for m in methods}
    times: dict[str, list[float]] = {m: [] for m in methods}
    for run in runs:
        scores[run.method].append(run.score_value)
        times[run.method].append(run.seconds)
    return EffectivenessResult(
        dataset=dataset.name,
        score_name=score.name,
        ks=[int(k) for k in ks],
        scores=scores,
        times=times,
    )


# ----------------------------------------------------------------------
# Fig. 2 (§IV-D): empirical sandwich approximation factor
# ----------------------------------------------------------------------
def sandwich_ratio_trials(
    dataset: Dataset,
    score: VotingScore,
    ks: Sequence[int],
    *,
    method: str = "rw",
    rng: int | np.random.Generator | None = None,
    **method_kwargs: object,
) -> dict[str, list[float]]:
    """``F(S_U)/UB(S_U)`` per trial, one trial per k (Fig. 2 protocol).

    Also records the relative runtime of computing S_U and S_L versus S_F,
    reproducing the §IV-D claim that the bounds cost ~2% / ~5% of S_F.
    """
    rng = ensure_rng(rng)
    ratios: list[float] = []
    factors: list[float] = []
    chosen: list[float] = []
    for k in ks:
        problem = dataset.problem(score)
        result = sandwich_select(problem, int(k), method=method, rng=rng, **method_kwargs)
        ratios.append(result.sandwich_ratio)
        factors.append(result.approximation_factor)
        chosen.append(float(result.chosen == "F"))
    return {"k": [float(k) for k in ks], "ratio": ratios, "factor": factors,
            "feasible_chosen": chosen}


# ----------------------------------------------------------------------
# Fig. 9: seed overlap among plurality variants
# ----------------------------------------------------------------------
def positional_overlap_experiment(
    dataset: Dataset,
    k: int,
    p: int,
    omegas: Sequence[float],
    *,
    method: str = "rw",
    rng: int | np.random.Generator | None = None,
    **method_kwargs: object,
) -> dict[str, list[float]]:
    """Overlap of positional-p-approval seeds vs plurality / p-approval seeds.

    Varies ``ω[p]`` in [0, 1] with ``ω[i] = 1`` for ``i < p``; at ``ω[p]=1``
    positional-p-approval equals p-approval, at ``ω[p]=0`` it equals
    (p-1)-approval, reproducing the Fig. 9 interpolation.
    """
    rng = ensure_rng(rng)
    r = dataset.r
    plain = select_seeds(
        method, dataset.problem(PluralityScore()), k, rng, **method_kwargs
    )
    papproval = select_seeds(
        method, dataset.problem(PApprovalScore(p, r)), k, rng, **method_kwargs
    )
    overlap_plurality: list[float] = []
    overlap_papproval: list[float] = []
    for omega_p in omegas:
        weights = np.ones(r)
        weights[p - 1 :] = omega_p
        problem = dataset.problem(PositionalPApprovalScore(p, weights))
        seeds = select_seeds(method, problem, k, rng, **method_kwargs)
        overlap_plurality.append(seed_overlap(seeds, plain))
        overlap_papproval.append(seed_overlap(seeds, papproval))
    return {
        "omega_p": list(float(w) for w in omegas),
        "vs_plurality": overlap_plurality,
        "vs_p_approval": overlap_papproval,
    }


# ----------------------------------------------------------------------
# Fig. 10: distribution of the target's rank across users
# ----------------------------------------------------------------------
def rank_distribution_experiment(
    dataset: Dataset,
    k: int,
    ps: Sequence[int],
    *,
    method: str = "rw",
    rng: int | np.random.Generator | None = None,
    **method_kwargs: object,
) -> dict[str, list[float]]:
    """#users ranking the target at each position, per p-approval variant."""
    rng = ensure_rng(rng)
    r = dataset.r
    out: dict[str, list[float]] = {"position": [float(i) for i in range(1, r + 1)]}
    for p in ps:
        problem = dataset.problem(PApprovalScore(int(p), r))
        seeds = select_seeds(method, problem, k, rng, **method_kwargs)
        beta = ranks(problem.full_opinions(seeds), problem.target)
        counts = np.bincount(beta, minlength=r + 1)[1 : r + 1]
        out[f"p={p}"] = [float(c) for c in counts]
    return out


# ----------------------------------------------------------------------
# Table VI: minimum seeds to win
# ----------------------------------------------------------------------
def min_seeds_experiment(
    dataset: Dataset,
    *,
    methods: Sequence[str] = ("dm", "rw", "rs"),
    k_max: int | None = None,
    score: VotingScore | None = None,
    rng: int | np.random.Generator | None = None,
    method_kwargs: dict[str, dict[str, object]] | None = None,
    engine: str | None = None,
) -> dict[str, int]:
    """Minimum winning budget per method, plurality score (Table VI)."""
    rng = ensure_rng(rng)
    method_kwargs = method_kwargs or {}
    problem = dataset.problem(score or PluralityScore())
    out: dict[str, int] = {}
    for method in methods:
        kwargs = dict(method_kwargs.get(method, {}))
        if method == "dm":
            result = min_seeds_to_win(problem, k_max=k_max, engine=engine, rng=rng)
        else:
            result = min_seeds_to_win(
                problem,
                k_max=k_max,
                selector=lambda k, m=method, kw=kwargs: select_seeds(
                    m, problem, k, rng, **kw
                ),
            )
        out[method] = result.k if result.found else -1
    return out


# ----------------------------------------------------------------------
# Fig. 11: expected influence spread of voting-score seeds vs IMM seeds
# ----------------------------------------------------------------------
def eis_experiment(
    dataset: Dataset,
    ks: Sequence[int],
    *,
    mc_runs: int = 100,
    rng: int | np.random.Generator | None = None,
    rw_kwargs: dict[str, object] | None = None,
    imm_epsilon: float = 0.5,
) -> dict[str, dict[str, list[float]]]:
    """EIS under IC and LT for RW seeds (3 scores) vs IMM seeds (Fig. 11)."""
    rng = ensure_rng(rng)
    rw_kwargs = rw_kwargs or {}
    graph = dataset.state.graph(dataset.target)
    seed_sets: dict[str, dict[int, np.ndarray]] = {}
    from repro.voting.scores import CopelandScore  # local to avoid cycle noise

    for name, score in (
        ("rw-cumulative", CumulativeScore()),
        ("rw-plurality", PluralityScore()),
        ("rw-copeland", CopelandScore()),
    ):
        problem = dataset.problem(score)
        seed_sets[name] = {
            int(k): random_walk_select(problem, int(k), rng=rng, **rw_kwargs).seeds
            for k in ks
        }
    for model in ("ic", "lt"):
        seed_sets[f"imm-{model}"] = {
            int(k): imm(graph, int(k), model=model, epsilon=imm_epsilon, rng=rng).seeds
            for k in ks
        }
    out: dict[str, dict[str, list[float]]] = {}
    for model in ("ic", "lt"):
        panel: dict[str, list[float]] = {}
        for name in ("rw-cumulative", "rw-plurality", "rw-copeland", f"imm-{model}"):
            panel[name] = [
                expected_spread(
                    graph, seed_sets[name][int(k)], model=model, mc_runs=mc_runs, rng=rng
                )
                for k in ks
            ]
        out[model] = panel
    return out


# ----------------------------------------------------------------------
# Fig. 12: score and time vs the horizon t
# ----------------------------------------------------------------------
def horizon_experiment(
    dataset: Dataset,
    ts: Sequence[int],
    k: int,
    *,
    methods: Sequence[str] = ("dm", "rw", "rs"),
    rng: int | np.random.Generator | None = None,
    method_kwargs: dict[str, dict[str, object]] | None = None,
) -> dict[str, dict[str, list[float]]]:
    """Cumulative score and seed-finding time vs t (Fig. 12)."""
    rng = ensure_rng(rng)
    method_kwargs = method_kwargs or {}
    scores: dict[str, list[float]] = {m: [] for m in methods}
    times: dict[str, list[float]] = {m: [] for m in methods}
    for t in ts:
        problem = dataset.problem(CumulativeScore(), horizon=int(t))
        problem.others_by_user()
        for method in methods:
            kwargs = dict(method_kwargs.get(method, {}))
            with Timer() as timer:
                seeds = select_seeds(method, problem, k, rng, **kwargs)
            scores[method].append(problem.objective(seeds))
            times[method].append(timer.elapsed)
    return {"score": scores, "time": times, "t": {"t": [float(t) for t in ts]}}


# ----------------------------------------------------------------------
# Figs. 13-14: score vs θ (sketch count)
# ----------------------------------------------------------------------
def theta_experiment(
    dataset: Dataset,
    score: VotingScore,
    thetas: Sequence[int],
    *,
    ks: Sequence[int] = (100,),
    ts: Sequence[int] | None = None,
    rng: int | np.random.Generator | None = None,
) -> dict[str, list[float]]:
    """Exact score of RS seeds as θ grows, for several k and t (Figs. 13-14).

    Each series draws one walk store from ``rng``, so every θ is a prefix
    of the same sketch sample, as when the §VI-E ladder extends it.
    """
    rng = ensure_rng(rng)
    out: dict[str, list[float]] = {"theta": [float(t) for t in thetas]}
    series_specs = [(f"k={k}", int(k), None) for k in ks]
    series_specs += [(f"t={t}", int(ks[0]), int(t)) for t in ts or ()]
    for name, k, horizon in series_specs:
        problem = dataset.problem(score, horizon=horizon)
        store = store_for_problem(problem, seed=rng)
        out[name] = [
            sketch_select(problem, k, theta=int(theta), store=store).exact_objective
            for theta in thetas
        ]
    return out


# ----------------------------------------------------------------------
# Fig. 15: RS accuracy/time vs ε  |  Fig. 16: RW accuracy/time vs ρ
# ----------------------------------------------------------------------
def epsilon_experiment(
    dataset: Dataset,
    epsilons: Sequence[float],
    k: int,
    *,
    theta_cap: int | None = None,
    rng: int | np.random.Generator | None = None,
) -> dict[str, list[float]]:
    """Cumulative score and time of RS vs ε (Fig. 15)."""
    rng = ensure_rng(rng)
    problem = dataset.problem(CumulativeScore())
    problem.others_by_user()
    scores, times, thetas = [], [], []
    for eps in epsilons:
        with Timer() as timer:
            result = sketch_select(
                problem, k, epsilon=float(eps), theta_cap=theta_cap, rng=rng
            )
        scores.append(result.exact_objective)
        times.append(timer.elapsed)
        thetas.append(float(result.theta))
    return {
        "epsilon": [float(e) for e in epsilons],
        "score": scores,
        "time": times,
        "theta": thetas,
    }


def rho_experiment(
    dataset: Dataset,
    rhos: Sequence[float],
    k: int,
    *,
    score: VotingScore | None = None,
    rng: int | np.random.Generator | None = None,
    **rw_kwargs: object,
) -> dict[str, list[float]]:
    """Plurality score and time of RW vs ρ (Fig. 16)."""
    rng = ensure_rng(rng)
    problem = dataset.problem(score or PluralityScore())
    problem.others_by_user()
    scores, times, walks = [], [], []
    for rho in rhos:
        with Timer() as timer:
            result = random_walk_select(problem, k, rho=float(rho), rng=rng, **rw_kwargs)
        scores.append(result.exact_objective)
        times.append(timer.elapsed)
        walks.append(float(result.total_walks))
    return {
        "rho": [float(r) for r in rhos],
        "score": scores,
        "time": times,
        "walks": walks,
    }


# ----------------------------------------------------------------------
# Fig. 17: scalability and memory vs graph size
# ----------------------------------------------------------------------
def scalability_experiment(
    dataset: Dataset,
    sizes: Sequence[int],
    k: int,
    *,
    methods: Sequence[str] = ("dm", "rw", "rs"),
    rng: int | np.random.Generator | None = None,
    method_kwargs: dict[str, dict[str, object]] | None = None,
    engine: str | None = None,
) -> dict[str, dict[str, list[float]]]:
    """Seed-finding time and memory vs node count (Fig. 17).

    Subsamples node sets of increasing size (as the paper does with
    Twitter_Social_Distancing) and runs each method on the induced
    subgraph with the cumulative score.  ``engine`` selects the DM
    evaluation backend (default: batched).
    """
    rng = ensure_rng(rng)
    method_kwargs = method_kwargs or {}
    times: dict[str, list[float]] = {m: [] for m in methods}
    memory: dict[str, list[float]] = {m: [] for m in methods}
    state = dataset.state
    base_graph = state.graph(dataset.target)
    for size in sizes:
        nodes = rng.choice(dataset.n, size=int(size), replace=False)
        sub, nodes = induced_subgraph(base_graph, nodes)
        sub_state = CampaignState(
            graphs=(sub,) * state.r,
            initial_opinions=state.initial_opinions[:, nodes],
            stubbornness=state.stubbornness[:, nodes],
            candidates=state.candidates,
        )
        problem = FJVoteProblem(
            sub_state, dataset.target, dataset.horizon, CumulativeScore()
        )
        dm_memory = float(
            sub.csr.data.nbytes
            + sub.csr.indices.nbytes
            + sub.csr.indptr.nbytes
            + sub_state.initial_opinions.nbytes
            + sub_state.stubbornness.nbytes
        )
        for method in methods:
            kwargs = dict(method_kwargs.get(method, {}))
            with Timer() as timer:
                if method == "rw":
                    result = random_walk_select(problem, k, rng=rng, **kwargs)
                    mem = dm_memory + result.memory_bytes
                elif method == "rs":
                    result = sketch_select(problem, k, rng=rng, **kwargs)
                    mem = dm_memory + result.memory_bytes
                else:
                    greedy_dm(problem, k, engine=engine, rng=rng)
                    mem = dm_memory
            times[method].append(timer.elapsed)
            memory[method].append(mem)
    return {
        "sizes": {"n": [float(s) for s in sizes]},
        "time": times,
        "memory": memory,
    }


# ----------------------------------------------------------------------
# Fig. 18 + Appendix B: opinion change over time, seed overlap across t
# ----------------------------------------------------------------------
def opinion_change_experiment(
    dataset: Dataset, deltas: Sequence[float], horizon: int
) -> dict[str, list[float]]:
    """% of users changing opinion per step, per tolerance Δ (Fig. 18)."""
    q = dataset.target
    state = dataset.state
    out: dict[str, list[float]] = {"t": [float(t) for t in range(1, horizon + 1)]}
    for delta in deltas:
        fractions = fraction_changing(
            state.initial_opinions[q],
            state.stubbornness[q],
            state.graph(q),
            horizon,
            float(delta),
        )
        out[f"delta={delta}%"] = [100.0 * f for f in fractions]
    return out


def horizon_seed_overlap(
    dataset: Dataset,
    ts: Sequence[int],
    reference_t: int,
    k: int,
    *,
    method: str = "rw",
    rng: int | np.random.Generator | None = None,
    **method_kwargs: object,
) -> dict[str, list[float]]:
    """Overlap of optimal seed sets across horizons (Appendix B)."""
    rng = ensure_rng(rng)
    reference = select_seeds(
        method, dataset.problem(CumulativeScore(), horizon=reference_t), k, rng,
        **method_kwargs,
    )
    overlaps = [
        seed_overlap(
            select_seeds(
                method,
                dataset.problem(CumulativeScore(), horizon=int(t)),
                k,
                rng,
                **method_kwargs,
            ),
            reference,
        )
        for t in ts
    ]
    return {"t": [float(t) for t in ts], "overlap": overlaps}


# ----------------------------------------------------------------------
# Fig. 19 (Appendix D): sensitivity to the edge-weight parameter μ
# ----------------------------------------------------------------------
def mu_experiment(
    dataset_factory: Callable[..., Dataset],
    mus: Sequence[float],
    ks: Sequence[int],
    score: VotingScore,
    *,
    method: str = "rw",
    dataset_seed: int = 0,
    rng: int | np.random.Generator | None = None,
    **method_kwargs: object,
) -> dict[str, list[float]]:
    """Score vs k for datasets rebuilt with different μ (Fig. 19)."""
    rng = ensure_rng(rng)
    out: dict[str, list[float]] = {"k": [float(k) for k in ks]}
    for mu in mus:
        dataset = dataset_factory(mu=float(mu), rng=dataset_seed)
        problem = dataset.problem(score)
        series = [
            problem.objective(
                select_seeds(method, problem, int(k), rng, **method_kwargs)
            )
            for k in ks
        ]
        out[f"mu={mu}"] = series
    return out
