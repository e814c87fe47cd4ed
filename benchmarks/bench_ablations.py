"""Ablations for the paper's design choices (not a paper figure).

Three claims baked into the paper's algorithms, measured head-to-head:

1. **CELF** (§III-C) — lazy evaluation on the submodular cumulative score
   must return the same seeds as exhaustive greedy with far fewer objective
   evaluations.
2. **Post-Generation Truncation** (§V-B, Theorem 9) — reusing one walk set
   across greedy rounds must be much faster than regenerating walks for
   every candidate seed set (Direct Generation), with statistically
   indistinguishable seed quality.
3. **Walk sketches vs RR sets** (§VI-A) — the paper argues its path-shaped
   sketches are lighter than the BFS-tree RR sets of classic IM; we compare
   average sketch sizes on the same graph.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.baselines.rrset import rr_set_ic
from repro.core.engine import make_engine
from repro.core.greedy import greedy_dm, greedy_engine
from repro.core.random_walk import (
    TruncatedWalks,
    WalkGreedyOptimizer,
    generate_reverse_walks_streamed,
)
from repro.eval.reporting import format_table
from repro.utils.timing import Timer
from repro.voting.scores import CumulativeScore


def test_ablation_celf_vs_exhaustive(benchmark, yelp_ds, save_result):
    problem = yelp_ds.problem(CumulativeScore())
    problem.others_by_user()
    k = 10

    def run():
        with Timer() as t_lazy:
            lazy = greedy_dm(problem, k, lazy=True)
        with Timer() as t_eager:
            eager = greedy_dm(problem, k, lazy=False)
        return lazy, eager, t_lazy.elapsed, t_eager.elapsed

    lazy, eager, t_lazy, t_eager = run_once(benchmark, run)
    save_result(
        "ablation_celf",
        format_table(
            ["variant", "objective", "evaluations", "time (s)"],
            [
                ["CELF", lazy.objective, lazy.evaluations, t_lazy],
                ["exhaustive", eager.objective, eager.evaluations, t_eager],
            ],
        ),
    )
    assert lazy.objective == pytest.approx(eager.objective)
    assert lazy.seeds.tolist() == eager.seeds.tolist()
    assert lazy.evaluations < 0.5 * eager.evaluations


def test_ablation_truncation_vs_regeneration(benchmark, mask_ds, save_result):
    problem = mask_ds.problem(CumulativeScore())
    state = problem.state
    q = problem.target
    graph = state.graph(q)
    graph.alias_sampler()  # build the cached table outside the timed regions
    k, lam = 8, 16
    starts = np.repeat(np.arange(problem.n, dtype=np.int64), lam)

    def run():
        # (a) Post-generation truncation: one walk set for all rounds.
        with Timer() as t_trunc:
            engine = make_engine("rw", problem, rng=71, walks_per_node=lam)
            trunc_result = greedy_engine(engine, k)
        # (b) Direct generation: regenerate all walks after every pick
        # (the expensive alternative §V-B replaces).
        with Timer() as t_regen:
            seeds: list[int] = []
            for pick in range(k):
                b0_s, d_s = state.seeded(q, np.array(seeds, dtype=np.int64))
                walks, lengths = generate_reverse_walks_streamed(
                    graph, d_s, problem.horizon, starts, [71, pick]
                )
                fresh = TruncatedWalks(walks, lengths, b0_s, graph.n)
                for s in seeds:
                    fresh.add_seed(s)
                opt = WalkGreedyOptimizer(fresh, CumulativeScore(), None)
                gains = opt.marginal_gains()
                if seeds:
                    gains[np.asarray(seeds)] = -np.inf
                seeds.append(int(np.argmax(gains)))
            regen_score = problem.objective(np.array(seeds))
        return trunc_result, regen_score, seeds, t_trunc.elapsed, t_regen.elapsed

    trunc_result, regen_score, regen_seeds, t_trunc, t_regen = run_once(benchmark, run)
    trunc_score = problem.objective(trunc_result.seeds)
    save_result(
        "ablation_truncation",
        format_table(
            ["variant", "exact score of seeds", "time (s)"],
            [
                ["post-generation truncation", trunc_score, t_trunc],
                ["regeneration per round", regen_score, t_regen],
            ],
        ),
    )
    # Same estimator in expectation: seed quality within a few percent.
    assert trunc_score >= 0.97 * regen_score
    # Reuse must be dramatically cheaper than k regenerations.
    assert t_trunc < 0.5 * t_regen


def test_ablation_finite_horizon_vs_equilibrium(benchmark, mask_ds, save_result):
    """Appendix A/B: optimizing at the Nash equilibrium (the objective of
    Gionis et al.) vs at the paper's finite horizon.  The seed sets overlap
    only partially at short horizons, and the equilibrium seeds score lower
    on the finite-horizon objective — the paper's motivation for FJ-Vote."""
    from repro.baselines.gedt import ged_equilibrium_select, gedt_select
    from repro.core.problem import FJVoteProblem
    from repro.eval.metrics import seed_overlap

    k = 10
    state = mask_ds.state
    # Anchor all users slightly so every seeded equilibrium exists.
    from repro.opinion.state import CampaignState

    anchored = CampaignState(
        graphs=state.graphs,
        initial_opinions=state.initial_opinions,
        stubbornness=np.clip(np.asarray(state.stubbornness), 0.05, 1.0),
    )

    def run():
        rows = []
        eq_seeds = None
        for t in (2, 5, 10):
            problem = FJVoteProblem(anchored, mask_ds.target, t, CumulativeScore())
            horizon_seeds = gedt_select(problem, k)
            if eq_seeds is None:  # equilibrium seeds do not depend on t
                eq_seeds = ged_equilibrium_select(problem, k)
            rows.append(
                [
                    t,
                    seed_overlap(horizon_seeds, eq_seeds),
                    problem.objective(horizon_seeds),
                    problem.objective(eq_seeds),
                ]
            )
        return rows

    rows = run_once(benchmark, run)
    save_result(
        "ablation_horizon_vs_equilibrium",
        format_table(
            ["t", "seed overlap", "F(horizon seeds)", "F(equilibrium seeds)"], rows
        ),
    )
    for _, _, f_horizon, f_eq in rows:
        # Horizon-greedy maximizes the reported objective: it cannot lose to
        # equilibrium seeds on its own metric.
        assert f_horizon >= f_eq - 1e-9


def test_ablation_walk_vs_rrset_size(benchmark, mask_ds, save_result):
    graph = mask_ds.state.graph(0)
    d = mask_ds.state.stubbornness[0]
    rng = np.random.default_rng(73)
    samples = 2000

    def run():
        roots = rng.integers(0, graph.n, size=samples)
        walks, lengths = generate_reverse_walks_streamed(
            graph, d, mask_ds.horizon, roots, [73]
        )
        walk_nodes = (lengths + 1).mean()
        rr_sizes = [rr_set_ic(graph, int(r), rng).size for r in roots[:500]]
        return walk_nodes, float(np.mean(rr_sizes))

    walk_nodes, rr_nodes = run_once(benchmark, run)
    save_result(
        "ablation_sketch_size",
        format_table(
            ["sketch type", "avg #nodes"],
            [["t-step reverse walk", walk_nodes], ["IC RR set (BFS tree)", rr_nodes]],
        ),
    )
    # Walks store a path; RR sets store a tree — walks must not be larger
    # by construction, and are typically much smaller.
    assert walk_nodes <= 2 * rr_nodes
