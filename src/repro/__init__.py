"""repro — a full reproduction of "Voting-based Opinion Maximization" (ICDE 2023).

Select k seed users for a target campaigner, competing with other campaigns
under Friedkin-Johnsen / DeGroot opinion diffusion, so as to maximize a
voting-based score (cumulative, plurality, p-approval, positional-p-approval,
Copeland) at a finite time horizon.

Quickstart
----------
>>> import numpy as np
>>> from repro import (CampaignState, FJVoteProblem, PluralityScore,
...                    graph_from_edges, greedy_dm)
>>> g = graph_from_edges(4, [0, 1, 2], [2, 2, 3],
...                      weight=np.array([1.0, 1.0, 1.0]))
>>> state = CampaignState(
...     graphs=(g, g),
...     initial_opinions=np.array([[0.4, 0.8, 0.4, 0.6], [0.3, 0.7, 0.7, 0.9]]),
...     stubbornness=np.full((2, 4), 0.5),
... )
>>> problem = FJVoteProblem(state, target=0, horizon=1, score=PluralityScore())
>>> greedy_dm(problem, k=1).seeds  # doctest: +SKIP
array([2])
"""

from repro.core.engine import (
    BatchedDMEngine,
    DMEngine,
    EngineStats,
    ObjectiveEngine,
    SelectionSession,
    WalkEngine,
    make_engine,
)
from repro.core.engine_mp import MultiprocessDMEngine
from repro.core.greedy import GreedyResult, greedy_dm, greedy_engine, greedy_select
from repro.core.problem import FJVoteProblem
from repro.core.random_walk import TruncatedWalks, random_walk_select
from repro.core.sandwich import SandwichResult, sandwich_select
from repro.core.sketch import SketchSelectResult, sketch_select
from repro.core.winmin import WinMinResult, min_seeds_to_win
from repro.graph.build import column_stochastic, graph_from_edges
from repro.graph.digraph import InfluenceGraph
from repro.opinion.degroot import degroot_evolve
from repro.opinion.fj import fj_evolve, horizon_opinions
from repro.opinion.state import CampaignState
from repro.voting.rules import condorcet_winner, score_all_candidates, winner
from repro.voting.scores import (
    CopelandScore,
    CumulativeScore,
    PApprovalScore,
    PluralityScore,
    PositionalPApprovalScore,
    VotingScore,
    make_score,
)

__version__ = "1.0.0"

__all__ = [
    "BatchedDMEngine",
    "CampaignState",
    "CopelandScore",
    "CumulativeScore",
    "DMEngine",
    "EngineStats",
    "FJVoteProblem",
    "GreedyResult",
    "InfluenceGraph",
    "MultiprocessDMEngine",
    "ObjectiveEngine",
    "SelectionSession",
    "WalkEngine",
    "PApprovalScore",
    "PluralityScore",
    "PositionalPApprovalScore",
    "SandwichResult",
    "SketchSelectResult",
    "TruncatedWalks",
    "VotingScore",
    "WinMinResult",
    "column_stochastic",
    "condorcet_winner",
    "degroot_evolve",
    "fj_evolve",
    "graph_from_edges",
    "greedy_dm",
    "greedy_engine",
    "greedy_select",
    "horizon_opinions",
    "make_engine",
    "make_score",
    "min_seeds_to_win",
    "random_walk_select",
    "sandwich_select",
    "score_all_candidates",
    "sketch_select",
    "winner",
]
