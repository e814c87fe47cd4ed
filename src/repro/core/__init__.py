"""Core algorithms: the FJ-Vote problems and all seed-selection methods."""

from repro.core.bounds import (
    lambda_copeland,
    lambda_cumulative,
    lambda_rank,
    theta_cumulative,
)
from repro.core.engine import (
    ENGINE_HELP,
    ENGINE_NAMES,
    BatchedDMEngine,
    DMEngine,
    EngineStats,
    EstimatorPrecisionWarning,
    ObjectiveEngine,
    SelectionSession,
    WalkEngine,
    make_engine,
    spec_is_exact_dm,
)
from repro.core.engine_mp import MultiprocessDMEngine
from repro.core.exact import brute_force_optimum, submodularity_violations
from repro.core.greedy import (
    GreedyResult,
    greedy_dm,
    greedy_engine,
    greedy_select,
    run_selection_rounds,
)
from repro.core.problem import FJVoteProblem
from repro.core.random_walk import TruncatedWalks, random_walk_select
from repro.core.reachability import ReachabilityIndex, coverage_greedy
from repro.core.sandwich import SandwichResult, sandwich_select
from repro.core.sketch import sketch_select
from repro.core.walk_store import RRSetPool, StoreStats, WalkStore, store_for_problem
from repro.core.winmin import WinMinResult, min_seeds_to_win

__all__ = [
    "BatchedDMEngine",
    "DMEngine",
    "ENGINE_HELP",
    "ENGINE_NAMES",
    "EngineStats",
    "EstimatorPrecisionWarning",
    "FJVoteProblem",
    "GreedyResult",
    "MultiprocessDMEngine",
    "ObjectiveEngine",
    "ReachabilityIndex",
    "SandwichResult",
    "RRSetPool",
    "SelectionSession",
    "StoreStats",
    "TruncatedWalks",
    "WalkEngine",
    "WalkStore",
    "WinMinResult",
    "brute_force_optimum",
    "coverage_greedy",
    "greedy_dm",
    "greedy_engine",
    "greedy_select",
    "make_engine",
    "spec_is_exact_dm",
    "lambda_copeland",
    "lambda_cumulative",
    "lambda_rank",
    "min_seeds_to_win",
    "random_walk_select",
    "run_selection_rounds",
    "sandwich_select",
    "sketch_select",
    "store_for_problem",
    "submodularity_violations",
    "theta_cumulative",
]
