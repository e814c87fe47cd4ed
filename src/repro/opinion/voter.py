"""The (discrete) voter model — a related-work diffusion substrate (§VII).

In the voter model every user holds exactly one candidate at a time; at
each timestamp a node adopts the current candidate of a random in-neighbor
(weighted by influence, matching the column-stochastic convention).  Opinion
maximization under this model is the setting of [Even-Dar & Shapira] and the
works the paper cites as [54]-[56]; the substrate here lets users compare
discrete-state diffusion with the paper's real-valued FJ dynamics on the
same graphs.

Seeding semantics mirror §II-C: a seed holds the target candidate forever
(the "zealot" of the voter-model literature).
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import InfluenceGraph
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_time_horizon


def initial_states_from_opinions(opinions: np.ndarray) -> np.ndarray:
    """Discretize an opinion matrix: each user starts with her arg-max candidate.

    Ties break toward the lower candidate index (consistent with β's
    tie-counting in Eq. 4, where ties never favor the later candidate).
    """
    opinions = np.asarray(opinions, dtype=np.float64)
    if opinions.ndim != 2:
        raise ValueError("opinions must be a (r, n) matrix")
    return np.argmax(opinions, axis=0).astype(np.int64)


def simulate_voter(
    graph: InfluenceGraph,
    states: np.ndarray,
    horizon: int,
    *,
    zealots: np.ndarray | None = None,
    zealot_state: int = 0,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """One synchronous voter-model run; returns final states.

    At each of ``horizon`` steps every non-zealot node adopts the state of
    one in-neighbor sampled with the influence weights (self-loops keep the
    node's own state, preserving "no in-neighbors retain their opinion").
    """
    rng = ensure_rng(rng)
    horizon = check_time_horizon(horizon)
    states = np.array(states, dtype=np.int64)
    if states.shape != (graph.n,):
        raise ValueError(f"states must have shape ({graph.n},)")
    sampler = graph.alias_sampler()
    frozen = np.zeros(graph.n, dtype=bool)
    if zealots is not None:
        zealots = np.asarray(zealots, dtype=np.int64)
        states[zealots] = int(zealot_state)
        frozen[zealots] = True
    free = np.where(~frozen)[0]
    for _ in range(horizon):
        sources = sampler.sample(free, rng)
        states[free] = states[sources]
    return states


def voter_expected_shares(
    graph: InfluenceGraph,
    states: np.ndarray,
    horizon: int,
    r: int,
    *,
    zealots: np.ndarray | None = None,
    zealot_state: int = 0,
    mc_runs: int = 100,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Monte-Carlo expected fraction of users per candidate at the horizon."""
    if mc_runs < 1:
        raise ValueError("mc_runs must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    rng = ensure_rng(rng)
    counts = np.zeros(r, dtype=np.float64)
    for _ in range(mc_runs):
        final = simulate_voter(
            graph,
            states,
            horizon,
            zealots=zealots,
            zealot_state=zealot_state,
            rng=rng,
        )
        counts += np.bincount(final, minlength=r)[:r]
    return counts / (mc_runs * graph.n)
