"""The multi-campaign problem state.

A :class:`CampaignState` bundles everything §II of the paper takes as input:
``r`` candidates, an influence graph ``W_q`` per candidate (possibly shared),
the initial-opinion matrix ``B⁰ ∈ [0,1]^{r×n}`` and the stubbornness matrix
``D`` (stored as its diagonal, one row per candidate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.digraph import InfluenceGraph
from repro.utils.validation import check_opinions


@dataclass(frozen=True)
class CampaignState:
    """Immutable description of a multi-campaign opinion diffusion instance.

    Parameters
    ----------
    graphs:
        One :class:`InfluenceGraph` per candidate.  Pass the same object
        multiple times when all candidates share the influence matrix (as in
        the running example of Fig. 1).
    initial_opinions:
        ``(r, n)`` matrix ``B⁰``; ``initial_opinions[q, v]`` is user ``v``'s
        opinion on candidate ``q`` at time 0.
    stubbornness:
        ``(r, n)`` matrix of diagonal entries of ``D_q``; row ``q`` holds the
        per-user stubbornness toward candidate ``q``.
    candidates:
        Optional display names (defaults to ``c1..cr``).
    """

    graphs: tuple[InfluenceGraph, ...]
    initial_opinions: np.ndarray
    stubbornness: np.ndarray
    candidates: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        graphs = tuple(self.graphs)
        if len(graphs) < 1:
            raise ValueError("need at least one candidate graph")
        n = graphs[0].n
        if any(g.n != n for g in graphs):
            raise ValueError("all candidate graphs must have the same node count")
        b0 = check_opinions(np.asarray(self.initial_opinions, dtype=np.float64))
        d = check_opinions(np.asarray(self.stubbornness, dtype=np.float64), "stubbornness")
        r = len(graphs)
        if b0.shape != (r, n):
            raise ValueError(
                f"initial_opinions must have shape ({r}, {n}), got {b0.shape}"
            )
        if d.shape != (r, n):
            raise ValueError(f"stubbornness must have shape ({r}, {n}), got {d.shape}")
        names = tuple(self.candidates) or tuple(f"c{i + 1}" for i in range(r))
        if len(names) != r:
            raise ValueError(f"expected {r} candidate names, got {len(names)}")
        b0.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "initial_opinions", b0)
        object.__setattr__(self, "stubbornness", d)
        object.__setattr__(self, "candidates", names)

    def __setstate__(self, state: dict) -> None:
        # A read-only array unpickles as a view of the pickle's bytes, whose
        # WRITEABLE flag can never be set again; own B⁰ so that
        # ``FJVoteProblem.apply_delta`` rewrites it in place on either side
        # of a pickle (a tcp host replays every delta that way).
        b0 = np.array(state["initial_opinions"])
        b0.setflags(write=False)
        self.__dict__.update(state, initial_opinions=b0)

    # ------------------------------------------------------------------
    @property
    def r(self) -> int:
        """Number of candidates."""
        return len(self.graphs)

    @property
    def n(self) -> int:
        """Number of users."""
        return self.graphs[0].n

    def graph(self, q: int) -> InfluenceGraph:
        """Influence graph of candidate ``q``."""
        return self.graphs[q]

    def candidate_index(self, name: str) -> int:
        """Index of the candidate called ``name``."""
        try:
            return self.candidates.index(name)
        except ValueError:
            raise KeyError(f"unknown candidate {name!r}; have {self.candidates}") from None

    def seeded(self, q: int, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(b0_q, d_q)`` row copies with ``seeds`` applied.

        Seeding a node for candidate ``q`` sets its initial opinion and its
        stubbornness to 1 (§II-C), freezing the node at full support.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.size and (seeds.min() < 0 or seeds.max() >= self.n):
            raise ValueError("seed indices out of range")
        b0 = self.initial_opinions[q].copy()
        d = self.stubbornness[q].copy()
        b0[seeds] = 1.0
        d[seeds] = 1.0
        return b0, d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CampaignState(r={self.r}, n={self.n}, "
            f"candidates={list(self.candidates)})"
        )
