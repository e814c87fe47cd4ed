"""Problem 1 (FJ-Vote) as a first-class object.

An :class:`FJVoteProblem` fixes the campaign state, the target candidate, the
time horizon and the scoring function, and exposes the objective
``F(B(t)[S], c_q)`` as a function of the seed set ``S``.  Competitor opinions
at the horizon never depend on the target's seeds (campaigns diffuse
independently, §II-B), so they are computed once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.opinion.fj import fj_evolve
from repro.opinion.state import CampaignState
from repro.utils.validation import check_index, check_index_array, check_time_horizon
from repro.voting.rules import is_strict_winner, score_all_candidates
from repro.voting.scores import SeparableScore, VotingScore


@dataclass(frozen=True)
class DeltaReport:
    """What :meth:`FJVoteProblem.apply_delta` changed, for cache layers.

    Downstream consumers (``BatchedDMEngine.apply_delta``,
    ``WalkStore.apply_delta``, the ``dm-mp`` delta broadcast) key their
    invalidation on this report instead of re-deriving it from the graph.

    Attributes
    ----------
    graph_version / opinion_version:
        The problem's monotone versions *after* this delta.  Only graph
        (edge) changes bump ``graph_version`` — persisted walk stores key
        their validity on it, because stored walks depend on the graph and
        stubbornness but never on initial opinions.
    touched_nodes:
        Sorted union, over all changed graphs, of columns whose in-edge
        distribution changed (the nodes a reverse walk must not step *from*
        for its stored bytes to stay valid).
    touched_by_candidate:
        Per-candidate view of ``touched_nodes`` (candidates sharing a
        changed graph all appear).
    opinions_by_candidate:
        Per-candidate sorted node arrays whose initial opinions changed.
    structural:
        Whether any graph's sparsity pattern changed (insert/remove) as
        opposed to in-place weight rewrites.
    """

    graph_version: int
    opinion_version: int
    touched_nodes: np.ndarray
    touched_by_candidate: dict[int, np.ndarray] = field(default_factory=dict)
    opinions_by_candidate: dict[int, np.ndarray] = field(default_factory=dict)
    #: Per-candidate ``(nodes, new - old)`` opinion shifts, aligned with
    #: ``opinions_by_candidate`` — what a session correction patch seeds
    #: its ``d·Δb⁰`` forcing term with.
    opinion_deltas: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    structural: bool = False
    edges_added: int = 0
    edges_removed: int = 0
    competitor_rows_refreshed: int = 0

    @property
    def empty(self) -> bool:
        return not self.touched_by_candidate and not self.opinions_by_candidate

    def target_touched(self, target: int) -> np.ndarray:
        """Graph-touched nodes for candidate ``target`` (empty if untouched)."""
        return self.touched_by_candidate.get(target, np.empty(0, dtype=np.int64))


class FJVoteProblem:
    """Seed-selection problem: maximize ``F(B(t)[S], c_q)`` s.t. ``|S| = k``.

    Parameters
    ----------
    state:
        The multi-campaign instance (graphs, B⁰, stubbornness).
    target:
        Index ``q`` of the target candidate.
    horizon:
        Time horizon ``t`` at which the vote takes place.
    score:
        One of the :mod:`repro.voting.scores` functions.
    """

    def __init__(
        self,
        state: CampaignState,
        target: int,
        horizon: int,
        score: VotingScore,
        *,
        competitor_seeds: dict[int, np.ndarray] | None = None,
    ) -> None:
        if not 0 <= target < state.r:
            raise ValueError(f"target must be in [0, {state.r}), got {target}")
        self.state = state
        self.target = int(target)
        self.horizon = check_time_horizon(horizon)
        self.score = score
        # §II-C Remark (2): competitors may have their own (known, fixed)
        # seed sets placed at time 0.  They only shift the competitors'
        # horizon opinions, which stay independent of the target's seeds.
        self.competitor_seeds: dict[int, np.ndarray] = {}
        for cand, seeds in (competitor_seeds or {}).items():
            cand = int(cand)
            if cand == self.target:
                raise ValueError(
                    "competitor_seeds must not include the target candidate"
                )
            if not 0 <= cand < state.r:
                raise ValueError(f"unknown candidate index {cand}")
            self.competitor_seeds[cand] = np.asarray(seeds, dtype=np.int64)
        self._competitors: np.ndarray | None = None
        self._others_by_user: np.ndarray | None = None
        self._base_target: np.ndarray | None = None
        self._base_trajectory: np.ndarray | None = None
        self._seeded_trajectories: dict[tuple[int, ...], np.ndarray] = {}
        #: Monotone counters bumped by :meth:`apply_delta` (graph / opinion
        #: churn respectively).  Persisted walk stores pin ``graph_version``.
        self.graph_version = 0
        self.opinion_version = 0
        #: Number of FJ evolution steps (one dense n-vector update each)
        #: spent filling this problem's caches — competitor rows, base
        #: target row/trajectory, seeded trajectories, and delta-driven
        #: refreshes.  Benchmarks compare this across incremental vs.
        #: from-scratch refresh paths.
        self.evolution_steps = 0

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of users."""
        return self.state.n

    @property
    def r(self) -> int:
        """Number of candidates."""
        return self.state.r

    def competitor_opinions(self) -> np.ndarray:
        """``(r-1, n)`` horizon opinions of all non-target candidates (cached).

        Competitors with entries in ``competitor_seeds`` diffuse from their
        seeded ``(b⁰, D)``; the caches remain valid because these seed sets
        are fixed inputs, not decision variables.
        """
        if self._competitors is None:
            rows = []
            for x in range(self.r):
                if x == self.target:
                    continue
                if x in self.competitor_seeds:
                    b0_x, d_x = self.state.seeded(x, self.competitor_seeds[x])
                else:
                    b0_x = self.state.initial_opinions[x]
                    d_x = self.state.stubbornness[x]
                rows.append(fj_evolve(b0_x, d_x, self.state.graph(x), self.horizon))
                self.evolution_steps += self.horizon
            self._competitors = (
                np.vstack(rows) if rows else np.empty((0, self.n), dtype=np.float64)
            )
        return self._competitors

    def others_by_user(self) -> np.ndarray:
        """``(n, r-1)`` transpose of :meth:`competitor_opinions` (cached)."""
        if self._others_by_user is None:
            self._others_by_user = np.ascontiguousarray(self.competitor_opinions().T)
        return self._others_by_user

    def target_opinions(self, seeds: np.ndarray | tuple = ()) -> np.ndarray:
        """Horizon opinions about the target with ``seeds`` applied."""
        seeds = check_index_array(seeds, "seeds")
        if seeds.size == 0:
            if self._base_target is None:
                self._base_target = fj_evolve(
                    self.state.initial_opinions[self.target],
                    self.state.stubbornness[self.target],
                    self.state.graph(self.target),
                    self.horizon,
                )
                self.evolution_steps += self.horizon
            return self._base_target
        b0, d = self.state.seeded(self.target, seeds)
        self.evolution_steps += self.horizon
        return fj_evolve(b0, d, self.state.graph(self.target), self.horizon)

    #: Seeded trajectories kept alive at once (FIFO eviction).  Each entry is
    #: a dense ``(horizon+1, n)`` array, so the cap stays deliberately small;
    #: selection sessions carry their own warm state beyond this.
    SEEDED_TRAJECTORY_CACHE = 8

    def target_trajectory(self, seeds: np.ndarray | tuple = ()) -> np.ndarray:
        """``(horizon+1, n)`` target opinions at every step under ``seeds`` (cached).

        Row ``s`` is ``b_q(s)`` with ``seeds`` pinned to opinion 1.  The
        unseeded call is the shared base trajectory the batched engine
        perturbs: seeding only *pins* coordinates, so every seeded evolution
        is this trajectory plus a homogeneous delta (see
        :mod:`repro.core.engine`).  Seeded bases are cached too (keyed by the
        deduplicated seed set, bounded FIFO) — they anchor warm-started
        selection sessions, which evolve each round's candidate deltas
        against the *committed* trajectory instead of replaying the committed
        seeds from scratch.
        """
        seeds = np.unique(check_index_array(seeds, "seeds"))
        if seeds.size:
            key = tuple(int(v) for v in seeds)
            cached = self._seeded_trajectories.get(key)
            if cached is None:
                from repro.opinion.fj import fj_trajectory

                b0, d = self.state.seeded(self.target, seeds)
                steps = fj_trajectory(
                    b0, d, self.state.graph(self.target), self.horizon
                )
                cached = np.vstack([b[None, :] for b in steps])
                self.evolution_steps += self.horizon
                while len(self._seeded_trajectories) >= self.SEEDED_TRAJECTORY_CACHE:
                    self._seeded_trajectories.pop(
                        next(iter(self._seeded_trajectories))
                    )
                self._seeded_trajectories[key] = cached
            return cached
        if self._base_trajectory is None:
            from repro.opinion.fj import fj_trajectory

            steps = fj_trajectory(
                self.state.initial_opinions[self.target],
                self.state.stubbornness[self.target],
                self.state.graph(self.target),
                self.horizon,
            )
            self._base_trajectory = np.vstack([b[None, :] for b in steps])
            self.evolution_steps += self.horizon
            if self._base_target is None:
                self._base_target = self._base_trajectory[-1]
        return self._base_trajectory

    # ------------------------------------------------------------------
    # Incremental deltas
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        edges_added: "list[tuple[int, int, float]] | tuple" = (),
        edges_removed: "list[tuple[int, int]] | tuple" = (),
        opinions_changed: "list[tuple[int, int, float]] | tuple" = (),
        *,
        candidate: int | None = None,
    ) -> DeltaReport:
        """Apply graph/opinion churn in place; re-solve cost scales with it.

        ``edges_added`` / ``edges_removed`` are forwarded to
        :meth:`InfluenceGraph.apply_edge_delta` on ``candidate``'s graph
        (default: the target's); candidates *sharing* that graph object are
        all marked touched.  ``opinions_changed`` holds ``(candidate, node,
        value)`` triples rewriting initial opinions (clipped to ``[0, 1]``).

        Caches are refreshed surgically instead of dropped wholesale:

        * competitor horizon rows are recomputed *only* for touched
          competitors (bit-identical to a cold recompute — each row is an
          independent ``fj_evolve``), untouched rows keep their bytes;
        * the target's base row/trajectory and seeded-trajectory cache are
          invalidated lazily only when the target itself was touched;
        * ``graph_version`` bumps on edge churn (persisted walk stores pin
          it), ``opinion_version`` on opinion churn (walk stores *survive*
          opinion-only deltas — stored walks never depend on ``B⁰``).

        Returns a :class:`DeltaReport` that downstream layers
        (``BatchedDMEngine.apply_delta``, ``WalkStore.apply_delta``, the
        ``dm-mp`` delta broadcast) consume to invalidate exactly what the
        delta touched.
        """
        cand = self.target if candidate is None else check_index(candidate, "candidate")
        if not 0 <= cand < self.r:
            raise ValueError(f"candidate must be in [0, {self.r}), got {cand}")
        # Opinion rows are validated before the graph surgery, so a bad row
        # leaves the graph, the opinions and both versions untouched.
        ops = [
            (
                check_index(q, "opinion candidate"),
                check_index(v, "opinion node"),
                float(x),
            )
            for q, v, x in opinions_changed
        ]
        by_cand: dict[int, dict[int, float]] = {}
        for q, v, x in ops:
            if not 0 <= q < self.r:
                raise ValueError(f"opinion candidate {q} out of range")
            if not 0 <= v < self.n:
                raise ValueError(f"opinion node {v} out of range")
            if not np.isfinite(x):
                raise ValueError(f"opinion value for ({q}, {v}) not finite")
            # Last write wins when one node appears twice.
            by_cand.setdefault(q, {})[v] = min(max(x, 0.0), 1.0)
        graph = self.state.graph(cand)
        touched, structural = graph.apply_edge_delta(edges_added, edges_removed)
        touched_by_candidate: dict[int, np.ndarray] = {}
        if touched.size:
            for q in range(self.r):
                if self.state.graph(q) is graph:
                    touched_by_candidate[q] = touched
        opinions_by_candidate: dict[int, np.ndarray] = {}
        opinion_deltas: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if ops:
            b0 = self.state.initial_opinions
            b0.setflags(write=True)
            try:
                for q, writes in sorted(by_cand.items()):
                    nodes = np.array(sorted(writes), dtype=np.int64)
                    values = np.array([writes[int(v)] for v in nodes])
                    shift = values - b0[q, nodes]
                    b0[q, nodes] = values
                    opinions_by_candidate[q] = nodes
                    opinion_deltas[q] = (nodes, shift)
            finally:
                b0.setflags(write=False)
        if touched.size:
            self.graph_version += 1
        if ops:
            self.opinion_version += 1
        refreshed = self._refresh_for_delta(
            touched_by_candidate, opinions_by_candidate
        )
        return DeltaReport(
            graph_version=self.graph_version,
            opinion_version=self.opinion_version,
            touched_nodes=touched,
            touched_by_candidate=touched_by_candidate,
            opinions_by_candidate=opinions_by_candidate,
            opinion_deltas=opinion_deltas,
            structural=structural,
            edges_added=len(tuple(edges_added)),
            edges_removed=len(tuple(edges_removed)),
            competitor_rows_refreshed=refreshed,
        )

    def _refresh_for_delta(
        self,
        touched_by_candidate: dict[int, np.ndarray],
        opinions_by_candidate: dict[int, np.ndarray],
    ) -> int:
        """Surgical cache refresh; returns competitor rows recomputed."""
        dirty = set(touched_by_candidate) | set(opinions_by_candidate)
        if self.target in dirty:
            self._base_target = None
            self._base_trajectory = None
            self._seeded_trajectories.clear()
        dirty_comps = sorted(dirty - {self.target})
        refreshed = 0
        if dirty_comps and self._competitors is not None:
            others = [x for x in range(self.r) if x != self.target]
            for x in dirty_comps:
                row = others.index(x)
                if x in self.competitor_seeds:
                    b0_x, d_x = self.state.seeded(x, self.competitor_seeds[x])
                else:
                    b0_x = self.state.initial_opinions[x]
                    d_x = self.state.stubbornness[x]
                fresh = fj_evolve(b0_x, d_x, self.state.graph(x), self.horizon)
                self.evolution_steps += self.horizon
                if not self._competitors.flags.writeable:
                    self._competitors = self._competitors.copy()
                self._competitors[row] = fresh
                if self._others_by_user is not None:
                    if not self._others_by_user.flags.writeable:
                        self._others_by_user = self._others_by_user.copy()
                    self._others_by_user[:, row] = fresh
                refreshed += 1
        return refreshed

    def __getstate__(self) -> dict:
        """Pickle support for the ``dm-mp:tcp=...`` host handshake.

        Ships the instance and its *shareable* caches — competitor
        opinions and the unseeded base trajectory, which every host
        would otherwise recompute identically — but drops the
        seeded-trajectory cache: that is per-session warm state (up to
        :data:`SEEDED_TRAJECTORY_CACHE` dense ``(horizon+1, n)`` arrays),
        and host sessions rebuild their committed trajectories from
        commit broadcasts instead (see :mod:`repro.core.engine_mp`).  The
        pickled size is therefore bounded by the instance's fixed state
        regardless of how many seeded trajectories were evaluated — a
        regression test pins that byte budget.
        """
        state = self.__dict__.copy()
        state["_seeded_trajectories"] = {}
        return state

    #: Cache attributes the pickle ships (shared inputs every host would
    #: recompute identically); the seeded-trajectory cache is
    #: deliberately absent — see :meth:`__getstate__`.
    _SHAREABLE_CACHES = (
        "_competitors",
        "_others_by_user",
        "_base_target",
        "_base_trajectory",
    )

    def full_opinions(self, seeds: np.ndarray | tuple = ()) -> np.ndarray:
        """Full ``(r, n)`` horizon opinion matrix with ``seeds`` for the target."""
        return self.full_opinions_from_target(self.target_opinions(seeds))

    def full_opinions_from_target(self, target_row: np.ndarray) -> np.ndarray:
        """``(r, n)`` horizon opinions from a precomputed target row.

        Competitor rows come from the shared cache; only the target row is
        caller-supplied.  This is how selection sessions turn a warm-started
        horizon row into a full voting profile without an FJ re-evolution.
        """
        competitors = self.competitor_opinions()
        out = np.empty((self.r, self.n), dtype=np.float64)
        out[self.target] = target_row
        others = [x for x in range(self.r) if x != self.target]
        for row, x in enumerate(others):
            out[x] = competitors[row]
        return out

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------
    def objective(self, seeds: np.ndarray | tuple = ()) -> float:
        """``F(B(t)[S], c_q)`` for seed set ``seeds``."""
        if isinstance(self.score, SeparableScore):
            values = self.target_opinions(seeds)
            return float(self.score.contributions(values, self.others_by_user()).sum())
        return float(self.score.evaluate(self.full_opinions(seeds), self.target))

    def all_scores(self, seeds: np.ndarray | tuple = ()) -> np.ndarray:
        """Scores of all candidates with ``seeds`` applied to the target."""
        return score_all_candidates(self.full_opinions(seeds), self.score)

    def target_wins(self, seeds: np.ndarray | tuple = ()) -> bool:
        """Problem-2 winning criterion: strict score maximum for the target."""
        return is_strict_winner(self.full_opinions(seeds), self.score, self.target)

    def target_wins_from_row(self, target_row: np.ndarray) -> bool:
        """Winning criterion from a precomputed target horizon row.

        Used by warm-started sessions whose prefix probes already hold the
        seeded horizon opinions (see ``SelectionSession.prefix_wins``).
        """
        return is_strict_winner(
            self.full_opinions_from_target(target_row), self.score, self.target
        )

    def with_score(self, score: VotingScore) -> "FJVoteProblem":
        """A copy of the problem with a different scoring function.

        Competitor opinion caches are shared: they depend only on the state,
        horizon, and competitor seeds, not on the score.
        """
        clone = FJVoteProblem(
            self.state,
            self.target,
            self.horizon,
            score,
            competitor_seeds=self.competitor_seeds,
        )
        clone._competitors = self._competitors
        clone._others_by_user = self._others_by_user
        clone._base_target = self._base_target
        clone._base_trajectory = self._base_trajectory
        clone._seeded_trajectories = self._seeded_trajectories
        clone.graph_version = self.graph_version
        clone.opinion_version = self.opinion_version
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FJVoteProblem(target={self.target}, horizon={self.horizon}, "
            f"score={self.score.name}, n={self.n}, r={self.r})"
        )
