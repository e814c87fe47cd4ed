"""Random-walk-based opinion estimation and greedy seed selection (paper §V).

A *t-step reverse random walk* from node ``u`` walks the in-edges of the
target candidate's graph: at each of ``t`` steps it first terminates at the
current node ``v`` with probability ``d_qv`` (the stubbornness), otherwise
moves to an in-neighbor sampled with the column-stochastic weights.  The
initial opinion of the end node is an unbiased estimate of ``b_qu^(t)``
(Theorem 8).

*Post-Generation Truncation* (Theorem 9) lets one walk collection serve
every seed set: walks are generated once with no seeds, and a seed set ``S``
simply truncates each walk at its first occurrence of a node in ``S`` (whose
initial opinion is 1).  :class:`TruncatedWalks` stores the walks in padded
matrices plus a first-occurrence inverted index so that each greedy round of
Algorithm 4/5 is a handful of vectorized numpy passes.

There is one walk generator, :func:`generate_reverse_walks_streamed`, and
every walk is drawn by the :class:`~repro.core.walk_store.WalkStore` in
deterministic blocks.  There is one greedy loop,
:func:`~repro.core.greedy.greedy_engine` over a
:class:`~repro.core.engine.WalkEngine`, whose scoring kernel is
:class:`WalkGreedyOptimizer`.  :func:`random_walk_select` (RW) and
:func:`repro.core.sketch.sketch_select` (RS) only choose the sample size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bounds import lambda_cumulative, lambda_rank
from repro.core.greedy import greedy_engine
from repro.core.problem import FJVoteProblem
from repro.graph.digraph import InfluenceGraph
from repro.utils.validation import check_count, check_seed_budget
from repro.voting.scores import (
    CopelandScore,
    CumulativeScore,
    SeparableScore,
    VotingScore,
)


#: splitmix64 constants: the golden-ratio counter increment and the two
#: finaliser multipliers (Steele, Lea & Flood, "Fast splittable
#: pseudorandom number generators", OOPSLA 2014).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser over a ``uint64`` array (wrapping).

    Only ever called on arrays: numpy wraps array integer arithmetic
    silently, where the same multiply on two numpy scalars warns.
    """
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _walk_keys(entropy: "list[int]", stream_indices: np.ndarray) -> np.ndarray:
    """Per-walk ``uint64`` keys of a counter-based uniform source.

    The block key is derived once from ``entropy`` (its ``SeedSequence``
    child 0, so it never overlaps the block's start-node stream); walk
    ``i``'s key is ``mix64(block key + i·γ)``.
    """
    block_key = np.random.SeedSequence(entropy, spawn_key=(0,)).generate_state(
        1, np.uint64
    )
    return _mix64(block_key + stream_indices.astype(np.uint64) * np.uint64(_GAMMA))


def _counter_uniforms(
    keys: np.ndarray, rows: np.ndarray, step: int, slot: int
) -> np.ndarray:
    """Uniforms in ``[0, 1)`` for ``(walk key, step, slot)``, one per row.

    Walk ``i`` reads splitmix64 output ``3·step + slot`` of the stream
    seeded by its key: a pure function of the counter, so any subset of
    walks can be drawn in any order, vectorised over the rows asked for.
    """
    offset = np.uint64(((3 * step + slot) * _GAMMA) & _MASK64)
    bits = _mix64(keys[rows] + offset) >> np.uint64(11)
    return bits * (1.0 / (1 << 53))


def generate_reverse_walks_streamed(
    graph: InfluenceGraph,
    stubbornness: np.ndarray,
    horizon: int,
    starts: np.ndarray,
    entropy: "list[int]",
    *,
    stream_indices: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate reverse walks with one deterministic uniform stream *per walk*.

    The library's one walk generator: every walk store block is drawn
    here.  Walk ``i`` (its ``stream_indices`` entry, defaulting to its
    position) draws its step-``s`` uniforms — slot 0 decides termination,
    slots 1 and 2 are the two alias-method draws of the in-neighbor pick —
    from a counter-based source: a splitmix64 hash of ``(block key from
    entropy, i, s, slot)``, computed vectorised for just the walks a step
    needs.  Because every walk owns its uniforms, a walk is a pure
    function of ``(start, entropy, i, the columns it transitions from)``:
    the walk store can regenerate exactly the walks invalidated by a
    graph delta, and the patched block is byte-identical to regenerating
    the whole block from scratch.  The alias table comes from
    :meth:`InfluenceGraph.alias_sampler`; an edge delta rebuilds only the
    columns it touched.

    Returns ``(walks, lengths)`` where ``walks`` is ``(W, horizon+1)`` int32
    padded with -1 and ``lengths[i]`` is the index of walk ``i``'s end node.
    """
    starts = np.asarray(starts, dtype=np.int64)
    num = starts.size
    if stream_indices is None:
        stream_indices = np.arange(num, dtype=np.int64)
    else:
        stream_indices = np.asarray(stream_indices, dtype=np.int64)
        if stream_indices.shape != (num,):
            raise ValueError("stream_indices must match starts in length")
        if num and stream_indices.min() < 0:
            raise ValueError("stream_indices must be non-negative")
    if num and (starts.min() < 0 or starts.max() >= graph.n):
        raise ValueError("walk start nodes out of range")
    d = np.asarray(stubbornness, dtype=np.float64)
    if d.shape != (graph.n,):
        raise ValueError(f"stubbornness must have shape ({graph.n},)")
    keys = _walk_keys(entropy, stream_indices)
    sampler = graph.alias_sampler()
    walks = np.full((num, horizon + 1), -1, dtype=np.int32)
    walks[:, 0] = starts
    lengths = np.zeros(num, dtype=np.int64)
    cur = starts.copy()
    active = np.ones(num, dtype=bool)
    for step in range(1, horizon + 1):
        idx = np.where(active)[0]
        if idx.size == 0:
            break
        stops = _counter_uniforms(keys, idx, step, 0) < d[cur[idx]]
        active[idx[stops]] = False
        go = idx[~stops]
        if go.size == 0:
            continue
        nxt = sampler.sample_with(
            cur[go],
            _counter_uniforms(keys, go, step, 1),
            _counter_uniforms(keys, go, step, 2),
        )
        walks[go, step] = nxt
        cur[go] = nxt
        lengths[go] = step
    return walks, lengths


class TruncatedWalks:
    """A collection of reverse walks supporting Post-Generation Truncation.

    Attributes
    ----------
    walks, lengths, starts:
        The generated walks (see :func:`generate_reverse_walks_streamed`).
    end_pos:
        Current truncation pointer per walk; the walk's estimate is the
        (possibly seeded) initial opinion of ``walks[i, end_pos[i]]``.
    values:
        Current per-walk estimates ``Y_qu^(t)[S]``.
    """

    def __init__(
        self,
        walks: np.ndarray,
        lengths: np.ndarray,
        initial_opinions: np.ndarray,
        n: int,
    ) -> None:
        self.walks = walks
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.n = int(n)
        self._build_index()  # validates lengths against the padding
        self.starts = walks[:, 0].astype(np.int64)
        self.num_walks = walks.shape[0]
        self._b0 = np.array(initial_opinions, dtype=np.float64)
        if self._b0.shape != (self.n,):
            raise ValueError(f"initial_opinions must have shape ({self.n},)")
        self.end_pos = self.lengths.copy()
        ends = walks[np.arange(self.num_walks), self.end_pos]
        self.values = self._b0[ends]
        self._seeds: list[int] = []
        self._seed_set: set[int] = set()
        self._shared = False

    # ------------------------------------------------------------------
    def _build_index(self) -> None:
        """First-occurrence inverted index: (node, walk, pos) triples.

        Only the first occurrence of a node within a walk matters: it is
        where truncation would cut.  Triples are stored sorted by node, then
        walk, with a CSR-style ``node_ptr`` for per-node slicing.

        Walk ``i`` occupies cells ``0..lengths[i]`` and is ``-1``-padded
        after them, so the entries are read straight from the lengths
        (walk-major, position-ascending).  A stable sort on the node keeps
        that order inside each node, so every (node, walk) run is adjacent
        with its first position first; node ids narrow to ``uint16`` when
        they fit, which lets numpy take its linear radix sort.
        """
        num, width = self.walks.shape
        span = self.lengths + 1
        if num and (self.lengths.min() < 0 or self.lengths.max() >= width):
            raise ValueError(f"walk lengths must lie in [0, {width - 1}]")
        wids = np.repeat(np.arange(num, dtype=np.int64), span)
        pos = np.arange(wids.size, dtype=np.int64) - np.repeat(
            np.cumsum(span) - span, span
        )
        nodes = self.walks[wids, pos].astype(np.int64)
        valid = np.count_nonzero(self.walks >= 0)
        if valid != nodes.size or (nodes.size and nodes.min() < 0):
            raise ValueError(
                "walk lengths disagree with the -1 padding of the walk matrix"
            )
        sort_key = nodes.astype(np.uint16) if self.n <= 1 << 16 else nodes
        order = np.argsort(sort_key, kind="stable")
        nodes, pos, wids = nodes[order], pos[order], wids[order]
        first = np.ones(nodes.size, dtype=bool)
        first[1:] = (nodes[1:] != nodes[:-1]) | (wids[1:] != wids[:-1])
        self.idx_node = nodes[first]
        self.idx_pos = pos[first]
        self.idx_walk = wids[first]
        self.node_ptr = np.searchsorted(self.idx_node, np.arange(self.n + 1))

    # ------------------------------------------------------------------
    def entries_for(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """``(walk_ids, first_positions)`` of walks containing ``node``."""
        lo, hi = self.node_ptr[node], self.node_ptr[node + 1]
        return self.idx_walk[lo:hi], self.idx_pos[lo:hi]

    @property
    def seeds(self) -> list[int]:
        """Seeds applied so far, in application order."""
        return self._seeds

    @seeds.setter
    def seeds(self, value) -> None:
        self._seeds = [int(v) for v in value]
        self._seed_set = set(self._seeds)

    def snapshot_state(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy snapshot of ``(end_pos, values, b0)``.

        The arrays are returned *by reference* and the collection is
        marked shared: the next mutating :meth:`add_seed` copies before
        writing (copy-on-write), so the snapshot stays pristine without
        either side paying an upfront copy.
        """
        self._shared = True
        return (self.end_pos, self.values, self._b0)

    def restore_state(
        self, state: tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> None:
        """Adopt a :meth:`snapshot_state` by reference and clear seeds.

        No arrays are copied here — restore is an O(1) pointer swap, and
        copy-on-write in :meth:`add_seed` protects the snapshot.
        """
        self.end_pos, self.values, self._b0 = state
        self._shared = True
        self._seeds = []
        self._seed_set = set()

    def _own_state(self) -> None:
        """Copy-on-write barrier: materialize private arrays before a write."""
        if self._shared:
            self.end_pos = self.end_pos.copy()
            self.values = self.values.copy()
            self._b0 = self._b0.copy()
            self._shared = False

    def share(self) -> "TruncatedWalks":
        """A clone sharing the walks and index, with private truncation state.

        The padded walk matrices and the first-occurrence inverted index
        are immutable after construction and are shared by reference — the
        expensive parts (generation, the index's stable argsort) are paid
        once per collection, however many clones serve concurrent selection
        sessions.  The truncation state (``end_pos``, ``values``, ``b0``)
        is handed over copy-on-write, exactly like :meth:`snapshot_state`:
        the first ``add_seed`` on either side detaches it, so no clone can
        corrupt the pristine walk-store master it was served from.
        """
        clone = TruncatedWalks.__new__(TruncatedWalks)
        clone.walks = self.walks
        clone.lengths = self.lengths
        clone.n = self.n
        clone.starts = self.starts
        clone.num_walks = self.num_walks
        clone.idx_node = self.idx_node
        clone.idx_pos = self.idx_pos
        clone.idx_walk = self.idx_walk
        clone.node_ptr = self.node_ptr
        clone.end_pos = self.end_pos
        clone.values = self.values
        clone._b0 = self._b0
        clone._seeds = list(self._seeds)
        clone._seed_set = set(self._seed_set)
        clone._shared = True
        self._shared = True
        return clone

    def add_seed(self, node: int) -> None:
        """Truncate every walk containing ``node`` at ``node`` (Alg. 4 line 8)."""
        node = int(node)
        if node in self._seed_set:
            return
        self._own_state()
        self._seeds.append(node)
        self._seed_set.add(node)
        self._b0[node] = 1.0
        wids, pos = self.entries_for(node)
        hit = pos <= self.end_pos[wids]
        wids, pos = wids[hit], pos[hit]
        self.end_pos[wids] = pos
        self.values[wids] = 1.0

    def estimated_opinions(self) -> np.ndarray:
        """Per-start-node average walk value (NaN for nodes without walks)."""
        sums = np.bincount(self.starts, weights=self.values, minlength=self.n)
        counts = np.bincount(self.starts, minlength=self.n).astype(np.float64)
        with np.errstate(invalid="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1.0), np.nan)

    def memory_bytes(self) -> int:
        """Approximate resident bytes of walks + index (Fig. 17 metric)."""
        arrays = (
            self.walks,
            self.lengths,
            self.end_pos,
            self.values,
            self.idx_node,
            self.idx_pos,
            self.idx_walk,
            self.node_ptr,
        )
        return int(sum(a.nbytes for a in arrays))


class WalkGreedyOptimizer:
    """The walk-estimated score and its all-candidates gain scan (Alg. 4/5).

    The scoring kernel behind :class:`~repro.core.engine.WalkEngine`: it
    estimates ``F`` from the current truncation state of ``walks`` and
    scores every candidate's marginal gain in one vectorized pass.  The
    greedy loop itself is :func:`~repro.core.greedy.greedy_engine`.

    The gain scan pairs each first-occurrence index entry with its
    (node, group) pair.  The index and the grouping are fixed while the
    optimizer is bound, so that pair table is sorted once, on the first
    :meth:`marginal_gains`; every round after it is linear in the index
    entries (a live mask, one ``bincount``) and gives the bits the
    per-round sort gave.  Callers that only read :meth:`estimated_score`
    (a walk engine's ``evaluate``) never build it.

    Parameters
    ----------
    walks:
        A :class:`TruncatedWalks` collection for the target candidate.
    score:
        The voting score to maximize.
    others_by_user:
        ``(n, r-1)`` *exact* competitor opinions at the horizon (the paper
        computes these once via direct matrix multiplication).
    grouping:
        ``"start"`` (Algorithm 4, RW): walks from the same start node are
        averaged into one per-user estimate, and the score sums over all
        users.  ``"walk"`` (Algorithm 5, RS): each walk is an independent
        sketch sample and the score is rescaled by ``n / θ``.
    """

    def __init__(
        self,
        walks: TruncatedWalks,
        score: VotingScore,
        others_by_user: np.ndarray | None,
        *,
        grouping: str = "start",
    ) -> None:
        if grouping not in ("start", "walk"):
            raise ValueError(f"grouping must be 'start' or 'walk', got {grouping!r}")
        self.walks = walks
        self.score = score
        self.grouping = grouping
        n = walks.n
        if isinstance(score, CumulativeScore):
            self.others = np.empty((n, 0), dtype=np.float64)
        else:
            if others_by_user is None:
                raise ValueError(f"score {score.name!r} needs competitor opinions")
            self.others = np.asarray(others_by_user, dtype=np.float64)
        if grouping == "start":
            # One group per start node, numbered in node order.
            present = np.bincount(walks.starts, minlength=n) > 0
            rank = np.cumsum(present, dtype=np.int64) - 1
            self.group_of_walk = rank[walks.starts]
            self.group_user = np.flatnonzero(present).astype(np.int64)
            self.group_weight = np.ones(self.group_user.size, dtype=np.float64)
        else:
            self.group_of_walk = np.arange(walks.num_walks, dtype=np.int64)
            self.group_user = walks.starts.copy()
            self.group_weight = np.full(
                walks.num_walks, n / max(walks.num_walks, 1), dtype=np.float64
            )
        self.num_groups = self.group_user.size
        self.group_size = np.bincount(
            self.group_of_walk, minlength=self.num_groups
        ).astype(np.float64)
        self._is_copeland = isinstance(score, CopelandScore)
        if not self._is_copeland and not isinstance(score, SeparableScore):
            raise TypeError(f"unsupported score type {type(score).__name__}")
        self._pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    def _group_sums(self) -> np.ndarray:
        return np.bincount(
            self.group_of_walk, weights=self.walks.values, minlength=self.num_groups
        )

    def group_estimates(self) -> np.ndarray:
        """Current estimated opinion per group (per user for RW)."""
        return self._group_sums() / self.group_size

    def estimated_score(self) -> float:
        """Walk/sketch estimate of ``F`` for the current seed set."""
        b_hat = self.group_estimates()
        others_g = self.others[self.group_user]
        if self._is_copeland:
            weight = self.group_weight[:, None]
            wins = ((b_hat[:, None] > others_g) * weight).sum(axis=0)
            losses = ((b_hat[:, None] < others_g) * weight).sum(axis=0)
            return float(np.sum(wins > losses))
        contrib = self.score.contributions(b_hat, others_g)
        return float(np.dot(self.group_weight, contrib))

    # ------------------------------------------------------------------
    def _pair_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(pair_of_entry, pair_node, pair_group)``, built on first use.

        Every index entry belongs to one (node, group) pair; the pairs are
        sorted by node, then group.  The index and the grouping never
        change while the optimizer is bound, so this is the one sort of
        the gain scan, paid once however many rounds follow.
        """
        if self._pairs is None:
            walks = self.walks
            groups = self.group_of_walk[walks.idx_walk]
            key = walks.idx_node * np.int64(self.num_groups) + groups
            uniq, pair_of_entry = np.unique(key, return_inverse=True)
            self._pairs = (
                pair_of_entry,
                uniq // self.num_groups,
                uniq % self.num_groups,
            )
        return self._pairs

    def _candidate_updates(
        self, candidates: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per (candidate-node, group) estimate updates for this round.

        Returns ``(pair_node, pair_group, old_b, new_b)``: for every node
        ``w`` still present in some truncated walk (among ``candidates``,
        when given) and every group with a walk through ``w``, the group
        estimate before and after seeding ``w`` (all affected walk values
        jump to 1).  Only the *live* entries count — those whose first
        occurrence a chosen seed has not cut off — and a pair is live
        when any of its entries is.  Each pair's jump is summed over its
        live entries in index order, so a round is linear in the index.
        """
        walks = self.walks
        pair_of_entry, pair_node, pair_group = self._pair_table()
        mask = walks.idx_pos <= walks.end_pos[walks.idx_walk]
        if candidates is not None:
            wanted = np.zeros(walks.n, dtype=bool)
            wanted[candidates] = True
            mask &= wanted[walks.idx_node]
        pairs = pair_of_entry[mask]
        delta = 1.0 - walks.values[walks.idx_walk[mask]]
        delta_sum = np.bincount(pairs, weights=delta, minlength=pair_node.size)
        live = np.zeros(pair_node.size, dtype=bool)
        live[pairs] = True
        pair_node, pair_group = pair_node[live], pair_group[live]
        sums = self._group_sums()
        old_b = sums[pair_group] / self.group_size[pair_group]
        new_b = (sums[pair_group] + delta_sum[live]) / self.group_size[pair_group]
        return pair_node, pair_group, old_b, new_b

    def marginal_gains(self, candidates: np.ndarray | None = None) -> np.ndarray:
        """Estimated marginal gain of seeding each node (one vectorized scan).

        With ``candidates``, the scan reads only their live entries and
        returns their gains, in order.  Each (node, group) pair of the
        table sums its live entries in index order and the pairs are
        scored in their sorted order either way, so each gain has the
        full scan's bits whatever else is requested.
        """
        n = self.walks.n
        pair_node, pair_group, old_b, new_b = self._candidate_updates(candidates)
        others_pair = self.others[self.group_user[pair_group]]
        weight = self.group_weight[pair_group]
        if self._is_copeland:
            gains = self._copeland_gains(pair_node, old_b, new_b, others_pair, weight)
        else:
            contrib_old = self.score.contributions(old_b, others_pair)
            contrib_new = self.score.contributions(new_b, others_pair)
            gains = np.bincount(
                pair_node, weights=weight * (contrib_new - contrib_old), minlength=n
            )
        return gains if candidates is None else gains[candidates]

    def _copeland_gains(
        self,
        pair_node: np.ndarray,
        old_b: np.ndarray,
        new_b: np.ndarray,
        others_pair: np.ndarray,
        weight: np.ndarray,
    ) -> np.ndarray:
        n = self.walks.n
        b_hat = self.group_estimates()
        others_g = self.others[self.group_user]
        w_g = self.group_weight[:, None]
        wins_base = ((b_hat[:, None] > others_g) * w_g).sum(axis=0)
        losses_base = ((b_hat[:, None] < others_g) * w_g).sum(axis=0)
        score_base = float(np.sum(wins_base > losses_base))
        n_comp = others_g.shape[1]
        gains = np.zeros(n, dtype=np.float64)
        if pair_node.size == 0 or n_comp == 0:
            return gains
        d_win = (
            (new_b[:, None] > others_pair).astype(np.float64)
            - (old_b[:, None] > others_pair)
        ) * weight[:, None]
        d_loss = (
            (new_b[:, None] < others_pair).astype(np.float64)
            - (old_b[:, None] < others_pair)
        ) * weight[:, None]
        win_acc = np.zeros((n, n_comp), dtype=np.float64)
        loss_acc = np.zeros((n, n_comp), dtype=np.float64)
        for x in range(n_comp):
            win_acc[:, x] = np.bincount(pair_node, weights=d_win[:, x], minlength=n)
            loss_acc[:, x] = np.bincount(pair_node, weights=d_loss[:, x], minlength=n)
        new_scores = np.sum(
            (wins_base[None, :] + win_acc) > (losses_base[None, :] + loss_acc), axis=1
        ).astype(np.float64)
        return new_scores - score_base

# ----------------------------------------------------------------------
# Per-node walk counts and the top-level RW method
# ----------------------------------------------------------------------
def estimate_gamma_star(
    estimated: np.ndarray, others_by_user: np.ndarray, *, floor: float = 0.05
) -> np.ndarray:
    """Heuristic per-user margin ``γ*_v = min_{|S|≤k} γ_v[S]`` (§V-C).

    Seeding only raises the target estimate, sweeping ``b̂_v`` upward over
    the interval ``[b̂_v[∅], 1]`` (seeding ``v`` itself already reaches 1).
    The minimum distance from any competitor opinion to that interval is
    therefore ``b̂_v[∅] − max_x b_xv`` when all competitors sit below the
    current estimate and (essentially) 0 otherwise; a ``floor`` keeps the
    resulting walk counts finite, as in the paper's heuristic estimation.
    """
    estimated = np.asarray(estimated, dtype=np.float64)
    others = np.asarray(others_by_user, dtype=np.float64)
    if others.size == 0:
        return np.full(estimated.shape, np.inf)
    top_other = others.max(axis=1)
    gamma = np.where(estimated > top_other, estimated - top_other, 0.0)
    return np.maximum(gamma, floor)


#: Walks per node behind the γ* probe of the rank-score walk counts.
PROBE_WALKS = 16


@dataclass
class WalkSelectResult:
    """Seed set chosen by the RW method plus diagnostics."""

    seeds: np.ndarray
    estimated_objective: float
    exact_objective: float
    total_walks: int
    walks_per_node: np.ndarray
    memory_bytes: int


def random_walk_select(
    problem: FJVoteProblem,
    k: int,
    *,
    rho: float = 0.9,
    delta: float = 0.1,
    gamma_floor: float = 0.05,
    lambda_cap: int | None = 256,
    walks_per_node: int | np.ndarray | None = None,
    rng: int | np.random.Generator | None = None,
    store=None,
) -> WalkSelectResult:
    """The RW method (Algorithm 4): greedy on walk-estimated scores.

    The number of walks per node follows the paper's accuracy analysis:
    the Hoeffding bound of Theorem 10 for the cumulative score (parameters
    ``delta``, ``rho``), and the γ-margin bounds of Theorems 11/12 with the
    heuristic γ* estimate (from :data:`PROBE_WALKS` walks per node) for
    the rank-based scores.  Pass ``walks_per_node`` to override (scalar or
    per-node array); it and ``lambda_cap`` must be positive integers.

    Parameters mirror the paper's defaults (ρ = 0.9, δ = 0.1).  The exact
    objective of the returned seed set is evaluated via DM for reporting.

    The walks come from ``store`` (a
    :class:`~repro.core.walk_store.WalkStore`), or from a private store
    seeded by the first draw from ``rng``: the probe is the store's
    :data:`PROBE_WALKS`-per-node view, and the selection runs
    :func:`~repro.core.greedy.greedy_engine` over a
    :class:`~repro.core.engine.WalkEngine` bound to the per-node view of
    the resulting ``λ`` (uniform or per node).  A private store therefore
    selects exactly what ``store_for_problem(problem, seed=rng)`` would.
    """
    from repro.core.engine import WalkEngine
    from repro.core.walk_store import WalkStore

    k = check_seed_budget(k, problem.n)
    walks_per_node = check_count(walks_per_node, "walks_per_node")
    lambda_cap = check_count(lambda_cap, "lambda_cap")
    if store is None:
        store = WalkStore(problem.state, problem.horizon, seed=rng)
    else:
        store.require_problem(problem)
    n = problem.n
    if walks_per_node is not None:
        lam = np.broadcast_to(walks_per_node, (n,)).copy()
    elif isinstance(problem.score, CumulativeScore):
        lam = np.full(n, lambda_cumulative(delta, rho), dtype=np.int64)
    else:
        # Probe walks give a cheap opinion estimate, from which per-user
        # margins γ*_v and then per-node walk counts follow (Theorems 11-12).
        probe = store.per_node_view(problem.target, PROBE_WALKS)
        gamma = estimate_gamma_star(
            probe.estimated_opinions(), problem.others_by_user(), floor=gamma_floor
        )
        lam = lambda_rank(gamma, rho)
    if lambda_cap is not None:
        lam = np.minimum(lam, lambda_cap)
    lam = np.maximum(lam, 1)
    engine = WalkEngine(problem, grouping="start", walks_per_node=lam, store=store)
    result = greedy_engine(engine, k)
    return WalkSelectResult(
        seeds=result.seeds,
        estimated_objective=result.objective,
        exact_objective=problem.objective(result.seeds),
        total_walks=engine.walks.num_walks,
        walks_per_node=lam,
        memory_bytes=engine.walks.memory_bytes(),
    )
