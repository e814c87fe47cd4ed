"""Vectorized alias-method sampler over per-node categorical distributions.

Reverse random walks (§V of the paper) repeatedly sample an in-neighbor of
the current node proportionally to the (column-stochastic) influence
weights.  The alias method gives O(1) sampling per step after an O(degree)
per-node build, and the flat layout below lets a whole batch of walks take
one step with a few numpy operations.

The O(E) table depends only on the graph's columns, so the graph owns it:
walk code asks :meth:`repro.graph.digraph.InfluenceGraph.alias_sampler`,
which builds one table per graph version; an edge delta carries a cached
table forward with :meth:`AliasSampler.patched`, rebuilding only the
touched columns.  Nothing else constructs or caches a table.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.utils.rng import ensure_rng


class AliasSampler:
    """Alias tables for every column of a sparse column-stochastic matrix.

    ``sample(current, rng)`` draws, for each node ``j`` in ``current``, one
    in-neighbor ``i`` with probability ``w[i, j]``.
    """

    def __init__(self, csc: sparse.csc_matrix) -> None:
        csc = self._adopt(csc)
        self._prob = np.empty(csc.nnz, dtype=np.float64)
        self._alias = np.empty(csc.nnz, dtype=np.int64)
        for j in range(self.n):
            lo, hi = self._indptr[j], self._indptr[j + 1]
            self._build_one(csc.data[lo:hi], lo)

    def _adopt(self, csc: sparse.csc_matrix) -> sparse.csc_matrix:
        """Take ``csc``'s column layout; refuse a column without entries."""
        csc = sparse.csc_matrix(csc)
        self.n = csc.shape[1]
        self._indptr = csc.indptr.astype(np.int64)
        self._indices = csc.indices.astype(np.int64)
        self._degrees = np.diff(self._indptr)
        if (self._degrees == 0).any():
            missing = int((self._degrees == 0).sum())
            raise ValueError(
                f"{missing} nodes have no in-neighbors; normalize the graph "
                "with self loops before building an AliasSampler"
            )
        return csc

    def patched(self, csc: sparse.csc_matrix, touched: np.ndarray) -> "AliasSampler":
        """The table of ``csc``, a matrix equal to this table's except in
        the ``touched`` columns.

        Untouched columns keep their ``(prob, alias)`` slices (alias
        entries are column-local, so a slice moves unchanged when a
        structural delta shifts its offset); only the touched columns
        re-run Vose's construction.  Every column's table is a pure
        function of its weights, so the result is bitwise
        ``AliasSampler(csc)``.
        """
        table = AliasSampler.__new__(AliasSampler)
        csc = table._adopt(csc)
        keep = np.ones(self.n, dtype=bool)
        keep[np.asarray(touched, dtype=np.int64)] = False
        col = np.repeat(np.arange(self.n), self._degrees)
        old = np.flatnonzero(keep[col])
        new = old + (table._indptr - self._indptr)[col[old]]
        table._prob = np.empty(csc.nnz, dtype=np.float64)
        table._alias = np.empty(csc.nnz, dtype=np.int64)
        table._prob[new] = self._prob[old]
        table._alias[new] = self._alias[old]
        for j in np.flatnonzero(~keep):
            lo, hi = table._indptr[j], table._indptr[j + 1]
            table._build_one(csc.data[lo:hi], lo)
        return table

    def _build_one(self, weights: np.ndarray, offset: int) -> None:
        """Vose's alias construction for one distribution (local indices)."""
        deg = weights.size
        scaled = weights * (deg / weights.sum())
        prob = np.ones(deg)
        alias = np.arange(deg)
        small = [i for i in range(deg) if scaled[i] < 1.0]
        large = [i for i in range(deg) if scaled[i] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            if scaled[g] < 1.0:
                small.append(g)
            else:
                large.append(g)
        # Remaining entries keep prob 1 (numerical leftovers).
        self._prob[offset : offset + deg] = prob
        self._alias[offset : offset + deg] = alias

    def sample(
        self, current: np.ndarray, rng: int | np.random.Generator | None = None
    ) -> np.ndarray:
        """Sample one in-neighbor for each node in ``current``."""
        rng = ensure_rng(rng)
        current = np.asarray(current, dtype=np.int64)
        u_slot = rng.random(current.size)
        u_alias = rng.random(current.size)
        return self.sample_with(current, u_slot, u_alias)

    def sample_with(
        self, current: np.ndarray, u_slot: np.ndarray, u_alias: np.ndarray
    ) -> np.ndarray:
        """Sample with caller-supplied uniforms (one pair per draw).

        The pick is a deterministic function of ``(column, u_slot,
        u_alias)`` and of the column's stored ``(indices, data)`` bytes
        alone — columns untouched by a graph delta map the same uniforms
        to the same in-neighbor, which is what lets the walk store
        regenerate only the walks that crossed a changed column.
        """
        current = np.asarray(current, dtype=np.int64)
        deg = self._degrees[current]
        offset = self._indptr[current]
        slot = (np.asarray(u_slot, dtype=np.float64) * deg).astype(np.int64)
        # Guard against the (measure-zero) event rng.random() == 1.0.
        np.minimum(slot, deg - 1, out=slot)
        flat = offset + slot
        use_alias = np.asarray(u_alias, dtype=np.float64) > self._prob[flat]
        local = np.where(use_alias, self._alias[flat], slot)
        return self._indices[offset + local]

    def distribution(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(in_neighbors, probabilities)`` encoded for node ``j``.

        Reconstructed from the alias tables; useful for testing that the
        construction preserved the input distribution.
        """
        lo, hi = self._indptr[j], self._indptr[j + 1]
        deg = hi - lo
        probs = np.zeros(deg)
        base = self._prob[lo:hi] / deg
        probs += base
        for slot in range(deg):
            probs[self._alias[lo + slot]] += (1.0 - self._prob[lo + slot]) / deg
        return self._indices[lo:hi], probs
