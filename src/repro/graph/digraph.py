"""Sparse directed influence graph.

The paper (§II) models the social network as a directed graph ``G = (V, E)``
with a *column-stochastic* influence matrix ``W`` per candidate, where
``w[i, j]`` is the influence weight of user ``i`` on user ``j``.  Column
``j`` therefore holds the in-neighbor weights of node ``j`` and sums to 1.

:class:`InfluenceGraph` wraps a ``scipy.sparse`` matrix and exposes both
orientations: CSR for fast row access (out-edges, used by forward
reachability and cascade baselines) and CSC for fast column access
(in-edges, used by the reverse random walks of §V).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.graph.alias import AliasSampler
from repro.utils.validation import check_index, check_real

_STOCHASTIC_ATOL = 1e-8


class InfluenceGraph:
    """A directed graph with a column-stochastic edge-weight matrix.

    Parameters
    ----------
    matrix:
        ``(n, n)`` sparse matrix with non-negative entries whose columns each
        sum to 1.  Use :func:`repro.graph.build.graph_from_edges` (or
        :func:`repro.graph.build.column_stochastic`) to construct one from
        raw edge weights.
    validate:
        When true (default), verify non-negativity and column sums.
    """

    #: ``(version, table)`` of the last :meth:`alias_sampler` build.  A
    #: class-level default, so unpickled graphs (whose pickles omit the
    #: table) start without one.
    _alias: "tuple[int, AliasSampler] | None" = None

    def __init__(self, matrix: sparse.spmatrix, *, validate: bool = True) -> None:
        csr = sparse.csr_matrix(matrix, dtype=np.float64)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"influence matrix must be square, got {csr.shape}")
        csr.eliminate_zeros()
        csr.sort_indices()
        if validate:
            _validate_column_stochastic(csr)
        self._csr = csr
        self._csc = csr.tocsc()
        self._csc.sort_indices()
        #: Monotonically increasing surgery counter.  Starts at 0 and is
        #: bumped by every :meth:`apply_edge_delta`; cache layers (problem,
        #: engine, walk store) key their validity on it.
        self.version = 0

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._csr.shape[0]

    @property
    def m(self) -> int:
        """Number of (non-zero weight) directed edges, including self-loops."""
        return self._csr.nnz

    @property
    def csr(self) -> sparse.csr_matrix:
        """Row-oriented weight matrix (row i = out-edges of node i)."""
        return self._csr

    @property
    def csc(self) -> sparse.csc_matrix:
        """Column-oriented weight matrix (column j = in-edges of node j)."""
        return self._csc

    def alias_sampler(self) -> AliasSampler:
        """The alias table over :attr:`csc` for the current :attr:`version`.

        Built on first use and cached until :attr:`version` moves — every
        :meth:`apply_edge_delta` bumps it, on the coordinator and on each
        tcp host that replays the delta.  A delta over a current table
        carries it forward, rebuilding only the touched columns.
        """
        cached = self._alias
        if cached is None or cached[0] != self.version:
            cached = self._alias = (self.version, AliasSampler(self._csc))
        return cached[1]

    def __getstate__(self) -> dict:
        # The alias table is a derived cache: pickles carry the matrices only.
        return {k: v for k, v in self.__dict__.items() if k != "_alias"}

    # ------------------------------------------------------------------
    # Neighborhood access
    # ------------------------------------------------------------------
    def out_neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(targets, weights)`` of the out-edges of node ``i``."""
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        return self._csr.indices[lo:hi], self._csr.data[lo:hi]

    def in_neighbors(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(sources, weights)`` of the in-edges of node ``j``.

        The weights sum to 1 by column-stochasticity, so this is directly the
        transition distribution of a reverse random-walk step from ``j``.
        """
        lo, hi = self._csc.indptr[j], self._csc.indptr[j + 1]
        return self._csc.indices[lo:hi], self._csc.data[lo:hi]

    def out_degrees(self) -> np.ndarray:
        """Out-degree (edge count) of every node."""
        return np.diff(self._csr.indptr)

    def in_degrees(self) -> np.ndarray:
        """In-degree (edge count) of every node."""
        return np.diff(self._csc.indptr)

    def weighted_out_degrees(self) -> np.ndarray:
        """Sum of outgoing weights per node (the DC baseline's centrality).

        Self-loops are excluded: they are artifacts of stochastic
        normalization for nodes without in-neighbors, not social influence.
        """
        totals = np.asarray(self._csr.sum(axis=1)).ravel()
        return totals - self._csr.diagonal()

    # ------------------------------------------------------------------
    # Incremental surgery
    # ------------------------------------------------------------------
    def apply_edge_delta(
        self,
        added: "list[tuple[int, int, float]] | tuple" = (),
        removed: "list[tuple[int, int]] | tuple" = (),
    ) -> tuple[np.ndarray, bool]:
        """Apply an edge delta in place and return ``(touched, structural)``.

        ``added`` holds ``(src, dst, weight)`` triples: a pair that already
        exists gets its weight *replaced*, a new pair is inserted.  Weights
        are interpreted relative to the column's current stored weights, and
        every touched column is renormalized to sum to 1 afterwards (a column
        emptied by removals receives the standard self-loop of weight 1).
        ``removed`` holds ``(src, dst)`` pairs that must exist.  Weights must
        be finite positive reals whose column sums stay finite; any bad row
        raises ``ValueError`` before anything is mutated.

        Weight-only deltas (all added pairs already present, nothing removed)
        rewrite ``csr``/``csc`` data buffers in place, preserving the array
        objects.  Structural deltas splice the changed columns into
        fresh canonical CSC/CSR arrays ("structural merge"); untouched
        columns keep their exact bytes either way, so the result is
        bit-identical to rebuilding an :class:`InfluenceGraph` from the
        post-delta matrix.

        Returns the sorted array of touched columns (nodes whose in-edge
        distribution changed) and whether the sparsity structure changed.
        Bumps :attr:`version` by one when the delta is non-empty.
        """
        n = self.n
        add = []
        for s, t, w in added:
            s, t = check_index(s, "edge source"), check_index(t, "edge target")
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"added edge ({s}, {t}) out of range [0, {n})")
            w = check_real(w, f"weight of added edge ({s}, {t})")
            if w <= 0:
                raise ValueError(
                    f"added edge ({s}, {t}) has non-positive weight {w!r}; "
                    "use `removed` to delete edges"
                )
            add.append((s, t, w))
        rem = [
            (check_index(s, "edge source"), check_index(t, "edge target"))
            for s, t in removed
        ]
        for s, t in rem:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"removed edge ({s}, {t}) out of range [0, {n})")
        if {(s, t) for s, t, _ in add} & set(rem):
            raise ValueError("an edge appears in both `added` and `removed`")
        if not add and not rem:
            return np.empty(0, dtype=np.int64), False

        csc = self._csc
        touched = sorted({t for _, t, _ in add} | {t for _, t in rem})
        # Assemble each touched column's post-delta (indices, data) pair.
        new_cols: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        structural = False
        for t in touched:
            lo, hi = int(csc.indptr[t]), int(csc.indptr[t + 1])
            col = dict(
                zip(csc.indices[lo:hi].tolist(), csc.data[lo:hi].tolist())
            )
            for s, tt in rem:
                if tt != t:
                    continue
                if s not in col:
                    raise ValueError(f"cannot remove missing edge ({s}, {t})")
                del col[s]
            for s, tt, w in add:
                if tt == t:
                    col[s] = w
            if not col:
                col = {t: 1.0}
            sources = np.array(sorted(col), dtype=csc.indices.dtype)
            weights = np.array([col[int(s)] for s in sources], dtype=np.float64)
            with np.errstate(over="ignore"):
                total = weights.sum()
            if not np.isfinite(total):
                raise ValueError(
                    f"column {t}: in-edge weights sum to {float(total)!r}, "
                    "which is not finite"
                )
            weights = weights / total
            if sources.size != hi - lo or not np.array_equal(
                sources, csc.indices[lo:hi]
            ):
                structural = True
            new_cols[t] = (sources, weights)

        self._install_columns(touched, new_cols, structural)
        touched = np.asarray(touched, dtype=np.int64)
        cached = self._alias
        if cached is not None and cached[0] == self.version:
            self._alias = (self.version + 1, cached[1].patched(self._csc, touched))
        self.version += 1
        return touched, structural

    def _install_columns(
        self,
        touched: "list[int]",
        new_cols: "dict[int, tuple[np.ndarray, np.ndarray]]",
        structural: bool,
    ) -> None:
        """Write post-delta columns into both orientations (in place when
        the sparsity pattern allows, canonical splice otherwise)."""
        n = self.n
        csc = self._csc
        if not structural:
            # Data-only: write the CSC buffer in place and mirror the same
            # values into the CSR buffer via entry-key search (the re-pin
            # idiom of repro.core.engine).
            for t in touched:
                lo, hi = int(csc.indptr[t]), int(csc.indptr[t + 1])
                csc.data[lo:hi] = new_cols[t][1]
            csr = self._csr
            entry_keys = (
                np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
                * n
                + csr.indices
            )
            for t in touched:
                sources, weights = new_cols[t]
                pos = np.searchsorted(
                    entry_keys, sources.astype(np.int64) * n + t
                )
                csr.data[pos] = weights
        else:
            chunks_i: list[np.ndarray] = []
            chunks_d: list[np.ndarray] = []
            counts = np.diff(csc.indptr).astype(np.int64)
            prev = 0
            for t in touched:
                lo_prev = int(csc.indptr[prev])
                lo_t = int(csc.indptr[t])
                chunks_i.append(csc.indices[lo_prev:lo_t])
                chunks_d.append(csc.data[lo_prev:lo_t])
                sources, weights = new_cols[t]
                chunks_i.append(sources)
                chunks_d.append(weights)
                counts[t] = sources.size
                prev = t + 1
            chunks_i.append(csc.indices[int(csc.indptr[prev]) :])
            chunks_d.append(csc.data[int(csc.indptr[prev]) :])
            indptr = np.zeros(n + 1, dtype=csc.indptr.dtype)
            np.cumsum(counts, out=indptr[1:])
            new_csc = sparse.csc_matrix(
                (np.concatenate(chunks_d), np.concatenate(chunks_i), indptr),
                shape=(n, n),
            )
            new_csc.sort_indices()
            self._csc = new_csc
            csr = new_csc.tocsr()
            csr.sort_indices()
            self._csr = csr

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(src, dst, weight)`` arrays of all edges (COO order)."""
        coo = self._csr.tocoo()
        return coo.row, coo.col, coo.data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InfluenceGraph(n={self.n}, m={self.m})"


def _validate_column_stochastic(csr: sparse.csr_matrix) -> None:
    if csr.nnz and csr.data.min() < 0:
        raise ValueError("influence weights must be non-negative")
    col_sums = np.asarray(csr.sum(axis=0)).ravel()
    bad = np.where(np.abs(col_sums - 1.0) > _STOCHASTIC_ATOL)[0]
    if bad.size:
        j = int(bad[0])
        raise ValueError(
            f"matrix is not column-stochastic: column {j} sums to "
            f"{col_sums[j]:.6g} ({bad.size} offending columns); normalize "
            "with repro.graph.build.column_stochastic first"
        )
