"""The five voting-based scoring functions of paper §II-B.

All scores share the :class:`VotingScore` interface: ``evaluate(opinions, q)``
maps a full opinion matrix ``B(t) ∈ [0,1]^{r×n}`` and a candidate index to a
scalar score.  The four rank-based scores additionally expose per-user
contributions given *fixed* competitor opinions (:class:`SeparableScore`),
which the greedy optimizers exploit: seeding the target only changes the
target's own row, so competitor opinions can be computed once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.voting.rank import rank_against


class VotingScore(ABC):
    """A scoring function ``F(B(t), c_q)`` over the opinion matrix."""

    #: short identifier used in reports ("cumulative", "plurality", ...)
    name: str = "abstract"

    @abstractmethod
    def evaluate(self, opinions: np.ndarray, q: int) -> float:
        """Score of candidate ``q`` under the full opinion matrix ``(r, n)``."""

    def evaluate_all(self, opinions: np.ndarray) -> np.ndarray:
        """Score of every candidate (used for winner determination)."""
        r = np.asarray(opinions).shape[0]
        return np.array([self.evaluate(opinions, q) for q in range(r)])

    def score_targets_T(
        self, values_T: np.ndarray, others_by_user: np.ndarray
    ) -> np.ndarray:
        """Target score for ``C`` hypothetical target-opinion columns at once.

        Parameters
        ----------
        values_T:
            ``(n, C)`` target opinions — one column per hypothesis (e.g.
            per candidate seed set in a batched greedy round), the batched
            DM engine's native users-by-sets layout.
        others_by_user:
            ``(n, r-1)`` fixed competitor opinions shared by all columns.

        The base implementation reassembles a full opinion matrix per
        column and calls :meth:`evaluate`; subclasses override with
        vectorized paths (this is the batch seam used by
        :class:`repro.core.engine.BatchedDMEngine`).
        """
        values_T = np.asarray(values_T, dtype=np.float64)
        others = np.asarray(others_by_user, dtype=np.float64).T  # (r-1, n)
        out = np.empty(values_T.shape[1], dtype=np.float64)
        for i in range(values_T.shape[1]):
            opinions = np.vstack([values_T[None, :, i], others])
            out[i] = self.evaluate(opinions, 0)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SeparableScore(VotingScore):
    """Scores of the form ``F = Σ_v contribution(b_qv; competitors of v)``."""

    @abstractmethod
    def contributions(
        self, values: np.ndarray, others_by_user: np.ndarray
    ) -> np.ndarray:
        """Per-user contribution of target values against fixed competitors.

        Parameters
        ----------
        values:
            ``(m,)`` target-candidate opinions of ``m`` users.
        others_by_user:
            ``(m, r-1)`` competitor opinions of the same users.
        """

    def evaluate(self, opinions: np.ndarray, q: int) -> float:
        opinions = np.asarray(opinions, dtype=np.float64)
        others = np.delete(opinions, q, axis=0).T  # (n, r-1)
        return float(self.contributions(opinions[q], others).sum())

    def contributions_batch_T(
        self, values_T: np.ndarray, others_by_user: np.ndarray
    ) -> np.ndarray:
        """Per-user contributions for ``C`` target columns at once.

        ``(m, C)`` in and out.  The base implementation loops
        :meth:`contributions` per column; subclasses provide vectorized
        overrides.  The dtype may be boolean for indicator-style scores
        (p-approval); consumers must treat the result numerically (sums /
        dot products promote correctly).
        """
        values_T = np.asarray(values_T, dtype=np.float64)
        out = np.empty(values_T.shape, dtype=np.float64)
        for i in range(values_T.shape[1]):
            out[:, i] = self.contributions(values_T[:, i], others_by_user)
        return out

    def score_targets_T(
        self, values_T: np.ndarray, others_by_user: np.ndarray
    ) -> np.ndarray:
        return self.contributions_batch_T(values_T, others_by_user).sum(
            axis=0, dtype=np.float64
        )


class CumulativeScore(SeparableScore):
    """Sum of all users' opinions on the target (Eq. 3).

    The only submodular score (Theorem 3); competitor opinions are ignored.
    """

    name = "cumulative"

    def contributions(
        self, values: np.ndarray, others_by_user: np.ndarray
    ) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)

    def contributions_batch_T(
        self, values_T: np.ndarray, others_by_user: np.ndarray
    ) -> np.ndarray:
        return np.asarray(values_T, dtype=np.float64)


class PositionalPApprovalScore(SeparableScore):
    """Positional-p-approval (Eq. 6): ``Σ_v ω[β(b_qv)] · 1[β(b_qv) ≤ p]``.

    Parameters
    ----------
    p:
        Approval cutoff, ``1 ≤ p ≤ r``.
    weights:
        Position weights ``(ω[1], ..., ω[r])`` with ``ω[i] ∈ [0, 1]`` and
        non-increasing (§II-B).  Positions beyond ``p`` never contribute.
    """

    name = "positional-p-approval"

    def __init__(self, p: int, weights: np.ndarray) -> None:
        self.p = int(p)
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        if self.weights.ndim != 1 or self.weights.size < self.p:
            raise ValueError("need at least p position weights")
        if self.weights.min() < 0 or self.weights.max() > 1:
            raise ValueError("position weights must lie in [0, 1]")
        if np.any(np.diff(self.weights) > 1e-12):
            raise ValueError("position weights must be non-increasing")

    def weight_at(self, position: int) -> float:
        """ω at a 1-based position (0 beyond the stored weights)."""
        if 1 <= position <= self.weights.size:
            return float(self.weights[position - 1])
        return 0.0

    def contributions(
        self, values: np.ndarray, others_by_user: np.ndarray
    ) -> np.ndarray:
        beta = rank_against(values, others_by_user)
        return self._weights_of_ranks(beta)

    def contributions_batch_T(
        self, values_T: np.ndarray, others_by_user: np.ndarray
    ) -> np.ndarray:
        values_T = np.asarray(values_T, dtype=np.float64)
        others = np.asarray(others_by_user, dtype=np.float64)
        beta = 1 + np.sum(
            others[:, None, :] >= values_T[:, :, None], axis=2, dtype=np.int64
        )
        return self._weights_of_ranks(beta)

    def _weights_of_ranks(self, beta: np.ndarray) -> np.ndarray:
        padded = np.concatenate([self.weights, np.zeros(1)])
        idx = np.minimum(beta - 1, padded.size - 1)
        return np.where(beta <= self.p, padded[idx], 0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PositionalPApprovalScore(p={self.p}, weights={self.weights.tolist()})"


class PApprovalScore(PositionalPApprovalScore):
    """p-approval (Eq. 5): number of users ranking the target in the top p."""

    name = "p-approval"

    def __init__(self, p: int, r: int | None = None) -> None:
        size = max(int(p), 1) if r is None else int(r)
        super().__init__(p, np.ones(size))

    def contributions_batch_T(
        self, values_T: np.ndarray, others_by_user: np.ndarray
    ) -> np.ndarray:
        # Uniform top-p weights: the contribution is the plain indicator
        # ``rank <= p``, i.e. at most p-1 competitors at or above the value
        # — no rank materialization or weight gather needed.  Competitor
        # counts accumulate per-competitor in uint8 (r <= 256 always holds
        # in practice) to avoid an (m, C, r-1) 3-D temporary, in the
        # layout of ``values_T`` and against contiguous competitor
        # columns, so every pass over a column-major block is unit-stride.
        values_T = np.asarray(values_T, dtype=np.float64)
        others = np.asarray(others_by_user, dtype=np.float64)
        n_comp = others.shape[1]
        if n_comp <= self.p - 1:
            # Fewer competitors than approval slots: everyone approves.
            return np.ones(values_T.shape, dtype=np.float64)
        if n_comp == 1:
            # Head-to-head (r = 2, p = 1): approval iff strictly ahead.
            return values_T > others[:, 0][:, None]
        if n_comp >= 255:
            return super().contributions_batch_T(values_T, others)
        count_ge = np.zeros_like(values_T, dtype=np.uint8)
        for col in np.ascontiguousarray(others.T)[:, :, None]:
            count_ge += col >= values_T
        return count_ge < self.p

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PApprovalScore(p={self.p})"


class PluralityScore(PApprovalScore):
    """Plurality (Eq. 4): number of users strictly preferring the target."""

    name = "plurality"

    def __init__(self) -> None:
        super().__init__(1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "PluralityScore()"


class CopelandScore(VotingScore):
    """Copeland (Eq. 7): one-on-one competitions won by the target.

    ``c_q ≻_M c_x`` when strictly more users hold a higher opinion of ``q``
    than of ``x`` than the other way around.  Not separable per user: a
    single user's change can flip a whole pairwise competition.
    """

    name = "copeland"

    def evaluate(self, opinions: np.ndarray, q: int) -> float:
        opinions = np.asarray(opinions, dtype=np.float64)
        r = opinions.shape[0]
        if not 0 <= q < r:
            raise ValueError(f"candidate index {q} out of range for r={r}")
        b_q = opinions[q]
        score = 0
        for x in range(r):
            if x == q:
                continue
            wins = int(np.sum(b_q > opinions[x]))
            losses = int(np.sum(b_q < opinions[x]))
            if wins > losses:
                score += 1
        return float(score)

    def score_targets_T(
        self, values_T: np.ndarray, others_by_user: np.ndarray
    ) -> np.ndarray:
        """Copeland score of ``C`` target columns against fixed competitors.

        Competitions among the competitors themselves never involve the
        target's opinions, so only the ``r-1`` target-vs-x duels matter —
        one ``(n, C)`` comparison pair per competitor.
        """
        values_T = np.asarray(values_T, dtype=np.float64)
        others = np.asarray(others_by_user, dtype=np.float64)
        score = np.zeros(values_T.shape[1], dtype=np.float64)
        # Contiguous competitor columns keep every comparison unit-stride.
        for col in np.ascontiguousarray(others.T)[:, :, None]:
            wins = np.sum(values_T > col, axis=0)
            losses = np.sum(values_T < col, axis=0)
            score += wins > losses
        return score


_SIMPLE_SCORES = {
    "cumulative": CumulativeScore,
    "plurality": PluralityScore,
    "copeland": CopelandScore,
}


def make_score(
    name: str, *, p: int | None = None, weights: np.ndarray | None = None
) -> VotingScore:
    """Factory from a score name.

    ``"cumulative" | "plurality" | "copeland"`` take no parameters;
    ``"p-approval"`` needs ``p``; ``"positional-p-approval"`` needs ``p`` and
    ``weights``.
    """
    key = name.lower().replace("_", "-")
    if key in _SIMPLE_SCORES:
        return _SIMPLE_SCORES[key]()
    if key == "p-approval":
        if p is None:
            raise ValueError("p-approval requires p")
        return PApprovalScore(p)
    if key == "positional-p-approval":
        if p is None or weights is None:
            raise ValueError("positional-p-approval requires p and weights")
        return PositionalPApprovalScore(p, weights)
    raise ValueError(f"unknown score {name!r}")
